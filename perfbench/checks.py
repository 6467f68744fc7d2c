"""Correctness checks on one round's artifacts.

Each check recomputes a quantity apart from the code path that produced it,
or tests a property the method must have; none compares against a stored
copy of earlier output.  A check takes a ``Context`` and returns
``(ok, detail)``.
"""

import csv
import json
import math
import os

import numpy as np

import mptrap.cli as cli
from mptrap.geometry import ChartPoint, covariant_metric
from mptrap.multiplier import build_profiles
from mptrap.params import BlackHoleParams, SchwParams
from mptrap.sos import MpSos, SchwSos
from mptrap.trapping import R_ab_oracle


def load_report(path):
    """Read a report written by mptrap.  Python's json module accepts the
    ``NaN``/``Infinity`` tokens the program writes, so it is used as is."""
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], rows[1:]
    return {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(head)}


class Context:
    """Artifact directories of one round plus the configs that made them."""

    def __init__(self, dirs, configs, seed):
        self.dirs = dict(dirs)
        self.configs = configs
        self.seed = seed
        self._profile = None

    def report(self, op):
        return load_report(os.path.join(self.dirs[op], "report.json"))

    def csv(self, op, fname):
        return read_csv(os.path.join(self.dirs[op], fname))

    def bh_params(self, op):
        p = self.configs[op]["params"]
        return BlackHoleParams(r_s=p["r_s"], a=p["a"], b=p["b"])

    def profile(self):
        if self._profile is None:
            self._profile = build_profiles(SchwParams(r_s=1.0, d=1))
        return self._profile


def _spread_rows(n, k):
    """k row indices spread evenly over n rows."""
    return sorted(set(np.linspace(0, n - 1, min(n, k)).astype(int).tolist()))


# ---------------------------------------------------------------------------
# sos-window
# ---------------------------------------------------------------------------

BRACKET_ROWS = 24


def sos_bracket_fd(ctx):
    """Closed-form bracket against Richardson differences of rho^2 p."""
    rows = ctx.csv("sos-verify", "bracket_scan.csv")
    mp = MpSos(params=ctx.bh_params("sos-verify"), sos=SchwSos(profile=ctx.profile()))
    worst = 0.0
    for i in _spread_rows(len(rows["r"]), BRACKET_ROWS):
        fd = mp.bracket_fd(rows["r"][i], rows["theta"][i], rows["tau"][i],
                           rows["xi"][i], rows["Theta"][i], rows["Phi"][i],
                           rows["Psi"][i])
        worst = max(worst, abs(rows["bracket"][i] - fd) / max(1.0, abs(fd)))
    return worst <= 1e-7, f"max rel. deviation from bracket_fd {worst:.2e} (<= 1e-7)"


def sos_r_trap_oracle(ctx):
    """Each row's r_trap is a root of the finite-difference R_ab oracle: the
    Newton step |R / R'| it implies is below 1e-9 r_s."""
    rows = ctx.csv("sos-verify", "bracket_scan.csv")
    params = ctx.bh_params("sos-verify")
    worst = 0.0
    for i in _spread_rows(len(rows["r"]), BRACKET_ROWS):
        r_t = rows["r_trap"][i]
        args = (rows["tau"][i], rows["Phi"][i], rows["Psi"][i])
        h = 1e-3 * r_t
        R0 = R_ab_oracle(params, r_t**2, *args)
        dR = (R_ab_oracle(params, (r_t + h) ** 2, *args)
              - R_ab_oracle(params, (r_t - h) ** 2, *args)) / (2 * h)
        worst = max(worst, abs(R0 / dR))
    return worst <= 1e-9, f"max implied root displacement {worst:.2e} r_s (<= 1e-9)"


def sos_alpha_beta(ctx):
    rows = ctx.csv("sos-verify", "bracket_scan.csv")
    m = ctx.report("sos-verify")["metrics"]
    lo_a = min(float(rows["alpha2"].min()), m["alpha2_min"])
    lo_b = min(float(rows["beta2"].min()), m["beta2_min"])
    return lo_a > 0 and lo_b > 0, f"min alpha^2 {lo_a:.3e}, min beta^2 {lo_b:.3e} (> 0)"


def sos_nu(ctx):
    lo, hi = ctx.report("sos-verify")["metrics"]["nu_range"]
    return 0.0 < lo and hi < 1.0, f"nu in [{lo:.6f}, {hi:.6f}] (inside (0, 1))"


def sos_kappa(ctx):
    kappa = ctx.report("sos-verify")["metrics"]["mu"]["kappa"]
    return kappa > 0, f"kappa {kappa:.6e} (> 0)"


def sos_envelope(ctx):
    """Doubling ratios recomputed from the envelope scan, in [1, 4]."""
    scan = ctx.report("sos-verify")["metrics"]["envelope_scan"]
    env = [scan[k] for k in sorted(scan, key=float)]
    ratios = [b / a for a, b in zip(env, env[1:])]
    ok = len(ratios) >= 1 and all(1.0 <= q <= 4.0 for q in ratios)
    return ok, f"envelope doubling ratios {[round(q, 4) for q in ratios]} (in [1, 4])"


# ---------------------------------------------------------------------------
# mode-evolution
# ---------------------------------------------------------------------------

WAVE_OPS = ("wave-l0", "wave-l1", "wave-l2")


def wave_convergence_order(ctx):
    """Least-squares order fitted here from the reported field errors and
    the grid spacings of the config, in [1.8, 2.2]."""
    blk = ctx.configs["convergence"]["convergence"]
    errs = ctx.report("convergence")["metrics"]["field_errors"]
    hs = [(blk["r_max"] - blk["r_e"]) / ((blk["n_r"] - 1) * 2**k) for k in range(len(errs))]
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return 1.8 <= order <= 2.2, f"field convergence order {order:.4f} (in [1.8, 2.2])"


def wave_lateral_flux(ctx):
    """The cumulative horizon flux never decreases (density >= 0)."""
    worst = math.inf
    for op in WAVE_OPS:
        cum = ctx.csv(op, "energy.csv")["E_lateral_cum"]
        tol = 1e-12 * max(1.0, float(np.max(np.abs(cum))))
        worst = min(worst, float(np.min(np.diff(cum))) + tol,
                    ctx.report(op)["metrics"]["lateral_min_integrand"])
    return worst >= 0.0, f"min lateral flux increment / density {worst:.3e} (>= 0)"


def wave_energy_bounded(ctx):
    """Slice energy stays below 1.01 times its initial value."""
    worst = 0.0
    for op in WAVE_OPS:
        E = ctx.csv(op, "energy.csv")["E_slice"]
        if not E[0] > 0:
            return False, f"{op}: initial energy {E[0]} not positive"
        worst = max(worst, float(np.max(E)) / float(E[0]))
    return worst <= 1.01, f"max E_slice / E_initial {worst:.6f} (<= 1.01)"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

STATIC_SCAN = "static-trapped-scan"


def geodesic_null(ctx):
    """g^{ab} xi_a xi_b = 0 along trajectory.csv, with g^{ab} from
    numpy.linalg.inv of the covariant metric."""
    rows = ctx.csv("geodesic", "trajectory.csv")
    params = ctx.bh_params("geodesic")
    worst = 0.0
    for i in range(len(rows["r"])):
        r = rows["r"][i]
        pt = ChartPoint(t=rows["t"][i], x=r * r, theta=rows["theta"][i],
                        phi=rows["phi"][i], psi=rows["psi"][i])
        ginv = np.linalg.inv(covariant_metric(params, pt))
        cov = np.array([rows["tau"][i], rows["xi"][i] / (2 * r), rows["Theta"][i],
                        rows["Phi"][i], rows["Psi"][i]])
        p = cov @ ginv @ cov
        scale = np.abs(cov) @ np.abs(ginv) @ np.abs(cov)
        worst = max(worst, abs(p) / scale)
    return worst <= 1e-8, f"max relative null residual {worst:.2e} over {len(rows['r'])} rows (<= 1e-8)"


def trapped_static(ctx):
    """At a = b = 0 every trapped radius is sqrt(2) r_s."""
    r = ctx.csv(STATIC_SCAN, "trapped_scan.csv")["r_trapped"]
    dev = float(np.max(np.abs(r - math.sqrt(2.0))))
    return len(r) > 0 and dev <= 1e-12, f"{len(r)} static radii, max |r - sqrt2 r_s| {dev:.2e} (<= 1e-12)"


def multiplier_c_star(ctx):
    m = ctx.report("multiplier-verify")["metrics"]
    c, c2 = m["c_star"], m["c_star_refined"]
    with open(os.path.join(ctx.dirs["multiplier-verify"], "positivity.json")) as fh:
        c_file = json.load(fh)["c_star"]
    stab = abs(c2 - c) / abs(c)
    ok = c > 0 and c2 > 0 and stab <= 0.01 and c_file == c
    return ok, f"c_star {c:.6e}, doubled grid {c2:.6e}, change {stab:.2e} (<= 1%)"


def multiplier_F_increasing(ctx):
    """F' > 0 by finite differences of the F column of profiles.csv."""
    prof = ctx.csv("multiplier-verify", "profiles.csv")
    ok_rows = np.isfinite(prof["F"])
    r, F = prof["r"][ok_rows], prof["F"][ok_rows]
    slope = np.diff(F) / np.diff(r)
    lo = float(np.min(slope))
    return len(F) > 100 and lo > 0, f"min dF/dr {lo:.3e} over {len(F)} rows (> 0)"


def multiplier_witness(ctx):
    """The only witness is the pinned-boundary clause that the project notes
    document as unattainable (C = 100, r_e = 0.95 r_s); it is not a failure."""
    rep = ctx.report("multiplier-verify")
    wit = rep["witnesses"]
    targets = rep["metrics"]["pinned_boundary_targets_met"]
    ok = (rep["status"] == "pass" and len(wit) == 1
          and wit[0].get("check") == "pinned_boundary_targets"
          and not all(targets.values()))
    return ok, f"status {rep['status']}, witnesses {[w.get('check') for w in wit]}"


CHECKS = {
    "sos-window": [("sos.bracket_fd", sos_bracket_fd),
                   ("sos.r_trap_oracle", sos_r_trap_oracle),
                   ("sos.alpha_beta_positive", sos_alpha_beta),
                   ("sos.nu_range", sos_nu),
                   ("sos.kappa", sos_kappa),
                   ("sos.envelope_ratios", sos_envelope)],
    "mode-evolution": [("wave.convergence_order", wave_convergence_order),
                       ("wave.lateral_flux", wave_lateral_flux),
                       ("wave.energy_bounded", wave_energy_bounded)],
    "certify": [("geodesic.null_condition", geodesic_null),
                ("trapped.static_limit", trapped_static),
                ("multiplier.c_star", multiplier_c_star),
                ("multiplier.F_increasing", multiplier_F_increasing),
                ("multiplier.pinned_witness", multiplier_witness)],
}


def prepare(workload, ctx, outdir):
    """For certify, run trapped-scan on the static background (a = b = 0)
    into ``outdir`` for the static-limit check."""
    if workload == "certify":
        scan_dir = os.path.join(outdir, STATIC_SCAN)
        cfg = {"params": {"r_s": 1.0, "a": 0.0, "b": 0.0}, "trapped_scan": {"n_samples": 400}}
        cli.emit(cli.run("trapped-scan", cfg, scan_dir, ctx.seed), scan_dir)
        ctx.dirs[STATIC_SCAN] = scan_dir


def run_checks(workload, ctx, only=None):
    """[(name, ok, detail)]; a check that raises counts as failed."""
    out = []
    for name, fn in CHECKS[workload]:
        if only is not None and name not in only:
            continue
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # a broken artifact fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, bool(ok), detail))
    return out
