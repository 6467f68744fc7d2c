"""Command-line harness: configuration, task dispatch, and report emission.

Tasks
-----
geodesic          null-geodesic integration with conservation diagnostics
trapped-scan      trapped-radius scan over the admissible frequency cone
multiplier-verify multiplier construction and positivity verification
sos-verify        symbol-level sum-of-squares verification
wave-evolve       one mode evolution with energy/norm reports
convergence       self-convergence study of the mode solver
all               the full suite with default configurations

Exit codes: 0 = pass, 1 = fail report, 2 = configuration/usage error.
Reports are deterministic for a fixed config and seed (wall_time excluded);
random sampling uses numpy's PCG64 generator, identified in the report.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .params import (BlackHoleParams, SchwParams, NakedSingularity, CoordinateSingularity,
                     MULT_ALPHA_CAP, MULT_EPS, MULT_DELTA, MULT_DELTA1, MULT_EPS_MATCH,
                     WAVE_CFL)

# Each `mptrap <task>` is its own process, so the task functions import the
# modules they use on their first call: importing this module loads numpy and
# `params` only, and a task loads (and compiles) only the modules it runs.

RNG_ALGORITHM = "numpy-PCG64"

# geodesic gate: the separated residual follows the integrator's accumulated
# global error, not its per-step tolerance (about 2.6 tol at the defaults)
SEP_RESIDUAL_PER_TOL = 1e3
# geodesic gate on the drifts of the Hamiltonian p and the Carter constant K
DRIFT_TOL = 1e-8
# the trapped orbit: (Phi, Psi) at E = 1, and its persistence window in t
TRAPPED_PHI_HAT, TRAPPED_PSI_HAT = 0.1, -0.05
TRAPPED_WINDOW = 30.0
# the accepted band of the convergence study's fitted field order
ORDER_BAND = (1.8, 2.2)
# the boundary clause as the paper pins it: C and r_e / r_s
C_PINNED, R_E_PINNED = 100.0, 0.95


class ConfigError(ValueError):
    pass


def _verdict(checks):
    """(status, witnesses) from {check: (passed, compared values)}: one
    witness per failed check, naming it and the values it compared."""
    witnesses = [{"check": name, **values}
                 for name, (passed, values) in checks.items() if not passed]
    return not witnesses, witnesses


def _profile(cfg):
    from .multiplier import build_profiles
    sp = SchwParams(**cfg["schw"])
    return sp, build_profiles(sp, **cfg["mult"])


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def task_geodesic(cfg, rng, outdir):
    from .geometry import inverse_metric_components, inverse_metric_form
    from .geodesic import (Covector, PhasePoint, null_Xi, integrate_geodesic,
                           trapped_sphere)
    params = BlackHoleParams(**cfg["params"])
    blk = cfg["geodesic"]
    tol, init = blk["tol"], blk["init"]
    Xi = null_Xi(params, init["x"], init["theta"], init["tau"],
                 init["Theta"], init["Phi"], init["Psi"], sign=init["sign"])
    pp = PhasePoint(t=0.0, x=init["x"], theta=init["theta"], phi=0.0, psi=0.0,
                    momentum=Covector(tau=init["tau"], Xi=Xi, Theta=init["Theta"],
                                      Phi=init["Phi"], Psi=init["Psi"]))
    traj = integrate_geodesic(params, pp, blk["span"], tol=tol, x_escape=blk["x_escape"])
    metrics = {
        "termination": traj.termination,
        "p_drift": traj.p_drift, "K_drift": traj.K_drift,
        "separated_residual": traj.sep_residual,
    }
    traj.export_csv(os.path.join(outdir, "trajectory.csv"))
    sep_gate = SEP_RESIDUAL_PER_TOL * tol
    checks = {
        "p_drift": (traj.p_drift < DRIFT_TOL,
                    {"p_drift": traj.p_drift, "bound": DRIFT_TOL}),
        "K_drift": (traj.K_drift < DRIFT_TOL,
                    {"K_drift": traj.K_drift, "bound": DRIFT_TOL}),
        "separated_residual": (traj.sep_residual < sep_gate,
                               {"separated_residual": traj.sep_residual,
                                "bound": sep_gate}),
    }

    if blk["trapped"]:
        E, Ph, Ps = 1.0, TRAPPED_PHI_HAT, TRAPPED_PSI_HAT
        ts = trapped_sphere(params, Ph, Ps)
        th0 = 1.0
        g = inverse_metric_components(params, ts.x0, th0)
        rest = inverse_metric_form(g, -E, 0.0, 0.0, Ph, Ps)
        Th0 = math.sqrt(-rest / g[7])
        ppt = PhasePoint(t=0.0, x=ts.x0, theta=th0, phi=0.0, psi=0.0,
                         momentum=Covector(tau=-E, Xi=0.0, Theta=Th0, Phi=Ph, Psi=Ps))
        # The unstable photon-sphere mode grows at lambda ~ 0.71/r_s in
        # coordinate time, so double-precision seeds (>= 1e-16) depart the
        # 1e-3 tube by t ~ 42 r_s at best; the persistence window asserted
        # here is derived from the measured rate, and the literal 50 r_s
        # window is reported as a flag.
        trj = integrate_geodesic(params, ppt, 200.0, tol=1e-12,
                                 n_samples=4000)
        tvals = trj.states[0]
        rvals = np.sqrt(trj.states[1])
        r0 = math.sqrt(ts.x0)
        dev = np.abs(rvals - r0)
        window = TRAPPED_WINDOW
        dev_w = float(np.max(dev[tvals <= window])) if np.any(tvals <= window) else math.inf
        dev_50 = float(np.max(dev[tvals <= 50.0])) if np.any(tvals <= 50.0) else math.inf
        sel = (dev > 1e-9) & (dev < 1e-2)
        lam = float(np.polyfit(tvals[sel], np.log(dev[sel]), 1)[0]) if sel.sum() > 10 else math.nan
        metrics["trapped_x0"] = ts.x0
        metrics["trapped_deviation_window"] = dev_w
        metrics["trapped_window"] = window
        metrics["trapped_deviation_t50"] = dev_50
        metrics["literal_t50_met"] = bool(dev_50 < 1e-3 * params.r_s)
        metrics["instability_rate"] = lam
        metrics["trapped_departure"] = trj.termination
        checks["trapped_persistence"] = (
            dev_w < 1e-3 * params.r_s,
            {"trapped_deviation_window": dev_w, "bound": 1e-3 * params.r_s,
             "trapped_window": window})
        checks["trapped_departure"] = (
            trj.termination in ("horizon", "escaped"),
            {"termination": trj.termination})
    status, witnesses = _verdict(checks)
    return status, metrics, witnesses


def task_trapped_scan(cfg, rng, outdir):
    from .csvtable import write_csv
    from .trapping import R_ab_dx, trapped_radius_vec, measure_cone_constant
    params = BlackHoleParams(**cfg["params"])
    n, cone = cfg["trapped_scan"]["n_samples"], cfg["trapped_scan"]["cone"]
    taus = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    Phis = rng.uniform(-cone, cone, n)
    Psis = rng.uniform(-cone, cone, n)
    r_t, iters = trapped_radius_vec(params, taus, Phis, Psis)
    ok = np.isfinite(r_t)
    dRdr = R_ab_dx(params, r_t[ok] ** 2, taus[ok], Phis[ok], Psis[ok]) * 2 * r_t[ok]
    rows = np.column_stack([np.full(ok.sum(), params.a), np.full(ok.sum(), params.b),
                            taus[ok], Phis[ok], Psis[ok], r_t[ok], dRdr, iters[ok]])
    write_csv(os.path.join(outdir, "trapped_scan.csv"),
              "a,b,tau,Phi,Psi,r_trapped,dR_dr,newton_iters", rows)
    C_mp = measure_cone_constant(params, rng)
    static = abs(params.a) < 1e-15 and abs(params.b) < 1e-15
    metrics = {
        "n_converged": int(ok.sum()), "n_samples": n,
        "r_trapped_min": float(np.min(r_t[ok])),
        "r_trapped_max": float(np.max(r_t[ok])),
        "dR_dr_abs_min": float(np.min(np.abs(dRdr))),
        "C_mp": C_mp,
    }
    checks = {"all_converged": (bool(ok.all()),
                                {"n_converged": int(ok.sum()), "n_samples": n})}
    if static:
        dev = float(np.max(np.abs(r_t[ok] - math.sqrt(2.0) * params.r_s)))
        metrics["static_deviation"] = dev
        checks["static_photon_sphere"] = (
            dev < 1e-12, {"static_deviation": dev, "bound": 1e-12})
    status, witnesses = _verdict(checks)
    return status, metrics, witnesses


def task_multiplier_verify(cfg, rng, outdir):
    from .csvtable import write_csv
    from .chart import ingoing_chart
    from .quadform import (MultiplierTriple, check_positivity, build_redshift,
                           integrated_smallness, boundary_forms,
                           demo_boundary_parameters, zeroth_order_n, positivity_grid)
    sp, prof = _profile(cfg)
    chart = ingoing_chart(sp, cfg["r_e"], cfg["r_max"])
    triple = MultiplierTriple(profile=prof, chart=chart)
    metrics = {"N": prof.N, "eps": prof.eps, "delta": prof.delta,
               "delta1": prof.delta1, "achieved_match": prof.achieved_match}

    # profile inequalities on the verification windows
    r_mono = np.linspace(sp.r_s + 1e-3 * sp.r_s, 20 * sp.r_s, 2000)
    Fp = prof.F_jet(r_mono)[1]
    metrics["F_prime_min"] = float(np.min(Fp))
    r_lw = np.linspace(sp.r_s + 0.01 * sp.r_s, 10 * sp.r_s, 2000)
    lF = prof.lf(r_lw, prof.F_jet(r_lw))
    metrics["lF_min"] = float(np.min(lF))
    metrics["lF_argmin"] = float(r_lw[np.argmin(lF)])

    nrep = build_redshift(triple)
    metrics.update({"n_min": nrep["n_min"], "n_argmin": nrep["n_argmin"],
                    "X_dr_at_rs": nrep["X_dr_at_rs"], "m_dr_at_rs": nrep["m_dr_at_rs"]})

    n_grid = cfg["multiplier"]["n_grid"]
    pos = check_positivity(triple, n_grid=n_grid)
    pos2 = check_positivity(triple, n_grid=2 * n_grid)
    metrics["c_star"] = pos["c_star"]
    metrics["c_star_refined"] = pos2["c_star"]
    metrics["c_star_min_r"] = pos["min_r"]
    stab = abs(pos2["c_star"] - pos["c_star"]) / abs(pos["c_star"])
    metrics["c_star_grid_stability"] = stab

    I_val, parts = integrated_smallness(prof, chart.r_e)
    metrics["smallness_integral"] = I_val
    metrics["smallness_vs_delta"] = I_val / prof.delta

    bf = boundary_forms(triple, C_PINNED, R_E_PINNED * sp.r_s)
    metrics["boundary_at_pinned"] = {k: bf[k] for k in
                                ("kappa", "slice_min_eig", "lateral_min_eig",
                                 "C_energy", "r_e")}
    try:
        C_demo, r_demo = demo_boundary_parameters(triple)
        bd = boundary_forms(triple, C_demo, r_demo)
        metrics["boundary_feasible"] = {k: bd[k] for k in
                                        ("kappa", "slice_min_eig",
                                         "lateral_min_eig", "C_energy", "r_e")}
        feasible = (bd["lateral_min_eig"] > 0 and bd["slice_min_eig"] > 0,
                    {"slice_min_eig": bd["slice_min_eig"],
                     "lateral_min_eig": bd["lateral_min_eig"], "bound": 0.0})
    except Exception as exc:
        feasible = (False, {"error": str(exc)})

    # profile table artifact
    grid = positivity_grid(sp, chart.r_e, 10 * sp.r_s, 600)
    ing = triple.ingredients(grid)
    f, q1, q2, b, gam = (ing[k][0] for k in ("f", "q1", "q2", "b", "gam"))
    F = np.full_like(grid, np.nan)
    f1 = np.full_like(grid, np.nan)
    lFv = np.full_like(grid, np.nan)
    above = grid > sp.r_s * (1 + 1e-12)
    F_above = prof.F_jet(grid[above])
    F[above] = F_above[0]
    f1[above] = prof.f1_jet(grid[above])[0]
    lFv[above] = prof.lf(grid[above], F_above)
    nvals = zeroth_order_n(triple, ing)
    lfv = prof.lf(grid, ing["f"])
    write_csv(os.path.join(outdir, "profiles.csv"), "r,f,F,f1,q1,q2,b_red,gamma,n,lF,lf",
              np.column_stack([grid, f, F, f1, q1, q2, b, gam, nvals, lFv, lfv]))
    with open(os.path.join(outdir, "positivity.json"), "w") as fh:
        json.dump({"c_star": pos["c_star"], "min_r": pos["min_r"],
                   "min_eigvec": pos["min_eigvec"], "grid": pos["grid_points"],
                   "params": {"eps": prof.eps, "delta": prof.delta,
                              "delta1": prof.delta1, "alpha_cap": prof.alpha_cap,
                              "N": prof.N}},
                  fh, indent=1, sort_keys=True)

    Fp_min, lF_min, n_min, c_star = (metrics["F_prime_min"], metrics["lF_min"],
                                     nrep["n_min"], pos["c_star"])
    status, witnesses = _verdict({
        "F_prime_positive": (Fp_min > 0, {"F_prime_min": Fp_min, "bound": 0.0}),
        "lF_positive": (lF_min > 0, {"lF_min": lF_min, "bound": 0.0}),
        "n_positive": (n_min > 0, {"n_min": n_min, "bound": 0.0}),
        "c_star_positive": (c_star > 0, {"c_star": c_star, "bound": 0.0}),
        "c_star_grid_stability": (stab < 0.01,
                                  {"c_star_grid_stability": stab, "bound": 0.01}),
        "smallness": (I_val < prof.delta / 2.0,
                      {"smallness_integral": I_val, "bound": prof.delta / 2.0}),
        "boundary_feasible": feasible,
    })
    pinned_targets = {"kappa_lt_10": bf["kappa"] < 10.0,
                    "lateral_pd_at_0p95": bf["lateral_min_eig"] > 0}
    metrics["pinned_boundary_targets_met"] = pinned_targets
    metrics["pinned_boundary_note"] = (
        f"boundary-flux positivity at C={C_PINNED:g}, r_e={R_E_PINNED:g} r_s is "
        "unattainable for the bounded (saturated) multiplier family; see project notes. The "
        "mechanism is verified at the derived feasible parameters instead.")
    if not all(pinned_targets.values()):
        witnesses.append({"check": "pinned_boundary_targets",
                          "kappa": bf["kappa"],
                          "lateral_min_eig": bf["lateral_min_eig"]})
    return status, metrics, witnesses


def task_sos_verify(cfg, rng, outdir):
    from .csvtable import write_csv
    from .trapping import SOS_WINDOW
    from .sos import (SchwSos, MpSos, schw_sos_scan, mp_bracket_scan,
                      mu_lower_bound, mu_samples, rotation_symbols_vec, lambda2)
    sp, prof = _profile(cfg)
    blk = cfg["sos"]
    params = BlackHoleParams(**cfg["params"])
    n, eps0 = blk["n_samples"], blk["eps0"]
    sos = SchwSos(profile=prof)
    rs = sp.r_s

    # every draw is made here, in the serial stream order, before the fork
    r = rng.uniform(SOS_WINDOW[0] * rs, SOS_WINDOW[1] * rs, n)
    th = rng.uniform(0.3, math.pi / 2 - 0.3, n)
    tau, xi, Th, Ph, Ps = rng.standard_normal((5, n))
    phi, psi = rng.uniform(0, 2 * math.pi, n), rng.uniform(0, 2 * math.pi, n)
    nb = blk["n_bracket"]
    rb = rng.uniform(SOS_WINDOW[0] * rs, SOS_WINDOW[1] * rs, nb)
    thb = rng.uniform(0.3, math.pi / 2 - 0.3, nb)
    xib, Thb, Phb, Psb = rng.standard_normal((4, nb))
    brb = rng.integers(0, 2, nb)
    # the calibration samples come from a child stream of the run seed
    # (SeedSequence spawn key 0)
    mu_rng = rng.spawn(1)[0]

    def bracket():
        """The rotating bracket's metrics; writes bracket_scan.csv."""
        res = mp_bracket_scan(MpSos(params=params, sos=sos), rb, thb, xib, Thb, Phb,
                              Psb, brb)
        okb = res["ok"]
        rows = np.arange(0, nb, max(1, nb // 2000))
        rows = rows[okb[rows]]
        cols = [rb, thb, xib, Thb, Phb, Psb] + [res[k] for k in ("tau", "bracket", "alpha2",
                                                                  "beta2", "r_trap")]
        write_csv(os.path.join(outdir, "bracket_scan.csv"),
                  "r,theta,xi,Theta,Phi,Psi,tau,bracket,alpha2,beta2,r_trap",
                  np.column_stack(cols)[rows])
        return {"bracket_min": float(np.min(res["bracket"][okb])),
                "alpha2_min": float(np.min(res["alpha2"][okb])),
                "beta2_min": float(np.min(res["beta2"][okb])),
                "bracket_samples": int(okb.sum())}

    def static_and_kappa():
        """The static identity's, the lambda identity's and the kappa
        calibration's metrics."""
        out = schw_sos_scan(sos, r, th, tau, xi, Th, Ph, Ps)
        lam_err = np.abs(np.sum(rotation_symbols_vec(th, Th, Ph, Ps, phi, psi)**2, axis=0)
                         - lambda2(th, Th, Ph, Ps))
        # one calibration sample set and its radial jets, shared by every eps0
        samples = mu_samples(tuple(blk["region"]), mu_rng, blk["n_mu"])
        jets = sos.jets(samples[0])
        mu_reports = {}
        env = {}
        for e0 in blk["eps0_scan"]:
            pr_e = BlackHoleParams(r_s=params.r_s, a=0.6 * e0 * params.r_s,
                                   b=0.6 * e0 * params.r_s)
            rep = mu_lower_bound(MpSos(params=pr_e, sos=sos), e0, samples, jets)
            mu_reports[f"{e0:g}"] = rep
            env[e0] = rep["envelope"]
        e_keys = sorted(env)
        return {"schw_residual_max": float(out["residual"].max()),
                "nu_range": [float(out["nu"].min()), float(out["nu"].max())],
                "lambda_identity_max_err": float(np.max(lam_err)),
                "mu": mu_reports[f"{eps0:g}"],
                "envelope_scan": {f"{k:g}": v for k, v in env.items()},
                "envelope_doubling_ratios": [env[e_keys[i + 1]] / env[e_keys[i]]
                                             for i in range(len(e_keys) - 1)]}

    # the bracket scan runs in a forked child beside the rest
    from .forked import beside
    bracket_metrics, metrics = beside(bracket, static_and_kappa)
    metrics.update(bracket_metrics)

    res_max, lam_err = metrics["schw_residual_max"], metrics["lambda_identity_max_err"]
    nu_lo, nu_hi = metrics["nu_range"]
    br, a2, b2 = metrics["bracket_min"], metrics["alpha2_min"], metrics["beta2_min"]
    kappa, lin = metrics["mu"]["kappa"], metrics["envelope_doubling_ratios"]
    status, witnesses = _verdict({
        "schw_residual": (res_max <= 1e-8, {"schw_residual_max": res_max, "bound": 1e-8}),
        "nu_positive": (0.0 < nu_lo, {"nu_min": nu_lo, "bound": 0.0}),
        "nu_below_one": (nu_hi < 1.0, {"nu_max": nu_hi, "bound": 1.0}),
        "lambda_identity": (lam_err <= 1e-12,
                            {"lambda_identity_max_err": lam_err, "bound": 1e-12}),
        "bracket_nonnegative": (br >= -1e-10, {"bracket_min": br, "bound": -1e-10}),
        "alpha2_positive": (a2 > 0, {"alpha2_min": a2, "bound": 0.0}),
        "beta2_positive": (b2 > 0, {"beta2_min": b2, "bound": 0.0}),
        "kappa_positive": (kappa > 0, {"kappa": kappa, "bound": 0.0}),
        "envelope_doubling": (all(1.0 <= ratio <= 4.0 for ratio in lin),
                              {"envelope_doubling_ratios": lin, "band": [1.0, 4.0]}),
    })
    return status, metrics, witnesses


def task_wave_evolve(cfg, rng, outdir):
    from .csvtable import write_csv
    from .chart import ingoing_chart
    from .wavesolver import (SolverDomain, assemble_mode, evolve, diagnostics,
                             SliceDiagnostics, gaussian_bump, export_energy_csv,
                             export_norm_json)
    sp = SchwParams(**cfg["schw"])
    blk = cfg["wave"]
    dom = SolverDomain(r_e=blk["r_e"], r_max=blk["r_max"], n_r=blk["n_r"], l=blk["l"],
                       T=blk["T"], cfl=blk["cfl"])
    chart = ingoing_chart(sp, dom.r_e, dom.r_max)
    op = assemble_mode(sp, chart, dom)
    data = blk["data"]
    r = dom.grid()
    v0 = gaussian_bump(r, data["center"], data["width"], data["amplitude"])
    fblk = blk["forcing"]
    if fblk["type"] == "none":
        forcing = None
    else:
        famp, ft0, fts = fblk["amplitude"], fblk["t_center"], fblk["t_width"]
        # evolve passes op.r, which is this task's grid r
        bump = gaussian_bump(r, fblk["center"], fblk["width"])

        def forcing(t, rr):
            return famp * math.exp(-((t - ft0) / fts) ** 2) * bump
    # each sampled slice is folded into the diagnostics as it comes; only the
    # snapshot rows, if asked for, are kept
    acc = SliceDiagnostics(op)
    rows = []

    def acc_and_rows(t, v, W):
        acc(t, v, W)
        rows.append(v[::8].copy())
    hist = evolve(op, v0, np.zeros_like(v0), forcing=forcing,
                  observe=acc_and_rows if blk["snapshots"] else acc)
    if blk["snapshots"]:
        write_csv(os.path.join(outdir, "snapshots.csv"),
                  "vtilde," + ",".join(f"r={ri:.6f}" for ri in r[::8]),
                  np.column_stack([acc.times, rows]), fmt="%.10e")
    erep, nrep = diagnostics(hist, acc)
    export_energy_csv(os.path.join(outdir, "energy.csv"), erep,
                      np.asarray(hist.lateral_times),
                      np.asarray(hist.lateral_density))
    export_norm_json(os.path.join(outdir, "norms.json"), erep, nrep,
                     extra={"l": dom.l, "n_r": dom.n_r, "T": dom.T})
    # a bump that is nonzero on the grid can still carry an energy that
    # underflows to 0: then there is no ratio to report
    E0_positive = erep.E_initial > 0
    metrics = {"E_initial": erep.E_initial, "sup_E": erep.sup_E,
               "E_lateral": erep.E_lateral,
               "C_obs": erep.sup_E / erep.E_initial if E0_positive else None,
               "lateral_min_integrand": erep.lateral_min_integrand,
               "LE1_sq": nrep.LE1_sq, "l": dom.l, "n_r": dom.n_r}
    status, witnesses = _verdict({
        "E_initial_positive": (E0_positive, {"E_initial": erep.E_initial, "bound": 0.0}),
        "LE1_finite": (math.isfinite(nrep.LE1_sq), {"LE1_sq": nrep.LE1_sq}),
        "lateral_flux_nonnegative": (
            erep.lateral_min_integrand >= 0,
            {"lateral_min_integrand": erep.lateral_min_integrand}),
        "energy_bounded": (erep.sup_E <= 10 * erep.E_initial,
                           {"sup_E": erep.sup_E, "E_initial": erep.E_initial,
                            "bound": 10 * erep.E_initial}),
    })
    return status, metrics, witnesses


def task_convergence(cfg, rng, outdir):
    from .chart import ingoing_chart
    from .wavesolver import SolverDomain, convergence_study
    sp = SchwParams(**cfg["schw"])
    blk = cfg["convergence"]
    base = SolverDomain(r_e=blk["r_e"], r_max=blk["r_max"], n_r=blk["n_r"], l=blk["l"],
                        T=blk["T"])
    chart = ingoing_chart(sp, base.r_e, base.r_max)
    res = convergence_study(sp, chart, base, blk["center"], blk["width"],
                            levels=blk["levels"])
    metrics = dict(res)
    lo, hi = ORDER_BAND
    fit = res["field_order_fit"]
    # the pairwise orders and the errors show whether the levels were still
    # pre-asymptotic
    status, witnesses = _verdict({"field_order": (
        lo <= fit <= hi, {"field_order_fit": fit, "band": [lo, hi],
                          "field_orders": res["field_orders"],
                          "field_errors": res["field_errors"]})})
    return status, metrics, witnesses


TASKS = {
    "geodesic": task_geodesic,
    "trapped-scan": task_trapped_scan,
    "multiplier-verify": task_multiplier_verify,
    "sos-verify": task_sos_verify,
    "wave-evolve": task_wave_evolve,
    "convergence": task_convergence,
}

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
# CONFIG maps each key to (kind, test, default) and each block to its own
# table.  `kind` converts a JSON value or raises ValueError, `test` is
# (predicate, text) or None, and a callable default is derived from the
# filled config after the walk, in table order.  A key whose default is null
# also takes null, so a filled config validates to itself.

def _number(val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError("is not a number")
    try:
        return float(val)
    except OverflowError:                  # an int past float
        raise ValueError("is not a number") from None


def _integer(val):
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValueError("is not an integer")
    return val


def _numbers(val):
    if isinstance(val, list):
        try:
            return [_number(v) for v in val]
        except ValueError:
            pass
    raise ValueError("is not a list of numbers")


def _instance(kind, text):
    def convert(val):
        if not isinstance(val, kind):
            raise ValueError(f"is not {text}")
        return val
    return convert


_flag, _text = _instance(bool, "true or false"), _instance(str, "a string")


POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")
FINITE = (math.isfinite, "finite")
# a zero data amplitude gives a zero initial energy, a zero forcing one no forcing
NONZERO_FINITE = (lambda v: v != 0 and math.isfinite(v), "nonzero and finite")


def _at_least(n):
    return lambda v: v >= n, f"at least {n}"


def _one_of(*allowed):
    return lambda v: v in allowed, f"one of {allowed}"


def _r_s_times(k):
    return lambda cfg: k * cfg["schw"]["r_s"]


BUMP = {"center": (_number, FINITE, 3.0), "width": (_number, POSITIVE_FINITE, 0.8)}
CONFIG = {
    "seed": (_integer, _at_least(0), 0),
    "out": (_text, None, None),
    # multiplier-verify's chart
    "r_e": (_number, POSITIVE_FINITE, _r_s_times(0.95)),
    "r_max": (_number, POSITIVE_FINITE, _r_s_times(60.0)),
    "params": {"r_s": (_number, POSITIVE_FINITE, 1.0),
               "a": (_number, FINITE, 0.0), "b": (_number, FINITE, 0.0)},
    # only the (4+1)-dimensional hole is implemented
    "schw": {"r_s": (_number, POSITIVE_FINITE, 1.0), "d": (_integer, _one_of(1), 1)},
    "mult": {"alpha_cap": (_number, (lambda v: 0 < v < 5, "in (0, 5)"), MULT_ALPHA_CAP),
             "eps": (_number, POSITIVE_FINITE, MULT_EPS),
             "delta": (_number, POSITIVE_FINITE, MULT_DELTA),
             "delta1": (_number, POSITIVE_FINITE, MULT_DELTA1),
             "eps_match": (_number, POSITIVE_FINITE, MULT_EPS_MATCH)},
    "geodesic": {"tol": (_number, POSITIVE_FINITE, 1e-10),
                 "span": (_number, POSITIVE_FINITE, 1000.0),
                 "x_escape": (_number, POSITIVE_FINITE, 1e8),
                 "trapped": (_flag, None, True),
                 # a NaN here makes every step of the flow NaN
                 "init": {"x": (_number, FINITE, 3.0), "theta": (_number, FINITE, 1.0),
                          "tau": (_number, FINITE, -1.0), "Theta": (_number, FINITE, 0.2),
                          "Phi": (_number, FINITE, 0.1), "Psi": (_number, FINITE, -0.05),
                          "sign": (_integer, _one_of(1, -1), 1)}},
    "trapped_scan": {"n_samples": (_integer, _at_least(1), 400),
                     "cone": (_number, POSITIVE_FINITE, 0.25)},
    "multiplier": {"n_grid": (_integer, _at_least(1), 2000)},
    "sos": {"n_samples": (_integer, _at_least(1), 10000),
            "n_bracket": (_integer, _at_least(1), 100000),
            "n_mu": (_integer, _at_least(1), 20000),
            "eps0": (_number, POSITIVE_FINITE, 0.05),
            "eps0_scan": (_numbers, (lambda v: v and all(0 < e < math.inf for e in v),
                                     "a non-empty list of positive finite numbers"),
                          lambda cfg: [cfg["sos"]["eps0"] / 4, cfg["sos"]["eps0"] / 2,
                                       cfg["sos"]["eps0"]]),
            # (r_lo, r_hi, theta_lo, theta_hi) of the calibration samples
            "region": (_numbers, (lambda v: len(v) == 4 and all(map(math.isfinite, v)),
                                  "four finite numbers"),
                       lambda cfg: [1.35 * cfg["schw"]["r_s"], 1.50 * cfg["schw"]["r_s"],
                                    0.3, math.pi / 2 - 0.3])},
    "wave": {"r_e": (_number, POSITIVE_FINITE, _r_s_times(0.9)),
             "r_max": (_number, POSITIVE_FINITE, _r_s_times(60.0)),
             "dr": (_number, POSITIVE_FINITE, 0.05),
             # the sixth-difference dissipation stencil needs 7 grid points
             "n_r": (_integer, _at_least(7),
                     lambda cfg: int(round((cfg["wave"]["r_max"] - cfg["wave"]["r_e"])
                                           / cfg["wave"]["dr"])) + 1),
             "l": (_integer, _at_least(0), 0),
             "T": (_number, POSITIVE_FINITE, 50.0),
             "cfl": (_number, POSITIVE_FINITE, WAVE_CFL),
             "snapshots": (_flag, None, False),
             "data": {"type": (_text, _one_of("bump"), "bump"), **BUMP,
                      "amplitude": (_number, NONZERO_FINITE, 1.0)},
             # a forcing bump has no default place: center and width are
             # required when type is bump
             "forcing": {"type": (_text, _one_of("none", "bump"), "none"),
                         "center": (_number, FINITE, None),
                         "width": (_number, POSITIVE_FINITE, None),
                         "amplitude": (_number, NONZERO_FINITE, 1.0),
                         "t_center": (_number, FINITE, 5.0),
                         "t_width": (_number, POSITIVE_FINITE, 2.0)}},
    "convergence": {"r_e": (_number, POSITIVE_FINITE, _r_s_times(0.9)),
                    "r_max": (_number, POSITIVE_FINITE, _r_s_times(30.0)),
                    "n_r": (_integer, _at_least(7), 400),
                    "T": (_number, POSITIVE_FINITE, 12.0),
                    # the order fit needs at least two pairwise errors
                    "levels": (_integer, _at_least(3), 4),
                    "l": (_integer, _at_least(0), 0),
                    **BUMP},
}


def _check(name, value, kind, test):
    """value converted by kind; ConfigError unless it converts and passes test."""
    try:
        val = kind(value)
    except ValueError as exc:
        raise ConfigError(f"{name} = {value!r} {exc}") from None
    if test is not None and not test[0](val):
        raise ConfigError(f"{name} = {value!r} must be {test[1]}")
    return val


def _fill(table, given, path, derived):
    """Copy of `given` checked against `table` with the defaults filled in;
    each derived default is left to the caller in `derived`."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'} = {given!r} must be an object")
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys{' in ' + path if path else ''}: {unknown}")
    out = {}
    for key, spec in table.items():
        name = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _fill(spec, given.get(key, {}), name, derived)
        elif key in given and not (given[key] is None and spec[2] is None):
            out[key] = _check(name, given[key], *spec[:2])
        elif callable(spec[2]):
            derived.append((out, key, name, spec))
        else:
            out[key] = spec[2]
    return out


def validate_config(cfg):
    """A new dict: cfg checked against CONFIG with every default filled in.
    ConfigError for an unknown key at any depth, a value of the wrong kind or
    out of range, or a broken rule between keys."""
    derived = []
    full = _fill(CONFIG, cfg, "", derived)
    for block, key, name, (kind, test, default) in derived:
        block[key] = _check(name, default(full), kind, test)
    r_s = full["schw"]["r_s"]
    # the inner boundary lies inside the horizon, the outer one outside
    for name, blk in (("config", full), ("wave", full["wave"]),
                      ("convergence", full["convergence"])):
        if not blk["r_e"] < r_s < blk["r_max"]:
            raise ConfigError(f"{name}: r_e = {blk['r_e']!r}, r_max = {blk['r_max']!r} "
                              f"must satisfy r_e < r_s = {r_s!r} < r_max")
    sos = full["sos"]
    # the task reports the calibration at eps0 from the scan
    if f"{sos['eps0']:g}" not in {f"{e:g}" for e in sos["eps0_scan"]}:
        raise ConfigError(f"sos.eps0_scan = {sos['eps0_scan']!r} must hold "
                          f"sos.eps0 = {sos['eps0']:g}")
    forcing = full["wave"]["forcing"]
    if forcing["type"] == "bump" and None in (forcing["center"], forcing["width"]):
        raise ConfigError("wave.forcing.center and wave.forcing.width are required "
                          "for a bump forcing")
    try:
        BlackHoleParams(**full["params"])
    except NakedSingularity as exc:
        raise ConfigError(str(exc)) from None
    return full


def _check_task_rules(task, full):
    """ConfigError for a broken rule between keys that only `task` (or
    `all`) reads."""
    if task in ("sos-verify", "all") and full["params"]["r_s"] != full["schw"]["r_s"]:
        # sos-verify builds the profile on `schw` and the bracket and kappa
        # calibration on `params`: both must be one hole
        raise ConfigError(f"params.r_s = {full['params']['r_s']!r} and schw.r_s = "
                          f"{full['schw']['r_s']!r} must be equal for sos-verify")
    if task in ("geodesic", "all"):
        # the geodesic starts off the poles and outside the horizon
        from .geometry import ChartPoint, check_point
        init = full["geodesic"]["init"]
        try:
            check_point(BlackHoleParams(**full["params"]),
                        ChartPoint(t=0.0, x=init["x"], theta=init["theta"]))
        except CoordinateSingularity as exc:
            raise ConfigError(f"geodesic.init: {exc}") from None
    # an initial bump must be nonzero somewhere on its grid; the convergence
    # levels refine the coarsest grid, so that grid decides
    from .smooth import gaussian_bump
    for reader, name, blk, data in (
            ("wave-evolve", "wave.data", full["wave"], full["wave"]["data"]),
            ("convergence", "convergence", full["convergence"], full["convergence"])):
        if task not in (reader, "all"):
            continue
        grid = np.linspace(blk["r_e"], blk["r_max"], blk["n_r"])
        if not np.any(gaussian_bump(grid, data["center"], data["width"],
                                    data.get("amplitude", 1.0))):
            raise ConfigError(f"{name}: the bump at center = {data['center']!r} of width "
                              f"{data['width']!r} is zero on all {blk['n_r']} grid points "
                              f"in [{blk['r_e']!r}, {blk['r_max']!r}]")


def run(task, cfg, outdir, seed):
    """Validate cfg and seed and dispatch one task (or 'all') on the filled
    config; returns the report dict, whose config_echo is cfg as given."""
    full = validate_config(cfg)
    seed = _check("seed", seed, *CONFIG["seed"][:2])
    _check_task_rules(task, full)
    os.makedirs(outdir, exist_ok=True)
    t0 = time.time()
    if task == "all":
        sub = {}
        witnesses = []
        status = True
        for name in TASKS:
            sub_out = os.path.join(outdir, name)
            rep = run(name, cfg, sub_out, seed)
            emit(rep, sub_out)
            sub[name] = {"status": rep["status"], "metrics": rep["metrics"]}
            witnesses += [{"task": name, **w} for w in rep["witnesses"]]
            status = status and rep["status"] == "pass"
        report = {"task": "all", "status": "pass" if status else "fail",
                  "metrics": sub, "witnesses": witnesses}
    else:
        rng = np.random.default_rng(seed)
        try:
            ok, metrics, witnesses = TASKS[task](full, rng, outdir)
            report = {"task": task, "status": "pass" if ok else "fail",
                      "metrics": metrics, "witnesses": witnesses}
        except Exception as exc:
            import traceback
            # the innermost frames, by file basename so that reports do not
            # depend on where the package is installed
            frames = [f"{os.path.basename(f.filename)}:{f.lineno}:{f.name}"
                      for f in traceback.extract_tb(exc.__traceback__)[-3:]]
            report = {"task": task, "status": "fail", "metrics": {},
                      "witnesses": [{"error": str(exc), "type": type(exc).__name__,
                                     "frames": frames}]}
    report["config_echo"] = cfg
    report["seed"] = seed
    report["rng"] = RNG_ALGORITHM
    report["version"] = __version__
    report["wall_time_s"] = round(time.time() - t0, 3)
    return report


def _strict_json(obj):
    """Copy of obj with each non-finite float as the string "inf", "-inf" or
    "nan", which float() reads back."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return str(float(obj))
    return obj


def emit(report, outdir):
    """Write report.json as strict JSON (no NaN/Infinity tokens)."""
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(_strict_json(report), fh, indent=1, sort_keys=True,
                  default=float, allow_nan=False)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(prog="mptrap", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("task", choices=list(TASKS) + ["all"])
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        full = validate_config(cfg)
        seed = full["seed"] if args.seed is None else args.seed
        outdir = args.out or full["out"] or os.environ.get("MPTRAP_OUT", "mptrap-out")
        report = run(args.task, cfg, outdir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    path = emit(report, outdir)
    print(f"{report['task']}: {report['status']}  ({path})")
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
