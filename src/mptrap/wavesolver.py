"""Horizon-penetrating evolution of a single angular mode of the wave
equation on the (1+4)-dimensional static black hole.

The field is u = Y_l(omega) v(vtilde, r) with 3-sphere eigenvalue l(l+2).
In the chart with block metric [[-A, B], [B, D]] (inverse [[-D, B], [B, A]])
the wave operator reads

  Box v = g^vv v_tt + 2 B v_tr + r^{-3}(r^3 A v_r)_r + r^{-3}(r^3 B)_r v_t
          - l(l+2) v / r^2,      g^vv = -D,

which is solved for v_tt (g^vv is bounded away from zero: the slices are
uniformly spacelike).  Method of lines: second-order centered stencils in r
with one-sided closures at both ends (all characteristics leave through the
inner boundary, which lies inside the horizon; the outer boundary is
causally buffered), assembled once into one banded operator on (v, v_t),
stored as its 15 diagonals in ascending offset order; classical four-stage
Runge-Kutta in time, its stages formed in preallocated buffers.
"""

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .params import (SchwParams, AssemblyError, InstabilityError, InconclusiveConvergence,
                     WAVE_CFL)
from .chart import IngoingChart
from .csvtable import write_csv
from .smooth import gaussian_bump

# The stencils spread a precursor ahead of a compactly supported pulse whose
# tail decays through the subnormal range (below 2.2e-308), where x86
# arithmetic takes a slow microcode path.  evolve sets state entries below
# this floor to zero after every step; it is about 1e8 times the smallest
# normal double, so the stage products of floored entries stay normal.
SUBNORMAL_FLOOR = 1e-300
# strength of the sixth-difference dissipation
KO_SIGMA = 0.5


@dataclass
class SolverDomain:
    r_e: float
    r_max: float
    n_r: int
    l: int
    T: float
    cfl: float = WAVE_CFL
    sample_every: int = 8

    @property
    def dr(self):
        return (self.r_max - self.r_e) / (self.n_r - 1)

    def grid(self):
        return np.linspace(self.r_e, self.r_max, self.n_r)


@dataclass
class ModeOperator:
    sp: SchwParams
    dom: SolverDomain
    r: np.ndarray
    gi_vv: np.ndarray     # g^{vv}, the inverse block's vtilde-vtilde entry (negative)
    B: np.ndarray         # g^{vr}
    A: np.ndarray         # g^{rr}
    c1: np.ndarray        # r^{-3} (r^3 A)'
    cross0: np.ndarray    # r^{-3} (r^3 B)'
    eig: float            # l(l+2)
    dt: float             # RK4 step
    n_steps: int
    D1: "sparse.dia_array"  # d/dr, bands -2..2
    L: "sparse.dia_array"   # d/dt of the stacked (v, W), dissipation included;
                            # bands -n-3..-n+3, -3..3 and n, ascending


def _stencil(n, scale, centre, first=(), sign=1.0):
    """scale * (finite-difference stencil) as its bands at offsets -3..3, by
    row: entry [3 + o, i] is the weight of row i on column i + o.

    `centre` holds the weights at offsets -k..k, applied on rows k..n-1-k;
    `first` holds row 0's weights on columns 0, 1, ..., which row n-1
    mirrors times `sign`.  Rows covered by neither are zero.
    """
    bands = np.zeros((7, n))
    k = len(centre) // 2
    for off, w in enumerate(centre, start=-k):
        bands[3 + off, k:n - k] = scale * w
    for col, w in enumerate(first):
        bands[3 + col, 0] = scale * w
        bands[3 - col, n - 1] = sign * scale * w
    return bands


def _dia(bands, offsets):
    """dia_array of the square matrix with the given bands, held by row as in
    _stencil.  Each band is rolled in place to dia_array's layout, where entry
    (i, i + o) sits at position i + o; what wraps round lands on positions
    dia_array does not read, and the closure rows hold no entry outside the
    matrix, so those are zero anyway."""
    from scipy import sparse
    for band, off in zip(bands, offsets):
        band[:] = np.roll(band, off)
    return sparse.dia_array((bands, offsets), shape=(bands.shape[1],) * 2)


def assemble_mode(sp: SchwParams, chart: IngoingChart, dom: SolverDomain) -> ModeOperator:
    r = dom.grid()
    if r[0] < chart.r_e or r[-1] > chart.r_max:
        raise AssemblyError("chart does not cover the solver domain")
    gi_vv, B, A = chart.block_inverse(r)
    if np.any(gi_vv >= 0):
        raise AssemblyError("vtilde slices not uniformly spacelike on the grid")
    M, M1 = chart.mu_derivs(r)
    A1 = sp.A1(r)
    B1 = -(A1 * M + A * M1)
    c1 = A1 + 3.0 * A / r
    cross0 = B1 + 3.0 * B / r
    eig = float(dom.l * (dom.l + 2))
    # characteristic speeds 1/mu' and A/(2 - A mu') are bounded by 1
    n_steps = max(1, int(math.ceil(dom.T / (dom.cfl * dom.dr))))
    dt = dom.T / n_steps
    n, h = dom.n_r, dom.dr
    D1 = _stencil(n, 1.0 / (2 * h), (-1, 0, 1), first=(-3, 4, -1), sign=-1.0)
    D2 = _stencil(n, 1.0 / h**2, (1, -2, 1), first=(2, -5, 4, -1))
    # Sixth-difference Kreiss-Oliger dissipation stabilizes the one-sided
    # outflow closures; the operator is O(dr^5) consistent so second-order
    # accuracy is untouched even for sharply peaked data.
    ko = _stencil(n, KO_SIGMA / (64.0 * dt), (1, -6, 15, -20, 15, -6, 1))
    # L's bands in ascending offset order: the W-from-v block (-n-3..-n+3),
    # the v-from-v dissipation over the W-from-W block (-3..3), and the
    # identity v_t = W (n).  The DIA product adds the bands in stored order
    # into a zeroed output, so each row sums its entries in column order from
    # +0, as a CSR product of the same entries does; the padding zeros add
    # +-0, which leaves a finite sum unchanged.
    bands = np.zeros((15, 2 * n))
    # W_t = (eig v / r^2 - A v_rr - c1 v_r - 2 B W_r - cross0 W) / gi_vv
    L_Wv = bands[:7, n:]
    L_Wv[:] = (-A / gi_vv) * D2 + (-c1 / gi_vv) * D1
    L_Wv[3] += eig / r**2 / gi_vv
    L_WW = bands[7:14, n:]
    L_WW[:] = (-2.0 * B / gi_vv) * D1
    L_WW[3] += -cross0 / gi_vv
    L_WW += ko
    bands[7:14, :n] = ko
    bands[14, :n] = 1.0
    L = _dia(bands, np.r_[np.arange(-n - 3, -n + 4), np.arange(-3, 4), n])
    return ModeOperator(sp=sp, dom=dom, r=r, gi_vv=gi_vv, B=B, A=A, c1=c1,
                        cross0=cross0, eig=eig, dt=dt, n_steps=n_steps,
                        D1=_dia(D1[1:6], np.arange(-2, 3)), L=L)


def spatial_operator(op: ModeOperator, y, forcing=None):
    """d/dt of the stacked state y = (v, W): W plus dissipation, and the
    solved-for second time derivative, which takes forcing / gi_vv."""
    out = op.L @ y
    if forcing is not None:
        out[op.dom.n_r:] += forcing / op.gi_vv
    return out


@dataclass
class History:
    op: ModeOperator
    times: list = field(default_factory=list)
    v: list = field(default_factory=list)
    W: list = field(default_factory=list)
    lateral_density: list = field(default_factory=list)   # per accepted step
    lateral_times: list = field(default_factory=list)

    def record(self, t, v, W):
        """evolve's default observer: store a copy of the sampled slice."""
        snap = np.concatenate([v, W])     # v and W are views of one copy
        n = len(v)
        self.times.append(t)
        self.v.append(snap[:n])
        self.W.append(snap[n:])


def evolve(op: ModeOperator, v0, W0, forcing=None, observe=None) -> History:
    """Classical RK4 evolution of the stacked state (v, W) with per-step
    lateral-flux sampling.

    The state is sampled at t = 0, every `sample_every` steps and after the
    last step: `observe(t, v, W)` is called there with views of the live
    state, which the next step overwrites.  Without an observer the samples
    are stored in the returned History (`History.record`)."""
    dt = op.dt
    n = op.dom.n_r
    y = np.concatenate([np.asarray(v0, dtype=float), np.asarray(W0, dtype=float)])
    hist = History(op=op)
    if observe is None:
        observe = hist.record
    d1_0 = np.zeros(n)      # row 0 of D1, the one-sided v_r at the inner boundary
    for off, band in zip(op.D1.offsets, op.D1.data):
        if off >= 0:
            d1_0[off] = band[off]

    def lateral(vv, WW):
        return (float(d1_0 @ vv) ** 2 + WW[0] ** 2
                + op.eig * vv[0] ** 2 / op.r[0] ** 2) * op.r[0] ** 3

    observe(0.0, y[:n], y[n:])
    hist.lateral_times.append(0.0)
    hist.lateral_density.append(lateral(y[:n], y[n:]))

    def rhs(tt, yy):
        return spatial_operator(op, yy, None if forcing is None else forcing(tt, op.r))

    # y is updated in place; the later stages' states, |y| and the floor's
    # mask live in buffers of their own
    stage = np.empty_like(y)
    mag = np.empty_like(y)
    tiny = np.empty(y.shape, dtype=bool)

    def stage_at(h, kk):
        """y + h kk, formed in the stage buffer."""
        np.multiply(kk, h, out=stage)
        return np.add(stage, y, out=stage)

    for k in range(op.n_steps):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, stage_at(dt / 2, k1))
        k3 = rhs(t + dt / 2, stage_at(dt / 2, k2))
        k4 = rhs(t + dt, stage_at(dt, k3))
        # y += dt/6 (((k1 + 2 k2) + 2 k3) + k4), summed in k1
        k2 *= 2
        k1 += k2
        k3 *= 2
        k1 += k3
        k1 += k4
        k1 *= dt / 6
        y += k1
        np.abs(y, out=mag)
        if not mag[:n].max() <= 1e100:      # NaN fails the comparison
            raise InstabilityError(f"NaN/overflow at step {k + 1} (t = {t + dt})")
        np.less(mag, SUBNORMAL_FLOOR, out=tiny)
        np.copyto(y, 0.0, where=tiny)
        hist.lateral_times.append(t + dt)
        hist.lateral_density.append(lateral(y[:n], y[n:]))
        if (k + 1) % op.dom.sample_every == 0 or k == op.n_steps - 1:
            observe(t + dt, y[:n], y[n:])
    return hist


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    times: np.ndarray
    E_slice: np.ndarray
    E_initial: float
    E_lateral: float
    sup_E: float
    lateral_min_integrand: float


@dataclass
class NormReport:
    LE1_sq: float
    dyadic: dict
    lower_order_sq: float


def slice_energy(op: ModeOperator, v, W, v_r=None):
    """Energy of one slice; `v_r` is op.D1 @ v when the caller already
    holds it."""
    if v_r is None:
        v_r = op.D1 @ v
    dens = (v_r**2 + W**2 + op.eig * v**2 / op.r**2) * op.r**3
    return float(np.trapezoid(dens, op.r))


class SliceDiagnostics:
    """The energy and localized-energy sums, fed one sampled slice at a time:
    an observer for `evolve`.  Each slice leaves only its energy, its
    per-annulus radial and degenerate products and its lower-order term;
    `finish` weights them over the sample times."""

    def __init__(self, op: ModeOperator):
        # localized-energy norm: sup over dyadic annuli with the photon-sphere
        # weight on the temporal and angular pieces only.  Row k of quad_r
        # holds the trapezoid weights of annulus k on the grid, times r^3.
        r = op.r
        w_ps = ((r - op.sp.r_ps) / r) ** 2
        j_lo = int(math.floor(math.log2(max(r[0], 1e-12))))
        j_hi = int(math.ceil(math.log2(r[-1])))
        self.annuli, rows = [], []
        for j in range(j_lo, j_hi + 1):
            idx = np.flatnonzero((r >= 2.0 ** (j - 1)) & (r < 2.0**j))
            if idx.size:
                half = 0.5 * np.diff(r[idx])
                row = np.zeros_like(r)
                row[idx[:-1]] += half
                row[idx[1:]] += half
                self.annuli.append(j)
                rows.append(row * r**3)
        self.op = op
        self.quad_r = np.array(rows)
        self.quad_deg = self.quad_r * w_ps
        self.times, self.E, self.radial, self.degenerate, self.low = [], [], [], [], []

    def __call__(self, t, v, W):
        op, r = self.op, self.op.r
        v_r = op.D1 @ v
        self.times.append(t)
        self.E.append(slice_energy(op, v, W, v_r))
        self.radial.append(self.quad_r @ v_r**2)
        self.degenerate.append(self.quad_deg @ (W**2 + op.eig * v**2 / r**2))
        self.low.append(np.trapezoid(v**2, r))

    def finish(self, lateral_times, lateral_density):
        """Energy and norm reports: the slices' sums, trapezoid-weighted in
        time over the samples, and the lateral flux of the per-step density."""
        times = np.asarray(self.times)
        E = np.asarray(self.E)
        acc_r = np.zeros(len(self.annuli))
        acc_deg = np.zeros(len(self.annuli))
        low = 0.0
        wt = np.gradient(times)
        for w, p_r, p_deg, p_low in zip(wt, self.radial, self.degenerate, self.low):
            acc_r += w * p_r
            acc_deg += w * p_deg
            low += w * p_low
        dud = {j: {"radial": 2.0 ** (-j) * float(acc_r[k]),
                   "degenerate": 2.0 ** (-j) * float(acc_deg[k])}
               for k, j in enumerate(self.annuli)}
        best_r = max(d["radial"] for d in dud.values())
        best_deg = max(d["degenerate"] for d in dud.values())
        nrep = NormReport(LE1_sq=best_r + best_deg + low, dyadic=dud,
                          lower_order_sq=low)
        lat_d = np.asarray(lateral_density)
        erep = EnergyReport(times=times, E_slice=E, E_initial=float(E[0]),
                            E_lateral=float(np.trapezoid(lat_d, lateral_times)),
                            sup_E=float(np.max(E)),
                            lateral_min_integrand=float(np.min(lat_d)))
        return erep, nrep


def diagnostics(hist: History, acc: SliceDiagnostics = None):
    """Energy and localized-energy reports of a run: from the slices that
    `acc` took in as evolve's observer, or else from hist's stored ones."""
    if acc is None:
        acc = SliceDiagnostics(hist.op)
        for t, v, W in zip(hist.times, hist.v, hist.W):
            acc(t, v, W)
    return acc.finish(hist.lateral_times, hist.lateral_density)


def convergence_study(sp: SchwParams, chart: IngoingChart, base: SolverDomain,
                      data_center: float, data_width: float, levels: int = 3):
    """Self-convergence order of the field and of the final slice energy.

    A forked child evolves the coarser levels while this process evolves the
    finest one, which costs about twice as much as the others together (each
    level doubles the grid points and the steps).  Every number is the serial
    loop's, and a failing level raises here in serial order with its own
    frames (`forked.beside`)."""
    doms = [SolverDomain(r_e=base.r_e, r_max=base.r_max,
                         n_r=(base.n_r - 1) * 2**k + 1, l=base.l,
                         T=base.T, cfl=base.cfl)
            for k in range(levels)]

    def final(dom):
        """Final field and slice energy of one level."""
        op = assemble_mode(sp, chart, dom)
        v0 = gaussian_bump(dom.grid(), data_center, data_width)
        v, W = np.empty_like(v0), np.empty_like(v0)

        def keep(t, vv, WW):      # the last sample is the final state
            v[:], W[:] = vv, WW
        evolve(op, v0, np.zeros_like(v0), observe=keep)
        return v, slice_energy(op, v, W)

    from .forked import beside
    coarse, finest = beside(lambda: [final(dom) for dom in doms[:-1]],
                            lambda: final(doms[-1]))
    finals = coarse + [finest]
    errs_f, errs_e = [], []
    for k in range(levels - 1):
        (v0, e0), (v1, e1) = finals[k], finals[k + 1]
        errs_f.append(float(np.sqrt(np.trapezoid((v0 - v1[::2]) ** 2, doms[k].grid()))))
        errs_e.append(abs(e0 - e1))
    orders_f = [math.log2(errs_f[i] / errs_f[i + 1]) for i in range(len(errs_f) - 1)]
    orders_e = [math.log2(errs_e[i] / errs_e[i + 1]) for i in range(len(errs_e) - 1)]
    if any(e2 >= e1 for e1, e2 in zip(errs_f[:-1], errs_f[1:])):
        raise InconclusiveConvergence(f"non-monotone field errors {errs_f}")
    hs = [(base.r_max - base.r_e) / ((base.n_r - 1) * 2**k) for k in range(levels - 1)]
    fit_f = float(np.polyfit(np.log(hs), np.log(errs_f), 1)[0])
    fit_e = float(np.polyfit(np.log(hs), np.log(np.maximum(errs_e, 1e-300)), 1)[0])
    return {"field_errors": errs_f, "energy_errors": errs_e,
            "field_orders": orders_f, "energy_orders": orders_e,
            "field_order_fit": fit_f, "energy_order_fit": fit_e}


def export_energy_csv(path, erep: EnergyReport, lat_t, lat_d):
    lat_cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (lat_d[1:] + lat_d[:-1]) * np.diff(lat_t))])
    cum_at = np.interp(erep.times, lat_t, lat_cum)
    write_csv(path, "vtilde,E_slice,E_lateral_cum",
              np.column_stack([erep.times, erep.E_slice, cum_at]), newline="\r\n")


def export_norm_json(path, erep: EnergyReport, nrep: NormReport, extra=None):
    payload = {
        "E_initial": erep.E_initial, "sup_E": erep.sup_E,
        "E_lateral": erep.E_lateral,
        "lateral_min_integrand": erep.lateral_min_integrand,
        "LE1_sq": nrep.LE1_sq, "lower_order_sq": nrep.lower_order_sq,
        "dyadic": {str(k): v for k, v in nrep.dyadic.items()},
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
