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
Runge-Kutta in time on the window of the state's nonzero support, its stages
formed in preallocated buffers.
"""

from dataclasses import dataclass, field, replace
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
# evolve hands its observer the state every SAMPLE_EVERY steps
SAMPLE_EVERY = 8
# Unforced, evolve steps (v, W) on a window of the first m radial points of v
# and of W.  Four stages of the reach-3 stencils carry nonzero entries at most
# 12 points on, so while the window's last WINDOW_MARGIN points of both halves
# are zero at the start of a step, all beyond it stays +0 through the step.
# When they are not, the window is regrown to end WINDOW_MARGIN + WINDOW_STEP
# points past the last nonzero entry.
WINDOW_MARGIN = 16
WINDOW_STEP = 128


@dataclass
class SolverDomain:
    r_e: float
    r_max: float
    n_r: int
    l: int
    T: float
    cfl: float = WAVE_CFL

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


def _offsets(n):
    """L's band offsets on n radial points, ascending."""
    return np.r_[np.arange(-n - 3, -n + 4), np.arange(-3, 4), n]


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
    # c1 = r^{-3} (r^3 A)' and cross0 = r^{-3} (r^3 B)', for A = g^{rr} and B = g^{vr}
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
    L = _dia(bands, _offsets(n))
    return ModeOperator(sp=sp, dom=dom, r=r, gi_vv=gi_vv, eig=eig, dt=dt, n_steps=n_steps,
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
    """The horizon-flux density that evolve records at t = 0 and after every
    accepted step."""
    lateral_density: list = field(default_factory=list)
    lateral_times: list = field(default_factory=list)


def _window_size(n, v, W):
    """Radial points in a window that ends WINDOW_MARGIN + WINDOW_STEP points
    past the last nonzero entry of v or W, at most n."""
    nonzero = np.flatnonzero((v != 0) | (W != 0))
    last = int(nonzero[-1]) if nonzero.size else -1
    return min(n, last + 1 + WINDOW_MARGIN + WINDOW_STEP)


def _window_operator(op: ModeOperator, m, buf):
    """op with L cut to its rows and columns on the first m points of v and
    of W: L's band columns [0, m) and [n, n + m), written into a prefix of
    buf, at offsets -m-3..-m+3, -3..3 and m.  On v's last three columns the
    bands -3..-1 hold the dissipation of v's rows m..m+2, which the cut would
    put on W's first rows; they are zeroed.  Each row of the cut is then L's
    row without its entries past the window, in the same band order.  At
    m = n it is op."""
    n = op.dom.n_r
    if m == n:
        return op
    from scipy import sparse
    data = buf[:op.L.data.shape[0] * 2 * m].reshape(-1, 2 * m)
    data[:, :m], data[:, m:] = op.L.data[:, :m], op.L.data[:, n:n + m]
    for o in (-3, -2, -1):      # band 10 + o has offset o
        data[10 + o, m + o:m] = 0.0
    return replace(op, L=sparse.dia_array((data, _offsets(m)), shape=(2 * m, 2 * m)))


def evolve(op: ModeOperator, v0, W0, forcing=None, *, observe) -> History:
    """Classical RK4 evolution of the stacked state (v, W) with per-step
    lateral-flux sampling.

    Unforced, the steps run on a window of the first m points of v and of W
    that grows with the state's nonzero support (WINDOW_MARGIN).  Beyond it
    the whole grid's state, stages and products are +0, and inside it each
    product row sums L's nonzero entries in L's order, so every number is the
    whole grid's.  A forcing may reach any point: then the window is the grid.

    The state is sampled at t = 0, every SAMPLE_EVERY steps and after the
    last step: `observe(t, v, W)` is called there with full-length arrays,
    zero beyond the window, which evolve overwrites after the call, so an
    observer that keeps a slice copies it."""
    dt = op.dt
    n = op.dom.n_r
    v_obs, W_obs = np.array(v0, dtype=float), np.array(W0, dtype=float)
    hist = History()
    d1_0 = np.zeros(n)      # row 0 of D1, the one-sided v_r at the inner boundary
    for off, band in zip(op.D1.offsets, op.D1.data):
        if off >= 0:
            d1_0[off] = band[off]

    def lateral(vv, WW):
        return (float(d1_0[:vv.size] @ vv) ** 2 + WW[0] ** 2
                + op.eig * vv[0] ** 2 / op.r[0] ** 2) * op.r[0] ** 3

    observe(0.0, v_obs, W_obs)
    hist.lateral_times.append(0.0)
    hist.lateral_density.append(lateral(v_obs, W_obs))

    # the state, the later stages' states, |y| and the floor's mask are
    # full-length buffers with the window (v[:m], W[:m]) as their prefix; the
    # window's bands are a prefix of one buffer the size of L's
    m = n if forcing is not None else _window_size(n, v_obs, W_obs)
    y_buf = np.zeros(2 * n)
    y_buf[:m], y_buf[m:2 * m] = v_obs[:m], W_obs[:m]
    v_obs[m:], W_obs[m:] = 0.0, 0.0
    stage_buf, mag_buf = np.empty(2 * n), np.empty(2 * n)
    tiny_buf = np.empty(2 * n, dtype=bool)
    band_buf = np.empty(op.L.data.size)

    def cut(m):
        """The operator and the buffers' prefixes on a window of m points."""
        return (_window_operator(op, m, band_buf), y_buf[:2 * m], stage_buf[:2 * m],
                mag_buf[:2 * m], tiny_buf[:2 * m])

    op_w, y, stage, mag, tiny = cut(m)

    # rhs and stage_at read the current window's op_w, y and stage
    def rhs(tt, yy):
        return spatial_operator(op_w, yy, None if forcing is None else forcing(tt, op.r))

    def stage_at(h, kk):
        """y + h kk, formed in the stage buffer."""
        np.multiply(kk, h, out=stage)
        return np.add(stage, y, out=stage)

    for k in range(op.n_steps):
        if m < n and (y[m - WINDOW_MARGIN:m].any() or y[2 * m - WINDOW_MARGIN:].any()):
            m_old, m = m, _window_size(n, y[:m], y[m:])
            # W's m_old points move up to start at m, through the stage buffer
            stage_buf[:m_old] = y[m_old:]
            y_buf[m_old:2 * m] = 0.0
            y_buf[m:m + m_old] = stage_buf[:m_old]
            op_w, y, stage, mag, tiny = cut(m)
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
        if not mag.max() <= 1e100:      # NaN fails the comparison
            raise InstabilityError(f"NaN/overflow at step {k + 1} (t = {t + dt})")
        np.less(mag, SUBNORMAL_FLOOR, out=tiny)
        np.copyto(y, 0.0, where=tiny)
        hist.lateral_times.append(t + dt)
        hist.lateral_density.append(lateral(y[:m], y[m:]))
        if (k + 1) % SAMPLE_EVERY == 0 or k == op.n_steps - 1:
            v_obs[:m], W_obs[:m] = y[:m], y[m:]
            observe(t + dt, v_obs, W_obs)
    return hist


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

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
    `diagnostics` weights them over the sample times."""

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


def diagnostics(acc: SliceDiagnostics, hist: History):
    """The run's report, the payload of norms.json: the slices that `acc`
    took in as evolve's observer, trapezoid-weighted in time over the
    samples, and the lateral flux of hist's per-step density."""
    acc_r = np.zeros(len(acc.annuli))
    acc_deg = np.zeros(len(acc.annuli))
    low = 0.0
    for w, p_r, p_deg, p_low in zip(np.gradient(acc.times), acc.radial, acc.degenerate,
                                    acc.low):
        acc_r += w * p_r
        acc_deg += w * p_deg
        low += w * p_low
    dyadic = {str(j): {"radial": 2.0 ** (-j) * float(acc_r[k]),
                       "degenerate": 2.0 ** (-j) * float(acc_deg[k])}
              for k, j in enumerate(acc.annuli)}
    lat_d = np.asarray(hist.lateral_density)
    return {"E_initial": float(acc.E[0]), "sup_E": float(np.max(acc.E)),
            "E_lateral": float(np.trapezoid(lat_d, hist.lateral_times)),
            "lateral_min_integrand": float(np.min(lat_d)),
            "LE1_sq": (max(d["radial"] for d in dyadic.values())
                       + max(d["degenerate"] for d in dyadic.values()) + low),
            "lower_order_sq": low, "dyadic": dyadic}


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


def export_energy_csv(path, acc: SliceDiagnostics, hist: History):
    """The sampled slices' energies beside the lateral flux accumulated up to
    each sample time."""
    lat_t, lat_d = np.asarray(hist.lateral_times), np.asarray(hist.lateral_density)
    lat_cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (lat_d[1:] + lat_d[:-1]) * np.diff(lat_t))])
    write_csv(path, "vtilde,E_slice,E_lateral_cum",
              np.column_stack([acc.times, acc.E, np.interp(acc.times, lat_t, lat_cum)]),
              newline="\r\n")
