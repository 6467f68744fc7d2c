"""Construction of the localized-energy multiplier profiles for the static
hyperspherical black hole.

The radial vector-field profile is built in stages: a log-corrected base
profile that degenerates quadratically at the photon sphere, a mollified
smooth replacement near the photon sphere, and a saturation step that bounds
the profile through the horizon.  A decreasing bump and a slope-controlled
weight implement the horizon (redshift) component.  All profiles expose
derivatives up to third order, assembled with a small order-3 Taylor
arithmetic and cross-checked against finite differences in the tests.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .params import SchwParams, ProfileConstructionFailure, DifferentiationError
from .smooth import (smoothstep, smoothstep_integral, step_jet, rho_saturate,
                     mollifier_table, mollify, plateau_bump, richardson_combine)

# ---------------------------------------------------------------------------
# order-3 jet arithmetic: a jet is an ndarray of shape (4, ...) holding
# (value, d/dr, d2/dr2, d3/dr3)
# ---------------------------------------------------------------------------

def jet_const(c, like):
    out = np.zeros((4,) + np.shape(like))
    out[0] = c
    return out


def jet_var(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros((4,) + r.shape)
    out[0] = r
    out[1] = 1.0
    return out


def jet_monomial(r, p):
    r = np.asarray(r, dtype=float)
    out = np.empty((4,) + r.shape)
    out[0] = r**p
    out[1] = p * r ** (p - 1)
    out[2] = p * (p - 1) * r ** (p - 2)
    out[3] = p * (p - 1) * (p - 2) * r ** (p - 3)
    return out


def jet_mul(F, G):
    out = np.empty_like(F)
    out[0] = F[0] * G[0]
    out[1] = F[1] * G[0] + F[0] * G[1]
    out[2] = F[2] * G[0] + 2 * F[1] * G[1] + F[0] * G[2]
    out[3] = F[3] * G[0] + 3 * F[2] * G[1] + 3 * F[1] * G[2] + F[0] * G[3]
    return out


def jet_compose(outer, H):
    """outer = (g0,g1,g2,g3) evaluated at H[0]; returns jet of g(H(r))."""
    g0, g1, g2, g3 = outer
    out = np.empty_like(H)
    out[0] = g0
    out[1] = g1 * H[1]
    out[2] = g2 * H[1] ** 2 + g1 * H[2]
    out[3] = g3 * H[1] ** 3 + 3 * g2 * H[1] * H[2] + g1 * H[3]
    return out


# ---------------------------------------------------------------------------
# capped cubic-quintic smoothing of the logarithm
# ---------------------------------------------------------------------------

def cap_fn(x, alpha):
    """Jet of the piecewise profile: x below 0; x - 2x^3/(3 a^2) + x^5/(5 a^4)
    on [0, a]; constant 8a/15 above.  C^2 at 0, C-infinity elsewhere; third
    derivative jumps at 0 (one-sided value taken from the middle branch)."""
    x = np.asarray(x, dtype=float)
    a2, a4 = alpha**2, alpha**4
    mid = (x > 0) & (x < alpha)
    lo = x <= 0
    middle = (x - 2 * x**3 / (3 * a2) + x**5 / (5 * a4),
              (1 - x**2 / a2) ** 2,
              -4 * x / a2 * (1 - x**2 / a2),
              -4 / a2 * (1 - 3 * x**2 / a2))
    below = (x, 1.0, 0.0, 0.0)
    above = (8 * alpha / 15.0, 0.0, 0.0, 0.0)
    return np.stack([np.where(lo, b, np.where(mid, m, a))
                     for b, m, a in zip(below, middle, above)])


def cap_pieces(alpha):
    """cap_fn as the piecewise polynomial smooth.mollifier_table takes: the
    breaks and the power-basis coefficients of the three pieces."""
    c = np.zeros((3, 6))
    c[:2, 1] = 1.0
    c[1, 3], c[1, 5], c[2, 0] = -2 / (3 * alpha**2), 1 / (5 * alpha**4), 8 * alpha / 15.0
    return np.array([0.0, alpha]), c


def ramp_jet(r, lo, hi, slope, w0):
    """Slope-controlled C-infinity ramp: derivative equals `slope` exactly on
    [lo + w0, hi], rounds off over corner width w0, total rise slope*(hi-lo),
    identically 0 below lo and identically slope*(hi-lo) above hi + w0."""
    r = np.asarray(r, dtype=float)
    t1 = (r - lo) / w0
    t2 = (r - hi) / w0
    S1, S2 = smoothstep(t1), smoothstep(t2)
    out = np.empty((4,) + r.shape)
    out[0] = slope * w0 * (smoothstep_integral(t1) - smoothstep_integral(t2))
    out[1] = slope * (S1[0] - S2[0])
    out[2] = slope / w0 * (S1[1] - S2[1])
    out[3] = slope / w0**2 * (S1[2] - S2[2])
    return out


# ---------------------------------------------------------------------------
# shape parameters of the horizon component (offsets relative to r_s in units
# of r_s).  The slopes and widths were fixed by a small deterministic search
# during development; every construction revalidates them on the grid.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RedshiftShape:
    b_lo: float = 0.0          # descent corner starts at the horizon
    b_hi: float = 0.20         # end of the constant-slope section
    b_w0: float = 0.10         # corner width; support ends at b_hi + b_w0
    gamma_base: float = 0.05
    gamma_rise_lo: float = -0.09
    gamma_rise_hi: float = 0.005
    gamma_rise_slope: float = 1.85
    gamma_rise_w0: float = 0.03
    gamma_fall_lo: float = 0.06
    gamma_fall_slope: float = 0.92
    gamma_fall_w0: float = 0.03


@dataclass
class MultiplierProfile:
    """Radial profiles of the multiplier with derivatives to third order."""

    sp: SchwParams
    alpha_cap: float
    N: float
    eps: float
    delta: float
    delta1: float
    eps_match: float
    chi_inner: float
    chi_outer: float
    shape: RedshiftShape
    achieved_match: float = field(default=math.nan)

    # -- elementary pieces ---------------------------------------------------
    @property
    def c_d(self):
        return 3 / 4 * self.sp.r_ps * self.sp.r_s ** 2

    def A_jet(self, r):
        sp = self.sp
        J = jet_monomial(r, -2) * (-sp.r_s ** 2)
        J[0] += 1.0
        return J

    def g_jet(self, r):
        sp = self.sp
        J = jet_monomial(r, -3) * (-sp.r_ps ** 3)
        J[0] += 1.0
        return J

    def h_jet(self, r):
        sp = self.sp
        y = jet_monomial(r, 2)
        y0 = y[0] - sp.r_s ** 2
        Y = y.copy()
        Y[0] = y0
        denom = sp.r_s ** 2
        outer = (np.log(Y[0] / denom), 1.0 / Y[0], -1.0 / Y[0] ** 2, 2.0 / Y[0] ** 3)
        return jet_compose(outer, Y)

    def a_of(self, x):
        """Jet of the cap a at x."""
        return cap_fn(x, self.alpha_cap)

    @cached_property
    def _cap_table(self):
        """Mollifier table of the cap at this profile's scale N."""
        return mollifier_table(cap_pieces(self.alpha_cap), self.N)

    def a_mollified(self, y):
        """Jet of the mollified cap psi_N * a at y."""
        return mollify(self._cap_table, y)

    def D_m_jet(self, H):
        """Jet in r of (psi_N * a)(H) - a(H) along the jet H."""
        return (jet_compose(self.a_mollified(H[0]), H)
                - jet_compose(self.a_of(H[0]), H))

    def chi_jet(self, r):
        rps = self.sp.r_ps
        return plateau_bump(r, rps - self.chi_outer, rps - self.chi_inner,
                            rps + self.chi_inner, rps + self.chi_outer)

    # -- f1, F, f -------------------------------------------------------------
    def f1_jet(self, r):
        H = self.h_jet(r)
        aH = jet_compose(self.a_of(H[0]), H)
        return self.g_jet(r) + self.c_d * jet_mul(jet_monomial(r, -3), aH)

    @cached_property
    def _q2_poly(self):
        """Second-order matching polynomial at the photon sphere."""
        Dm = self.D_m_jet(self.h_jet(np.asarray([self.sp.r_ps])))
        return float(Dm[0][0]), float(Dm[1][0]), float(Dm[2][0])

    def F_jet(self, r):
        """f1 plus the matching correction c_d r^{-3} chi (D_m - Q2).

        The correction is evaluated only where chi is nonzero (inside
        chi_outer of the photon sphere); elsewhere F equals f1."""
        r = np.asarray(r, dtype=float)
        out = self.f1_jet(r)
        rps = self.sp.r_ps
        on = (r > rps - self.chi_outer) & (r < rps + self.chi_outer)
        if np.any(on):
            ro = r[on]
            Dm = self.D_m_jet(self.h_jet(ro))
            d0, d1, d2 = self._q2_poly
            dr = ro - rps
            Q2 = np.zeros((4,) + ro.shape)
            Q2[0] = d0 + d1 * dr + 0.5 * d2 * dr**2
            Q2[1] = d1 + d2 * dr
            Q2[2] = d2
            corr = jet_mul(self.chi_jet(ro), Dm - Q2)
            out[:, on] += self.c_d * jet_mul(jet_monomial(ro, -3), corr)
        return out

    def f_jet(self, r):
        """Saturated profile; equals -2/(eps r^3) at and below the horizon."""
        r = np.asarray(r, dtype=float)
        out = np.empty((4,) + r.shape)
        below = r <= self.sp.r_s * (1.0 + 1e-13)
        if np.any(below):
            out[:, below] = (-2.0 / self.eps) * jet_monomial(r[below], -3)
        above = ~below
        if np.any(above):
            ra = r[above]
            W = jet_mul(jet_monomial(ra, 3), self.F_jet(ra))
            rho = rho_saturate(self.eps * W[0])
            outer = (rho[0] / self.eps, rho[1], rho[2] * self.eps,
                     rho[3] * self.eps**2)
            sat = jet_compose(outer, W)
            out[:, above] = jet_mul(jet_monomial(ra, -3), sat)
        return out

    # -- horizon zone ------------------------------------------------------
    # On (r_s, r_s(1 + HZ_WIDTH)] the construction reduces exactly to
    # f = g + c_d r^{-3} h (identity branches of the cap and saturation,
    # matching cutoff zero), for which q1 and the third-order weight have
    # stable closed forms; the generic jet path loses precision there to the
    # cancellation A * h''-type combinations.
    HZ_WIDTH = 1e-4

    def _hz_mask(self, r):
        return (r > self.sp.r_s) & (r <= self.sp.r_s * (1.0 + self.HZ_WIDTH))

    def _q1_hz(self, r):
        """Closed-form (q1, q1', q1'') on the horizon zone."""
        A, A1, A2 = self.sp.A(r), self.sp.A1(r), self.sp.A2(r)
        A3 = 24 * self.sp.r_s ** 2 / r ** 5
        k = self.c_d
        q0 = 1.5 * A / r + k * r ** -4
        q1 = 1.5 * (A1 / r - A / r**2) - 4 * k * r ** -5
        q2 = 1.5 * (A2 / r - 2 * A1 / r**2 + 2 * A / r**3) \
            + 20 * k * r ** -6
        q3 = 1.5 * (A3 / r - 3 * A2 / r**2 + 6 * A1 / r**3 - 6 * A / r**4) \
            - 120 * k * r ** -7
        return q0, q1, q2, q3

    def _l_hz(self, r):
        """Closed-form third-order weight on the horizon zone."""
        A, A1 = self.sp.A(r), self.sp.A1(r)
        _, q1, q2, _ = self._q1_hz(r)
        return -0.5 * (A1 * q1 + A * (q2 + 3 * q1 / r))

    # -- scalar companions -----------------------------------------------------
    def q1_jet(self, r, f=None):
        """q1 = (A/2) r^{-3} d/dr(r^3 f); jet carries orders 0..2.

        `f` is the jet f_jet(r) when the caller already holds it."""
        r = np.asarray(r, dtype=float)
        rf = jet_mul(jet_monomial(r, 3), self.f_jet(r) if f is None else f)
        dr_rf = np.stack([rf[1], rf[2], rf[3], np.zeros_like(rf[0])])
        out = 0.5 * jet_mul(self.A_jet(r), jet_mul(jet_monomial(r, -3), dr_rf))
        hz = self._hz_mask(r)
        if np.any(hz):
            q0, q1, q2, q3 = self._q1_hz(r[hz])
            out[0, hz], out[1, hz], out[2, hz], out[3, hz] = q0, q1, q2, q3
        return out

    def q2_jet(self, r):
        """Temporal-control weight switching on across (r_s + r_ps)/2.

        The transition is centered on the midpoint radius and completes just
        past it, so the weight is strictly positive on the photon-sphere
        verification window."""
        sp = self.sp
        r = np.asarray(r, dtype=float)
        rm = 0.5 * (sp.r_s + sp.r_ps)
        lo = rm - 0.08 * sp.r_s
        step = step_jet(r, lo, 0.1 * sp.r_s)
        core = jet_mul(jet_monomial(r, -6),
                       jet_mul(jet_var(r) - sp.r_ps * jet_const(1.0, r),
                               jet_var(r) - sp.r_ps * jet_const(1.0, r)))
        return jet_mul(step, core)

    def b_jet(self, r):
        """Decreasing bump: 1 at and below the horizon, 0 beyond the support."""
        sp, sh = self.sp, self.shape
        rs = sp.r_s
        slope = 1.0 / (sh.b_hi - sh.b_lo)
        return jet_const(1.0, np.asarray(r, dtype=float)) - ramp_jet(
            r, rs * (1 + sh.b_lo), rs * (1 + sh.b_hi), slope / rs, sh.b_w0 * rs)

    def gamma_jet(self, r):
        sp, sh = self.sp, self.shape
        rs = sp.r_s
        rise = ramp_jet(r, rs * (1 + sh.gamma_rise_lo), rs * (1 + sh.gamma_rise_hi),
                        sh.gamma_rise_slope / rs, sh.gamma_rise_w0 * rs)
        peak = sh.gamma_base + sh.gamma_rise_slope * (sh.gamma_rise_hi - sh.gamma_rise_lo)
        fall_width = peak / sh.gamma_fall_slope
        fall = ramp_jet(r, rs * (1 + sh.gamma_fall_lo),
                        rs * (1 + sh.gamma_fall_lo + fall_width),
                        sh.gamma_fall_slope / rs, sh.gamma_fall_w0 * rs)
        return jet_const(sh.gamma_base, np.asarray(r, dtype=float)) + rise - fall

    def m_t_jet(self, r, b, gam):
        """Covariant time component of the 1-form (before the delta factor),
        from the jets b = b_jet(r) and gam = gamma_jet(r)."""
        coef = 2 * self.sp.r_s ** 2
        return coef * jet_mul(jet_monomial(r, -3), jet_mul(b, gam))

    # -- third-order weight ----------------------------------------------------
    def u2_weight(self, P, r):
        """l(P) = -1/4 r^{-3} d[A r^3 d{A r^{-3} d(P r^3)}]
        from the jet P of the profile at r."""
        r = np.asarray(r, dtype=float)
        T1 = jet_mul(jet_monomial(r, 3), P)
        u1 = np.stack([T1[1], T1[2], T1[3], np.zeros_like(T1[0])])
        v = jet_mul(self.A_jet(r), jet_mul(jet_monomial(r, -3), u1))
        v1 = np.stack([v[1], v[2], np.zeros_like(v[0]), np.zeros_like(v[0])])
        w = jet_mul(self.A_jet(r), jet_mul(jet_monomial(r, 3), v1))
        return -0.25 * r ** -3 * w[1]

    def lf(self, r, P):
        """Third-order weight of the profile (f or F) with jet P at the radii
        r (1-d): the closed form on the horizon zone, 0 at and below the
        horizon."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        above = r > self.sp.r_s * (1.0 + 1e-13)
        hz = above & self._hz_mask(r)
        rest = above & ~hz
        if np.any(rest):
            out[rest] = self.u2_weight(P[:, rest], r[rest])
        if np.any(hz):
            out[hz] = self._l_hz(r[hz])
        return out


def build_profiles(sp: SchwParams, alpha_cap: float = 4.9, N: float = None,
                   eps: float = 0.012, delta: float = 0.03, delta1: float = 0.005,
                   eps_match: float = 1e-3) -> MultiplierProfile:
    """Build and validate the multiplier profile family.

    N (mollifier scale) adapts by doubling until |d^k(F - f1)| < eps_match
    for k <= 2 on the support of the matching cutoff.
    """
    if alpha_cap >= 5.0:
        raise ValueError("alpha_cap must be strictly below 5")
    adaptive = N is None
    N_val = 512.0 if adaptive else float(N)
    prof = None
    for _ in range(8):
        prof = MultiplierProfile(sp=sp, alpha_cap=alpha_cap, N=N_val, eps=eps,
                                 delta=delta, delta1=delta1, eps_match=eps_match,
                                 chi_inner=0.05 * sp.r_s, chi_outer=0.15 * sp.r_s,
                                 shape=RedshiftShape())
        grid = np.linspace(sp.r_ps - prof.chi_outer, sp.r_ps + prof.chi_outer, 121)
        diff = prof.F_jet(grid) - prof.f1_jet(grid)
        worst = max(np.max(np.abs(diff[k])) for k in range(3))
        prof.achieved_match = float(worst)
        if worst < eps_match or not adaptive:
            break
        N_val *= 2.0
    if prof.achieved_match >= eps_match:
        raise ProfileConstructionFailure(
            f"mollifier scale N = {N_val} missed the matching bound: "
            f"{prof.achieved_match} >= {eps_match}")
    validate_profile(prof)
    return prof


def validate_profile(prof: MultiplierProfile):
    """Grid checks of the inequality constraints the construction must meet."""
    sp = prof.sp
    rs, rps = sp.r_s, sp.r_ps
    # saturation transition must sit below grid resolution: on every
    # representable radius above the horizon the profile is in the identity
    # branch, so the horizon-zone closed forms apply
    r_probe = rs * (1.0 + 4.4e-16)
    W_edge = r_probe ** 3 * prof.F_jet(np.asarray([r_probe]))[0][0]
    if prof.eps * W_edge <= -1.0:
        raise ProfileConstructionFailure(
            f"eps = {prof.eps} puts the saturation transition on-grid "
            f"(eps * W = {prof.eps * W_edge} <= -1 at the first float above r_s)")
    # analytic derivatives must agree with Richardson finite differences; the
    # jets are elementwise, so one call per jet covers the whole stencil
    r_fd = np.array([1.07, 1.3, sp.r_ps * 1.01, 2.2, 6.0]) * rs
    h = 1e-5 * rs
    stencil = np.concatenate([r_fd, r_fd + h, r_fd - h, r_fd + h / 2, r_fd - h / 2])
    for fn in (prof.F_jet, prof.f_jet, prof.q1_jet, prof.b_jet, prof.gamma_jet):
        J = fn(stencil).reshape(4, 5, r_fd.size)
        fd = richardson_combine(*J[0, 1:], h)
        err = np.abs(J[1, 0] - fd) / np.maximum(1.0, np.abs(fd))
        if err.max() > 1e-8:
            raise DifferentiationError(
                f"{fn.__name__} first derivative off by {err.max():.2e} "
                f"at r = {r_fd[np.argmax(err)]}")
    r = np.concatenate([np.linspace(rs * 1.001, 20 * rs, 1500),
                        rps + np.linspace(-0.2, 0.2, 301) * rs])
    r = np.sort(r)
    F = prof.F_jet(r)
    if np.any(F[1] <= 0):
        bad = r[F[1] <= 0]
        raise ProfileConstructionFailure(f"F' <= 0 at r = {bad[:3]}")
    f1ps = prof.f1_jet(np.asarray([rps]))
    if abs(f1ps[0][0]) > 1e-12 or abs(F[0][np.argmin(np.abs(r - rps))]) > 2e-3:
        raise ProfileConstructionFailure("base profile does not vanish at the photon sphere")
    # cap value 8 alpha / 15
    acap = prof.a_of(np.asarray([prof.alpha_cap + 1.0]))[0]
    if abs(acap[0] - 8 * prof.alpha_cap / 15.0) > 1e-14:
        raise ProfileConstructionFailure("cap plateau value incorrect")
    # capped-log third derivative nonpositive where the matching cutoff lives
    H = prof.h_jet(np.linspace(rps - prof.chi_outer, rps + prof.chi_outer, 101))
    a3 = prof.a_mollified(H[0])[3]
    if np.any(a3 > 1e-10):
        raise ProfileConstructionFailure("mollified third derivative positive on cutoff support")
    # gamma constraints
    rg = np.linspace(0.8 * rs, 1.6 * rs, 2001)
    G = prof.gamma_jet(rg)
    if np.any(G[0] < -1e-12) or np.any(G[0] > 1.0):
        raise ProfileConstructionFailure("gamma outside [0, 1]")
    if np.any(G[1] <= -1.0):
        raise ProfileConstructionFailure("gamma slope at or below -1")
    if np.any(G[0][rg >= rps] > 1e-12):
        raise ProfileConstructionFailure("gamma support reaches the photon sphere")
    if prof.gamma_jet(np.asarray([rs]))[0][0] <= 0:
        raise ProfileConstructionFailure("gamma(r_s) must be positive")
    B = prof.b_jet(rg)
    if np.any(B[0] < -1e-12):
        raise ProfileConstructionFailure("b negative")
    support_end = rs * (1 + prof.shape.b_hi + prof.shape.b_w0)
    if support_end > rs * (1 + 3 * rps / rs) / 4 + 1e-12:
        raise ProfileConstructionFailure("b support exceeds (r_s + 3 r_ps)/4")
    sel = (rg >= rs) & (rg <= support_end)
    if np.any(B[1][sel] > 1e-10):
        raise ProfileConstructionFailure("b not decreasing beyond the horizon")
    hi = rg > support_end + 1e-9
    if np.any(np.abs(B[0][hi]) > 1e-12):
        raise ProfileConstructionFailure("b support exceeds its window")
    return True
