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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import (SchwParams, ProfileConstructionFailure, DifferentiationError,
                     MULT_ALPHA_CAP, MULT_EPS, MULT_DELTA, MULT_DELTA1, MULT_EPS_MATCH)
from .smooth import (smoothstep, smoothstep_integral, step_jet, mollifier_table,
                     mollify, plateau_bump, richardson_combine)

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
    derivative jumps at 0 (one-sided value taken from the middle branch).
    Each branch is evaluated on its own points only."""
    x = np.asarray(x, dtype=float)
    a2, a4 = alpha**2, alpha**4
    xf = np.atleast_1d(x)
    mid = (xf > 0) & (xf < alpha)
    lo = xf <= 0
    out = np.zeros((4,) + xf.shape)
    out[0] = 8 * alpha / 15.0
    out[0, lo] = xf[lo]
    out[1, lo] = 1.0
    xm = xf[mid]
    out[:, mid] = (xm - 2 * xm**3 / (3 * a2) + xm**5 / (5 * a4),
                   (1 - xm**2 / a2) ** 2,
                   -4 * xm / a2 * (1 - xm**2 / a2),
                   -4 / a2 * (1 - 3 * xm**2 / a2))
    return out.reshape((4,) + x.shape)


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
# shape parameters of the horizon component (offsets relative to the horizon
# r = 1).  The slopes and widths were fixed by a small deterministic search
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


@dataclass(frozen=True)
class MultiplierProfile:
    """Radial profiles of the multiplier with derivatives to third order.

    Frozen, like `SchwParams`: the scans, the triple and the sos bundles
    share one instance, so none of them may change it."""

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

    # -- elementary pieces ---------------------------------------------------
    @property
    def c_d(self):
        return 3 / 4 * self.sp.r_ps

    def A_jet(self, r):
        J = -jet_monomial(r, -2)
        J[0] += 1.0
        return J

    def g_jet(self, r):
        sp = self.sp
        J = jet_monomial(r, -3) * (-sp.r_ps ** 3)
        J[0] += 1.0
        return J

    def h_jet(self, r):
        y = jet_monomial(r, 2)
        y0 = y[0] - 1.0
        Y = y.copy()
        Y[0] = y0
        outer = (np.log(Y[0]), 1.0 / Y[0], -1.0 / Y[0] ** 2, 2.0 / Y[0] ** 3)
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

    def D_m_jet(self, H, aH):
        """Jet in r of (psi_N * a)(H) - a(H) along the jet H, given a(H) as
        the jet aH."""
        return jet_compose(self.a_mollified(H[0]), H) - aH

    def chi_jet(self, r):
        rps = self.sp.r_ps
        return plateau_bump(r, rps - self.chi_outer, rps - self.chi_inner,
                            rps + self.chi_inner, rps + self.chi_outer)

    # -- f1, F, f -------------------------------------------------------------
    def f1_jet(self, r):
        return self._f1_parts(r)[0]

    def _f1_parts(self, r):
        """(f1, h, a(h)): the jet of f1 and the two it is built from, which
        F_jet reuses for its correction."""
        H = self.h_jet(r)
        aH = jet_compose(self.a_of(H[0]), H)
        return self.g_jet(r) + self.c_d * jet_mul(jet_monomial(r, -3), aH), H, aH

    @cached_property
    def achieved_match(self):
        """max |d^k(F - f1)|, k <= 2, on 121 points over r_ps +- chi_outer."""
        grid = np.linspace(self.sp.r_ps - self.chi_outer, self.sp.r_ps + self.chi_outer, 121)
        diff = self.F_jet(grid) - self.f1_jet(grid)
        return float(max(np.max(np.abs(diff[k])) for k in range(3)))

    @cached_property
    def _q2_poly(self):
        """Second-order matching polynomial at the photon sphere."""
        _, H, aH = self._f1_parts(np.asarray([self.sp.r_ps]))
        Dm = self.D_m_jet(H, aH)
        return float(Dm[0][0]), float(Dm[1][0]), float(Dm[2][0])

    def F_jet(self, r):
        """f1 plus the matching correction c_d r^{-3} chi (D_m - Q2).

        The correction is evaluated only where chi is nonzero (inside
        chi_outer of the photon sphere); elsewhere F equals f1."""
        r = np.asarray(r, dtype=float)
        out, H, aH = self._f1_parts(r)
        rps = self.sp.r_ps
        on = (r > rps - self.chi_outer) & (r < rps + self.chi_outer)
        if np.any(on):
            ro = r[on]
            Dm = self.D_m_jet(H[:, on], aH[:, on])
            d0, d1, d2 = self._q2_poly
            dr = ro - rps
            Q2 = np.zeros((4,) + ro.shape)
            Q2[0] = d0 + d1 * dr + 0.5 * d2 * dr**2
            Q2[1] = d1 + d2 * dr
            Q2[2] = d2
            corr = jet_mul(self.chi_jet(ro), Dm - Q2)
            out[:, on] += self.c_d * jet_mul(jet_monomial(ro, -3), corr)
        return out

    def above_horizon(self, r):
        """The horizon cut: True where r > 1 + 1e-13."""
        return r > 1.0 + 1e-13

    def f_jet(self, r):
        """Saturated profile: F above the horizon cut, -2/(eps r^3) at and
        below it.  The saturation r^{-3} rho(eps r^3 F) / eps is the identity
        where eps r^3 F > -1, which validate_profile requires down to the
        first float above the horizon: the transition layer is sub-grid, and
        quadform.integrated_smallness accounts for it."""
        r = np.asarray(r, dtype=float)
        out = np.empty((4,) + r.shape)
        above = self.above_horizon(r)
        below = ~above
        if np.any(below):
            out[:, below] = (-2.0 / self.eps) * jet_monomial(r[below], -3)
        if np.any(above):
            out[:, above] = self.F_jet(r[above])
        return out

    # -- horizon zone ------------------------------------------------------
    # On (1, 1 + HZ_WIDTH] the construction reduces exactly to
    # f = g + c_d r^{-3} h (identity branches of the cap and saturation,
    # matching cutoff zero), for which q1 and the third-order weight have
    # stable closed forms; the generic jet path loses precision there to the
    # cancellation A * h''-type combinations.
    HZ_WIDTH = 1e-4

    def _hz_mask(self, r):
        return (r > 1.0) & (r <= 1.0 + self.HZ_WIDTH)

    def _q1_hz(self, r):
        """Closed-form (q1, q1', q1'', q1''') on the horizon zone."""
        A, A1, A2, A3 = self.A_jet(r)
        k = self.c_d
        q0 = 1.5 * A / r + k * r ** -4
        q1 = 1.5 * (A1 / r - A / r**2) - 4 * k * r ** -5
        q2 = 1.5 * (A2 / r - 2 * A1 / r**2 + 2 * A / r**3) \
            + 20 * k * r ** -6
        q3 = 1.5 * (A3 / r - 3 * A2 / r**2 + 6 * A1 / r**3 - 6 * A / r**4) \
            - 120 * k * r ** -7
        return q0, q1, q2, q3

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
        """Temporal-control weight switching on across (1 + r_ps)/2.

        The transition is centered on the midpoint radius and completes just
        past it, so the weight is strictly positive on the photon-sphere
        verification window."""
        sp = self.sp
        r = np.asarray(r, dtype=float)
        rm = 0.5 * (1.0 + sp.r_ps)
        lo = rm - 0.08
        step = step_jet(r, lo, 0.1)
        core = jet_mul(jet_monomial(r, -6),
                       jet_mul(jet_var(r) - sp.r_ps * jet_const(1.0, r),
                               jet_var(r) - sp.r_ps * jet_const(1.0, r)))
        return jet_mul(step, core)

    def b_jet(self, r):
        """Decreasing bump: 1 at and below the horizon, 0 beyond the support."""
        sh = self.shape
        slope = 1.0 / (sh.b_hi - sh.b_lo)
        return jet_const(1.0, np.asarray(r, dtype=float)) - ramp_jet(
            r, 1 + sh.b_lo, 1 + sh.b_hi, slope, sh.b_w0)

    def gamma_jet(self, r):
        sh = self.shape
        rise = ramp_jet(r, 1 + sh.gamma_rise_lo, 1 + sh.gamma_rise_hi,
                        sh.gamma_rise_slope, sh.gamma_rise_w0)
        peak = sh.gamma_base + sh.gamma_rise_slope * (sh.gamma_rise_hi - sh.gamma_rise_lo)
        fall_width = peak / sh.gamma_fall_slope
        fall = ramp_jet(r, 1 + sh.gamma_fall_lo, 1 + sh.gamma_fall_lo + fall_width,
                        sh.gamma_fall_slope, sh.gamma_fall_w0)
        return jet_const(sh.gamma_base, np.asarray(r, dtype=float)) + rise - fall

    def m_t_jet(self, r, b, gam):
        """Covariant time component of the 1-form (before the delta factor),
        from the jets b = b_jet(r) and gam = gamma_jet(r)."""
        return 2 * jet_mul(jet_monomial(r, -3), jet_mul(b, gam))

    # -- third-order weight ----------------------------------------------------
    def lf(self, r, P):
        """Third-order weight l(P) = -1/4 r^{-3} d[A r^3 d{A r^{-3} d(P r^3)}]
        = -1/2 (A' q1' + A (q1'' + 3 q1'/r)), q1 = q1_jet(r, P), of the
        profile (f or F) with jet P at the radii r (1-d): q1's closed form on
        the horizon zone, 0 at and below the horizon."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        above = self.above_horizon(r)
        ra = r[above]
        A, q = self.A_jet(ra), self.q1_jet(ra, P[:, above])
        out[above] = -0.5 * (A[1] * q[1] + A[0] * (q[2] + 3 * q[1] / ra))
        return out


def build_profiles(sp: SchwParams, alpha_cap: float = MULT_ALPHA_CAP,
                   eps: float = MULT_EPS, delta: float = MULT_DELTA,
                   delta1: float = MULT_DELTA1,
                   eps_match: float = MULT_EPS_MATCH) -> MultiplierProfile:
    """Build and validate the multiplier profile family.

    The mollifier scale N doubles from 1024 until |d^k(F - f1)| < eps_match
    for k <= 2 on the support of the matching cutoff.
    """
    if alpha_cap >= 5.0:
        raise ValueError("alpha_cap must be strictly below 5")
    for n in range(8):
        prof = MultiplierProfile(sp=sp, alpha_cap=alpha_cap, N=1024.0 * 2**n, eps=eps,
                                 delta=delta, delta1=delta1, eps_match=eps_match,
                                 chi_inner=0.05, chi_outer=0.15,
                                 shape=RedshiftShape())
        if prof.achieved_match < eps_match:
            break
    else:
        raise ProfileConstructionFailure(
            f"mollifier scale N = {prof.N} missed the matching bound: "
            f"{prof.achieved_match} >= {eps_match}")
    validate_profile(prof)
    return prof


def validate_profile(prof: MultiplierProfile):
    """Grid checks of the inequality constraints the construction must meet."""
    rps = prof.sp.r_ps
    # the radii checked below: the first float above r = 1, a finite-difference
    # stencil and two grids.  The jets are elementwise, so each is evaluated
    # once on all the radii it is checked on.
    r_probe = 1.0 + 4.4e-16
    r_fd = np.array([1.07, 1.3, 1.01 * 2.0 ** 0.5, 2.2, 6.0])
    h = 1e-5
    stencil = np.concatenate([r_fd, r_fd + h, r_fd - h, r_fd + h / 2, r_fd - h / 2])
    n_st = stencil.size
    r = np.sort(np.concatenate([np.linspace(1.001, 20.0, 1500),
                                rps + np.linspace(-0.2, 0.2, 301)]))
    rg = np.linspace(0.8, 1.6, 2001)
    r_F = np.concatenate([[r_probe], stencil, r])
    F_all = prof.F_jet(r_F)
    F_st, F = np.split(F_all[:, 1:], [n_st], axis=1)
    B_st, B = np.split(prof.b_jet(np.concatenate([stencil, rg])), [n_st], axis=1)
    G_st, G, G_rs = np.split(prof.gamma_jet(np.concatenate([stencil, rg, [1.0]])),
                             [n_st, n_st + rg.size], axis=1)
    f_st = prof.f_jet(stencil)
    # saturation transition must sit below grid resolution: eps r^3 F > -1
    # at the first float above r = 1 and on every radius F is evaluated on
    # here, so f_jet's identity branch and the horizon-zone closed forms apply
    eps_W = prof.eps * r_F ** 3 * F_all[0]
    bad = eps_W <= -1.0
    if bad.any():
        raise ProfileConstructionFailure(
            f"eps = {prof.eps} puts the saturation transition on-grid "
            f"(eps * W = {eps_W[bad][:3]} <= -1 at r = {r_F[bad][:3]})")
    # analytic derivatives must agree with Richardson finite differences
    for name, J in (("F_jet", F_st), ("f_jet", f_st), ("q1_jet", prof.q1_jet(stencil, f_st)),
                    ("b_jet", B_st), ("gamma_jet", G_st)):
        J = J.reshape(4, 5, r_fd.size)
        fd = richardson_combine(*J[0, 1:], h)
        err = np.abs(J[1, 0] - fd) / np.maximum(1.0, np.abs(fd))
        if err.max() > 1e-8:
            raise DifferentiationError(
                f"{name} first derivative off by {err.max():.2e} "
                f"at r = {r_fd[np.argmax(err)]}")
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
    if np.any(G[0] < -1e-12) or np.any(G[0] > 1.0):
        raise ProfileConstructionFailure("gamma outside [0, 1]")
    if np.any(G[1] <= -1.0):
        raise ProfileConstructionFailure("gamma slope at or below -1")
    if np.any(G[0][rg >= rps] > 1e-12):
        raise ProfileConstructionFailure("gamma support reaches the photon sphere")
    if G_rs[0][0] <= 0:
        raise ProfileConstructionFailure("gamma(1) must be positive")
    if np.any(B[0] < -1e-12):
        raise ProfileConstructionFailure("b negative")
    support_end = 1 + prof.shape.b_hi + prof.shape.b_w0
    if support_end > (1 + 3 * rps) / 4 + 1e-12:
        raise ProfileConstructionFailure("b support exceeds (1 + 3 r_ps)/4")
    sel = (rg >= 1.0) & (rg <= support_end)
    if np.any(B[1][sel] > 1e-10):
        raise ProfileConstructionFailure("b not decreasing beyond the horizon")
    hi = rg > support_end + 1e-9
    if np.any(np.abs(B[0][hi]) > 1e-12):
        raise ProfileConstructionFailure("b support exceeds its window")
    return True
