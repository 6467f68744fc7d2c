"""Horizon-penetrating chart for the static hyperspherical black hole.

The time function is vtilde = t + r_star - mu(r) with mu chosen so that
vtilde = const slices are spacelike everywhere, and mu = r_star away from
the horizon where the chart reduces to the static one.  The 2x2
(vtilde, r) metric block always has determinant -1, which makes the block
inverse exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .params import SchwParams, ChartConstructionFailure
from .smooth import step_jet, integrate_gl


def tortoise(sp: SchwParams, r):
    """r_star(r) with r_star(r_ps) = 0, for r > r_s.

    d = 1 uses the closed-form antiderivative of 1/A; other d integrate
    1/A numerically (relative tolerance 1e-12).
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    rv = np.atleast_1d(r)
    if np.any(rv <= sp.r_s):
        raise ValueError("tortoise coordinate defined for r > r_s only")
    if sp.d == 1:
        rs = sp.r_s

        def F(rr):
            return rr + 0.5 * rs * np.log((rr - rs) / (rr + rs))

        out = F(rv) - F(sp.r_ps)
    else:
        from scipy.integrate import quad
        out = np.empty_like(rv)
        for i, ri in enumerate(rv):
            val, _ = quad(lambda s: 1.0 / sp.A(s), sp.r_ps, ri,
                          epsrel=1e-12, epsabs=1e-14, limit=200)
            out[i] = val
    return float(out[0]) if scalar else out


@dataclass
class IngoingChart:
    """Chart data: callables for A, mu', mu'' and the (vtilde, r) block."""

    sp: SchwParams
    r_e: float
    r_max: float
    r_match: float = field(init=False)   # mu = r_star beyond this radius
    r_blend_lo: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.r_e < self.sp.r_s < self.r_max):
            raise ValueError("need 0 < r_e < r_s < r_max")
        self.r_match = 0.5 * (self.sp.r_s + self.sp.r_ps)
        self.r_blend_lo = self.sp.r_s + 0.35 * (self.r_match - self.sp.r_s)
        self._mu_anchor = tortoise(self.sp, self.r_match)
        self.validate()

    # -- lapse ------------------------------------------------------------
    def A(self, r):
        return self.sp.A(np.asarray(r, dtype=float))

    def A1(self, r):
        return self.sp.A1(np.asarray(r, dtype=float))

    # -- mu profile --------------------------------------------------------
    def _blend(self, r):
        """Jet of the step from 0 at r_blend_lo to 1 at r_match."""
        return step_jet(r, self.r_blend_lo, self.r_match - self.r_blend_lo)

    def mu_prime(self, r):
        """mu' = 1/A for r >= r_match, blended to 1 near and through the horizon."""
        r = np.asarray(r, dtype=float)
        s = self._blend(r)[0]
        safe = np.where(r > self.r_blend_lo, r, self.r_match)
        Ainv = 1.0 / self.A(safe)
        return np.where(r <= self.r_blend_lo, 1.0, s * Ainv + (1.0 - s))

    def mu_pp(self, r):
        r = np.asarray(r, dtype=float)
        s, s1 = self._blend(r)[:2]
        safe = np.where(r > self.r_blend_lo, r, self.r_match)
        A = self.A(safe)
        A1 = self.A1(safe)
        return np.where(r <= self.r_blend_lo, 0.0,
                        s1 * (1.0 / A - 1.0) + s * (-A1 / A**2))

    def mu(self, r):
        """mu(r), equal to r_star above r_match.  Below it, r_star(r_match)
        less the integral of mu' up to r_match: a 128-node Gauss-Legendre sum
        above r_blend_lo plus the length of the stretch below, where mu' = 1."""
        r = np.asarray(r, dtype=float)
        rv = np.atleast_1d(r)
        out = np.empty_like(rv)
        hi = rv >= self.r_match
        out[hi] = tortoise(self.sp, rv[hi])
        lo = rv[~hi]
        a = np.maximum(lo, self.r_blend_lo)
        out[~hi] = self._mu_anchor - integrate_gl(self.mu_prime, a, self.r_match, 128) - (a - lo)
        return float(out[0]) if r.ndim == 0 else out

    # -- metric block -------------------------------------------------------
    def block(self, r):
        """(g_vv, g_vr, g_rr) of the (vtilde, r) block; sphere factor is r^2."""
        r = np.asarray(r, dtype=float)
        A = self.A(r)
        M = self.mu_prime(r)
        return -A, 1.0 - A * M, M * (2.0 - A * M)

    def block_inverse(self, r):
        """(g^vv, g^vr, g^rr); exact because the block determinant is -1."""
        r = np.asarray(r, dtype=float)
        A = self.A(r)
        M = self.mu_prime(r)
        return -M * (2.0 - A * M), 1.0 - A * M, A

    # -- validation ----------------------------------------------------------
    def validate(self):
        r = np.linspace(self.r_e, self.r_max, 2048)
        M = self.mu_prime(r)
        A = self.A(r)
        if np.any(M <= 0):
            raise ChartConstructionFailure("mu' <= 0 on grid")
        if np.any(2.0 - A * M <= 0):
            raise ChartConstructionFailure("2 - A mu' <= 0 on grid")
        _, _, g_rr = self.block(r)
        if np.any(g_rr <= 0):
            raise ChartConstructionFailure("induced slice metric not positive definite")
        # mu >= r_star for r > r_s (equality beyond r_match)
        rr = np.linspace(self.sp.r_s * 1.0005, self.r_max, 257)
        gap = self.mu(rr) - tortoise(self.sp, rr)
        if np.any(gap < -1e-9 * self.sp.r_s):
            raise ChartConstructionFailure("mu < r_star above the horizon")
        return True


def ingoing_chart(sp: SchwParams, r_e: float, r_max: float) -> IngoingChart:
    return IngoingChart(sp=sp, r_e=r_e, r_max=r_max)
