"""Horizon-penetrating chart for the static hyperspherical black hole.

The time function is vtilde = t + r_star - mu(r); the metric reads only mu'.
Beyond r_match, mu' = 1/A and the chart is the static one; below it mu' is
blended to 1 near and through the horizon, so that vtilde = const slices are
spacelike everywhere (mu' > 0 and 2 - A mu' > 0).  The 2x2 (vtilde, r)
metric block always has determinant -1, which makes the block inverse exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .params import SchwParams, ChartConstructionFailure
from .smooth import step_jet


@dataclass
class IngoingChart:
    """Chart data: mu', mu'' and the (vtilde, r) block; the lapse A and its
    derivative are sp.A and sp.A1."""

    sp: SchwParams
    r_e: float
    r_max: float
    r_match: float = field(init=False)   # mu' = 1/A beyond this radius
    r_blend_lo: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.r_e < self.sp.r_s < self.r_max):
            raise ValueError("need 0 < r_e < r_s < r_max")
        self.r_match = 0.5 * (self.sp.r_s + self.sp.r_ps)
        self.r_blend_lo = self.sp.r_s + 0.35 * (self.r_match - self.sp.r_s)
        self.validate()

    def mu_derivs(self, r):
        """(mu', mu''): mu' = 1/A for r >= r_match, stepped over
        [r_blend_lo, r_match] to 1 near and through the horizon."""
        r = np.asarray(r, dtype=float)
        s, s1 = step_jet(r, self.r_blend_lo, self.r_match - self.r_blend_lo)[:2]
        safe = np.where(r > self.r_blend_lo, r, self.r_match)
        A = self.sp.A(safe)
        A1 = self.sp.A1(safe)
        inner = r <= self.r_blend_lo
        return (np.where(inner, 1.0, s * (1.0 / A) + (1.0 - s)),
                np.where(inner, 0.0, s1 * (1.0 / A - 1.0) + s * (-A1 / A**2)))

    # -- metric block -------------------------------------------------------
    def block(self, r):
        """(g_vv, g_vr, g_rr) of the (vtilde, r) block; sphere factor is r^2."""
        r = np.asarray(r, dtype=float)
        A = self.sp.A(r)
        M = self.mu_derivs(r)[0]
        return -A, 1.0 - A * M, M * (2.0 - A * M)

    def block_inverse(self, r):
        """(g^vv, g^vr, g^rr); exact because the block determinant is -1."""
        r = np.asarray(r, dtype=float)
        A = self.sp.A(r)
        M = self.mu_derivs(r)[0]
        return -M * (2.0 - A * M), 1.0 - A * M, A

    # -- validation ----------------------------------------------------------
    def validate(self):
        """The slicing conditions on a 2048-point grid; together they make
        the induced slice metric g_rr = mu' (2 - A mu') positive."""
        r = np.linspace(self.r_e, self.r_max, 2048)
        M = self.mu_derivs(r)[0]
        A = self.sp.A(r)
        if np.any(M <= 0):
            raise ChartConstructionFailure("mu' <= 0 on grid")
        if np.any(2.0 - A * M <= 0):
            raise ChartConstructionFailure("2 - A mu' <= 0 on grid")
        return True


def ingoing_chart(sp: SchwParams, r_e: float, r_max: float) -> IngoingChart:
    return IngoingChart(sp=sp, r_e=r_e, r_max=r_max)
