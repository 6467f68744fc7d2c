"""Black hole parameter types, horizon data, and shared exceptions.

Conventions: geometric units, the Schwarzschild radius parameter r_s sets the
length scale.  The rotating five-dimensional solution carries two angular
momentum parameters (a, b); x = r^2 is the preferred radial variable for the
rotating metric.
"""

from dataclasses import dataclass
import math


class NakedSingularity(ValueError):
    """Horizon quadratic has complex roots: parameters violate the real-horizon bound."""


class CoordinateSingularity(ValueError):
    """Evaluation requested at a coordinate degeneracy (horizon or polar axis)."""


class ChartConstructionFailure(RuntimeError):
    """Horizon-penetrating chart violates a slicing condition on the sample grid."""


class InvalidConstants(ValueError):
    """Degenerate set of conserved quantities (all zero, or E = K = 0)."""


class NoTrappedSphere(RuntimeError):
    """Newton iteration for the double root of the radial potential did not converge."""


class OracleFailure(RuntimeError):
    """Finite-difference oracle could not produce a trustworthy value."""


class ProfileConstructionFailure(RuntimeError):
    """Multiplier profile violates a required inequality after refinement."""


class DifferentiationError(RuntimeError):
    """Numerical derivative failed its accuracy cross-check."""


class RedshiftBudgetFailure(RuntimeError):
    """Zeroth-order coefficient n(r) could not be made positive; offending radius attached."""


class BoundaryFormFailure(RuntimeError):
    """Boundary flux form failed its positivity/equivalence check."""


class CBandEmpty(RuntimeError):
    """Admissible band for the calibration constant is empty (spin bound too large)."""


class LowerBoundViolation(RuntimeError):
    """Sum-of-squares failed to dominate the comparison quadratic; witness attached."""


class AssemblyError(RuntimeError):
    """Discrete wave operator assembly failed (slicing condition broken on grid)."""


class InstabilityError(RuntimeError):
    """Time stepping produced NaN/overflow; the violating step index is attached."""


class InconclusiveConvergence(RuntimeError):
    """Convergence study produced non-monotone errors; no order can be fit."""


@dataclass(frozen=True)
class BlackHoleParams:
    """Parameters of the (1+4)-dimensional rotating black hole.

    r_s : Schwarzschild radius parameter (mass scale), r_s > 0.
    a, b : the two angular momentum parameters.
    Real horizons require (r_s^2 - a^2 - b^2)^2 >= 4 a^2 b^2.
    """

    r_s: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not self.r_s > 0:
            raise ValueError(f"r_s must be positive, got {self.r_s}")
        disc = (self.r_s**2 - self.a**2 - self.b**2) ** 2 - 4 * self.a**2 * self.b**2
        if disc < 0 or (self.r_s**2 - self.a**2 - self.b**2) < 0:
            raise NakedSingularity(
                f"(r_s, a, b) = ({self.r_s}, {self.a}, {self.b}) has no real horizons"
            )

    def Delta(self, x):
        """Delta(x) = (x + a^2)(x + b^2) - r_s^2 x, whose largest root is the
        outer horizon x_+ (vectorized in x)."""
        return (x + self.a**2) * (x + self.b**2) - self.r_s**2 * x

    def require_small_spin(self, eps0: float):
        if max(abs(self.a), abs(self.b)) > eps0 * self.r_s:
            raise ValueError(
                f"max(|a|,|b|) = {max(abs(self.a), abs(self.b))} exceeds eps0*r_s = {eps0 * self.r_s}"
            )


@dataclass(frozen=True)
class SchwParams:
    """Static hyperspherical parameters: d = n - 3 (d = 1 is the 4+1 case)."""

    r_s: float = 1.0
    d: int = 1

    def __post_init__(self):
        if not self.r_s > 0:
            raise ValueError(f"r_s must be positive, got {self.r_s}")
        if self.d < 1:
            raise ValueError("d >= 1 required for the sharp lower-order weight")

    @property
    def r_ps(self) -> float:
        """Photon sphere radius ((d+3)/2)^(1/(d+1)) r_s."""
        return ((self.d + 3) / 2.0) ** (1.0 / (self.d + 1)) * self.r_s

    def A(self, r):
        """Lapse factor 1 - (r_s/r)^(d+1)."""
        return 1.0 - (self.r_s / r) ** (self.d + 1)

    def A1(self, r):
        return (self.d + 1) * self.r_s ** (self.d + 1) / r ** (self.d + 2)

    def A2(self, r):
        return -(self.d + 1) * (self.d + 2) * self.r_s ** (self.d + 1) / r ** (self.d + 3)


@dataclass(frozen=True)
class HorizonData:
    """Roots of the horizon quadratic (in x = r^2) and the static photon sphere."""

    x_minus: float
    x_plus: float
    r_ps: float
    x_ps: float


def horizons(params: BlackHoleParams) -> HorizonData:
    """Horizon locations x_pm from Delta(x) = (x+a^2)(x+b^2) - r_s^2 x = 0.

    The quadratic is solved in the numerically stable arrangement and the
    roots polished with one Newton step each.  r_ps is the static-limit
    photon sphere sqrt(2) r_s (d = 1 reference value).
    """
    rs2 = params.r_s**2
    a2, b2 = params.a**2, params.b**2
    # Delta = x^2 + (a^2 + b^2 - r_s^2) x + a^2 b^2
    p = a2 + b2 - rs2
    q = a2 * b2
    disc = p * p - 4 * q
    if disc < 0:
        raise NakedSingularity("horizon quadratic has complex roots")
    sq = math.sqrt(disc)
    # stable: larger-magnitude root first
    if p <= 0:
        x_plus = (-p + sq) / 2
    else:
        x_plus = -2 * q / (p + sq) if (p + sq) != 0 else 0.0
    x_minus = q / x_plus if x_plus != 0 else (-p - sq) / 2

    def dDelta(x):
        return 2 * x + p

    for _ in range(2):  # Newton polish
        for xr in ("plus", "minus"):
            x0 = x_plus if xr == "plus" else x_minus
            d = dDelta(x0)
            if d != 0:
                x0 = x0 - (x0 * x0 + p * x0 + q) / d
                if xr == "plus":
                    x_plus = x0
                else:
                    x_minus = x0
    if x_minus > x_plus:
        x_minus, x_plus = x_plus, x_minus
    r_ps = math.sqrt(2.0) * params.r_s
    return HorizonData(x_minus=x_minus, x_plus=x_plus, r_ps=r_ps, x_ps=r_ps**2)
