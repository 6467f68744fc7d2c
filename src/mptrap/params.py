"""Black hole parameter types, horizon data, and shared exceptions.

Conventions: geometric units with the Schwarzschild radius parameter r_s = 1
as the unit of length.  Both families are covariant under r -> lam r,
t -> lam t, (a, b) -> lam (a, b), so the unit loses no generality.  The
rotating five-dimensional solution carries two angular momentum parameters
(a, b); x = r^2 is the preferred radial variable for the rotating metric.
"""

from dataclasses import dataclass
import math

# Defaults written once, read by the config table (`cli.CONFIG`, keys
# mult.* and wave.cfl) and by the library signatures
# (`multiplier.build_profiles`, `wavesolver.SolverDomain`).
MULT_ALPHA_CAP = 4.9
MULT_EPS = 0.012
MULT_DELTA = 0.03
MULT_DELTA1 = 0.005
MULT_EPS_MATCH = 1e-3
WAVE_CFL = 0.4


def _require_unit_r_s(r_s):
    if r_s != 1:
        raise ValueError(f"r_s = {r_s!r}: lengths are in units of r_s, so r_s is 1.0")


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

    r_s : Schwarzschild radius parameter, the unit of length; only 1.0.
    a, b : the two angular momentum parameters.
    Real horizons require p <= 0 and p^2 - 4q >= 0 for the coefficients of
    Delta(x) = x^2 + p x + q (`horizon_quadratic`).
    """

    r_s: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        _require_unit_r_s(self.r_s)
        p, _, disc = self.horizon_quadratic()
        if not (disc >= 0 and p <= 0):   # a NaN spin fails both
            raise NakedSingularity(
                f"(a, b) = ({self.a}, {self.b}) has no real horizons"
            )

    def horizon_quadratic(self):
        """(p, q, p^2 - 4q) for Delta(x) = x^2 + p x + q, p = a^2 + b^2 - 1,
        q = a^2 b^2: the one rounding of the discriminant that both the
        admission test above and `horizons` read."""
        p = self.a**2 + self.b**2 - 1.0
        q = self.a**2 * self.b**2
        return p, q, p * p - 4 * q

    def Delta(self, x):
        """Delta(x) = (x + a^2)(x + b^2) - x, whose largest root is the
        outer horizon x_+ (vectorized in x)."""
        return (x + self.a**2) * (x + self.b**2) - x

    def require_small_spin(self, eps0: float):
        if max(abs(self.a), abs(self.b)) > eps0:
            raise ValueError(f"max(|a|,|b|) = {max(abs(self.a), abs(self.b))} exceeds eps0 = {eps0}")


@dataclass(frozen=True)
class SchwParams:
    """Static hyperspherical parameters of the (4+1)-dimensional Tangherlini
    hole.  d = n - 3 is fixed at 1: the energy form, the multiplier shape and
    the mode solver are all derived on the 3-sphere."""

    r_s: float = 1.0
    d: int = 1

    def __post_init__(self):
        _require_unit_r_s(self.r_s)
        if self.d != 1:
            raise ValueError(f"d = {self.d!r}: only d = 1 (the 4+1 case) is implemented")

    @property
    def r_ps(self) -> float:
        """Photon sphere radius sqrt(2)."""
        return 2.0 ** 0.5

    def A(self, r):
        """Lapse factor 1 - (1/r)^2."""
        return 1.0 - (1.0 / r) ** 2

    def A1(self, r):
        return 2 / r ** 3


@dataclass(frozen=True)
class HorizonData:
    """Roots x_minus <= x_plus of the horizon quadratic in x = r^2."""

    x_minus: float
    x_plus: float


def horizons(params: BlackHoleParams) -> HorizonData:
    """Horizon locations x_pm from Delta(x) = (x+a^2)(x+b^2) - x = 0.

    Delta = x^2 + p x + q with p = a^2 + b^2 - 1; BlackHoleParams admits
    only p <= 0 and p^2 - 4q >= 0, read from the same `horizon_quadratic`, so
    x_plus = (-p + sqrt(p^2 - 4q))/2 adds terms of one sign and
    x_minus = q/x_plus avoids the cancellation of the other root.  Each root
    is then polished with two Newton steps.
    """
    p, q, disc = params.horizon_quadratic()
    sq = math.sqrt(disc)
    x_plus = (-p + sq) / 2
    x_minus = q / x_plus if x_plus != 0 else (-p - sq) / 2
    roots = []
    for x in (x_minus, x_plus):
        for _ in range(2):
            d = 2 * x + p
            if d != 0:
                x = x - (x * x + p * x + q) / d
        roots.append(x)
    lo, hi = roots
    # a tie keeps each root in its slot: x_pm = -0.0, 0.0 when ab = 0, a^2 + b^2 = 1
    return HorizonData(x_minus=min(lo, hi), x_plus=max(hi, lo))
