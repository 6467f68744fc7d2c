"""Exact metric evaluation for the (1+4)-dimensional rotating black hole.

Coordinates (t, x, theta, phi, psi) with x = r^2.  The covariant matrix is
assembled by expanding the line element; the contravariant one uses the
closed-form inverse components.  Both carry the mostly-plus signature.
"""

from dataclasses import dataclass
import math

import numpy as np

from .params import BlackHoleParams, CoordinateSingularity, horizons

POLE_TOL = 1e-8


@dataclass(frozen=True)
class ChartPoint:
    t: float
    x: float
    theta: float
    phi: float = 0.0
    psi: float = 0.0

    @property
    def r(self) -> float:
        return math.sqrt(self.x)


def check_point(params: BlackHoleParams, point: ChartPoint):
    if point.x <= 0:
        raise CoordinateSingularity(f"x = {point.x} <= 0")
    st, ct = math.sin(point.theta), math.cos(point.theta)
    if abs(st) < POLE_TOL or abs(ct) < POLE_TOL:
        raise CoordinateSingularity(f"theta = {point.theta} within {POLE_TOL} of a pole")
    hz = horizons(params)
    if point.x <= hz.x_plus:
        raise CoordinateSingularity(f"x = {point.x} not outside the horizon x_+ = {hz.x_plus}")


def covariant_metric(params: BlackHoleParams, point: ChartPoint) -> np.ndarray:
    """5x5 covariant metric in (t, x, theta, phi, psi), from the line element.

    A witness: no task reads it.  Its numerical inverse checks the closed-form
    contravariant components (criterion 1 and the perfbench checks)."""
    a, b = params.a, params.b
    x, th = point.x, point.theta
    s2 = math.sin(th) ** 2
    c2 = math.cos(th) ** 2
    rho2 = x + a * a * c2 + b * b * s2
    k = 1.0 / rho2
    # null 1-form weights of (dt, dphi, dpsi) in the squared term
    w_t, w_ph, w_ps = 1.0, a * s2, b * c2
    g = np.zeros((5, 5))
    g[0, 0] = -1.0 + k * w_t * w_t
    g[0, 3] = g[3, 0] = k * w_t * w_ph
    g[0, 4] = g[4, 0] = k * w_t * w_ps
    g[3, 3] = (x + a * a) * s2 + k * w_ph * w_ph
    g[4, 4] = (x + b * b) * c2 + k * w_ps * w_ps
    g[3, 4] = g[4, 3] = k * w_ph * w_ps
    g[1, 1] = rho2 / (4.0 * params.Delta(x))
    g[2, 2] = rho2
    return g


def contravariant_metric(params: BlackHoleParams, point: ChartPoint) -> np.ndarray:
    """5x5 inverse metric from the closed-form components."""
    gtt, gtph, gtps, gphph, gpsps, gphps, gxx, gthth = \
        inverse_metric_components(params, point.x, point.theta)
    gi = np.zeros((5, 5))
    gi[0, 0] = gtt
    gi[0, 3] = gi[3, 0] = gtph
    gi[0, 4] = gi[4, 0] = gtps
    gi[3, 3] = gphph
    gi[4, 4] = gpsps
    gi[3, 4] = gi[4, 3] = gphps
    gi[1, 1] = gxx
    gi[2, 2] = gthth
    return gi


def metric_pair(params: BlackHoleParams, point: ChartPoint):
    """(covariant, contravariant); raises CoordinateSingularity off-domain.

    A witness: the inversion tests compare the two matrices; no task calls it."""
    check_point(params, point)
    Delta = params.Delta(point.x)
    if Delta <= 0:
        raise CoordinateSingularity(f"Delta = {Delta} <= 0 at x = {point.x}")
    return covariant_metric(params, point), contravariant_metric(params, point)


# ---------------------------------------------------------------------------
# closed-form contravariant components and the quadratic form they define:
# the symbol p = g^{ab} xi_a xi_b read by the geodesic flow, the trapping
# polynomial's oracle and the frequency roots.
# ---------------------------------------------------------------------------

def inverse_metric_components(params: BlackHoleParams, x: float, theta: float):
    """Tuple (gtt, gtph, gtps, gphph, gpsps, gphps, gxx, gthth)."""
    a, b = params.a, params.b
    a2, b2 = a * a, b * b
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    D = params.Delta(x)
    rho2 = x + a2 * c2 + b2 * s2
    gtt = ((a2 - b2) * s2 - (x + a2) * (D + (x + b2)) / D) / rho2
    gtph = a * (x + b2) / (rho2 * D)
    gtps = b * (x + a2) / (rho2 * D)
    gphph = (1.0 / s2 - ((a2 - b2) * (x + b2) + b2) / D) / rho2
    gpsps = (1.0 / c2 + ((a2 - b2) * (x + a2) - a2) / D) / rho2
    gphps = -a * b / (rho2 * D)
    gxx = 4.0 * D / rho2
    gthth = 1.0 / rho2
    return gtt, gtph, gtps, gphph, gpsps, gphps, gxx, gthth


def inverse_metric_form(g, tau, Xi, Theta, Phi, Psi):
    """g^{ab} xi_a xi_b for the covector (tau, Xi, Theta, Phi, Psi), with g the
    eight components in the order of `inverse_metric_components`."""
    gtt, gtph, gtps, gphph, gpsps, gphps, gxx, gthth = g
    return (gtt * tau**2 + 2 * gtph * tau * Phi + 2 * gtps * tau * Psi
            + gphph * Phi**2 + gpsps * Psi**2 + 2 * gphps * Phi * Psi
            + gxx * Xi**2 + gthth * Theta**2)
