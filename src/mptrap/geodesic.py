"""Null geodesics of the rotating five-dimensional black hole.

The flow integrated is that of H = p/2 with p = g^{ab} xi_a xi_b, so that the
overdot normalization matches the separated first-order system: along exact
null geodesics rho^4 xdot^2 = 4 X(x) with X the cubic radial potential, and
rho^4 thetadot^2 equals the angular potential.
"""

from dataclasses import dataclass
from enum import Enum
import csv
import math

import numpy as np

from .params import (BlackHoleParams, CoordinateSingularity, InvalidConstants,
                     NoTrappedSphere, horizons)
from .geometry import (inverse_metric_components, inverse_metric_form,
                       inverse_metric_x_derivatives,
                       inverse_metric_theta_derivatives)


@dataclass(frozen=True)
class Covector:
    tau: float
    Xi: float
    Theta: float
    Phi: float
    Psi: float


@dataclass(frozen=True)
class PhasePoint:
    t: float
    x: float
    theta: float
    phi: float
    psi: float
    momentum: Covector


@dataclass(frozen=True)
class ConservedQuantities:
    E: float
    Phi: float
    Psi: float
    K: float

    def calE(self, params: BlackHoleParams, x: float) -> float:
        return self.E + params.a * self.Phi / (x + params.a**2) \
            + params.b * self.Psi / (x + params.b**2)


def hamiltonian(params: BlackHoleParams, x, theta, tau, Xi, Theta, Phi, Psi):
    """p = g^{ab} xi_a xi_b (vanishes on null geodesics)."""
    return inverse_metric_form(inverse_metric_components(params, x, theta),
                               tau, Xi, Theta, Phi, Psi)


def null_Xi(params: BlackHoleParams, x, theta, tau, Theta, Phi, Psi, sign=+1):
    """Solve the null constraint for Xi at fixed remaining fiber variables."""
    g = inverse_metric_components(params, x, theta)
    rest = inverse_metric_form(g, tau, 0.0, Theta, Phi, Psi)
    val = -rest / g[6]
    if val < 0:
        raise InvalidConstants(f"no real null Xi: -rest/gxx = {val} < 0")
    return sign * math.sqrt(val)


def angular_potential(params: BlackHoleParams, theta, cq: ConservedQuantities):
    """Theta_pot(theta) = E^2(a^2 cos^2 + b^2 sin^2) - Phi^2/sin^2 - Psi^2/cos^2 + K."""
    st2 = math.sin(theta) ** 2
    ct2 = math.cos(theta) ** 2
    return (cq.E**2 * (params.a**2 * ct2 + params.b**2 * st2)
            - cq.Phi**2 / st2 - cq.Psi**2 / ct2 + cq.K)


def carter_constant(params: BlackHoleParams, theta, tau, Theta, Phi, Psi):
    """K = Theta^2 - tau^2(a^2 cos^2 + b^2 sin^2) + Phi^2/sin^2 + Psi^2/cos^2.

    This solves the theta-separated equation rho^4 thetadot^2 = Theta_pot
    for K, using thetadot = Theta/rho^2 from the Hamiltonian flow.
    """
    st2, ct2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    return (Theta**2 - tau**2 * (params.a**2 * ct2 + params.b**2 * st2)
            + Phi**2 / st2 + Psi**2 / ct2)


def conserved_from_state(params: BlackHoleParams, pp: PhasePoint) -> ConservedQuantities:
    """E = -p_t, angular momenta, and the Carter-type constant."""
    if abs(math.sin(pp.theta)) < 1e-8 or abs(math.cos(pp.theta)) < 1e-8:
        raise CoordinateSingularity("theta too close to a pole")
    m = pp.momentum
    K = carter_constant(params, pp.theta, m.tau, m.Theta, m.Phi, m.Psi)
    return ConservedQuantities(E=-m.tau, Phi=m.Phi, Psi=m.Psi, K=K)


# ---------------------------------------------------------------------------
# radial potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialPotential:
    """Cubic radial potential; provenance 'A' keeps the rational form, 'B' the cubic."""

    params: BlackHoleParams
    cq: ConservedQuantities

    def delta(self, x):
        a2, b2, rs2 = self.params.a**2, self.params.b**2, self.params.r_s**2
        return (x + a2) * (x + b2) - rs2 * x

    def form_A(self, x):
        p, c = self.params, self.cq
        a2, b2, rs2 = p.a**2, p.b**2, p.r_s**2
        calE = c.calE(p, x)
        return (self.delta(x) * (c.E**2 * x
                                 + (a2 - b2) * (c.Phi**2 / (x + a2) - c.Psi**2 / (x + b2))
                                 - c.K)
                + rs2 * (x + a2) * (x + b2) * calE**2)

    def form_B(self, x):
        p, c = self.params, self.cq
        a, b, rs2 = p.a, p.b, p.r_s**2
        a2, b2 = a * a, b * b
        return (self.delta(x) * (c.E**2 * x - c.K)
                + (a2 - b2) * (c.Phi**2 * (x + b2) - c.Psi**2 * (x + a2))
                + rs2 * (c.E**2 * (x + a2) * (x + b2)
                         + 2 * a * c.E * c.Phi * (x + b2)
                         + 2 * b * c.E * c.Psi * (x + a2)
                         + (b * c.Phi + a * c.Psi) ** 2))

    def coefficients(self):
        """(c3, c2, c1, c0) of the cubic in x; c3 = E^2."""
        p, c = self.params, self.cq
        a, b, rs2 = p.a, p.b, p.r_s**2
        a2, b2 = a * a, b * b
        E, Ph, Ps, K = c.E, c.Phi, c.Psi, c.K
        c3 = E**2
        c2 = E**2 * (a2 + b2) - K
        c1 = (E**2 * a2 * b2 - K * (a2 + b2 - rs2)
              + (a2 - b2) * (Ph**2 - Ps**2)
              + rs2 * (E**2 * (a2 + b2) + 2 * a * E * Ph + 2 * b * E * Ps))
        c0 = (-K * a2 * b2 + (a2 - b2) * (Ph**2 * b2 - Ps**2 * a2)
              + rs2 * (E**2 * a2 * b2 + 2 * a * E * Ph * b2 + 2 * b * E * Ps * a2
                       + (b * Ph + a * Ps) ** 2))
        return c3, c2, c1, c0

    def derivative(self, x):
        c3, c2, c1, _ = self.coefficients()
        return 3 * c3 * x * x + 2 * c2 * x + c1


class RadialClass(Enum):
    ESCAPE_ONLY = "EscapeOnly"
    SINGLE_RIGHT_TURNING = "SingleRightTurning"
    TWO_TURNING_POINTS = "TwoTurningPoints"
    DOUBLE_ROOT = "DoubleRoot"
    FALLS_IN = "FallsIn"


@dataclass(frozen=True)
class RadialClassification:
    kind: RadialClass
    turning_points: tuple = ()
    boundary_case: bool = False


DOUBLE_ROOT_TOL = 1e-7


def radial_classification(params: BlackHoleParams,
                          cq: ConservedQuantities) -> RadialClassification:
    """Root structure of the radial potential beyond the outer horizon."""
    hz = horizons(params)
    pot = RadialPotential(params, cq)
    if cq.E == 0 and cq.K == 0:
        raise InvalidConstants("E = K = 0 is not admissible for null geodesics")
    if abs(cq.E) < 1e-300 and abs(cq.K) < 1e-300 and cq.Phi == 0 and cq.Psi == 0:
        raise InvalidConstants("all conserved quantities vanish")

    c3, c2, c1, c0 = pot.coefficients()
    if cq.E == 0:
        if cq.K <= 0:
            raise InvalidConstants("E = 0 requires K > 0")
        roots = np.roots([c2, c1, c0])  # quadratic, leading coefficient -K
    else:
        roots = np.roots([c3, c2, c1, c0])
    real = []
    for z in roots:
        if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)):
            xr = z.real
            for _ in range(3):  # Newton polish on form B
                d = pot.derivative(xr)
                if d != 0:
                    xr -= pot.form_B(xr) / d
            real.append(xr)
    beyond = sorted(x for x in real if x > hz.x_plus * (1 + 1e-12))
    boundary = abs(pot.form_B(hz.x_plus)) < 1e-12 * max(1.0, abs(c0))

    if cq.E == 0:
        # single zero of multiplicity one, sign change + to -
        return RadialClassification(RadialClass.SINGLE_RIGHT_TURNING,
                                    tuple(beyond), boundary_case=boundary)
    if len(beyond) == 0:
        return RadialClassification(RadialClass.ESCAPE_ONLY, (), boundary)
    if len(beyond) == 1:
        # single root beyond the horizon can only be (numerically) a double root
        return RadialClassification(RadialClass.DOUBLE_ROOT, (beyond[0],), boundary)
    x1, x2 = beyond[0], beyond[-1]
    if abs(x2 - x1) < DOUBLE_ROOT_TOL * params.r_s**2:
        return RadialClassification(RadialClass.DOUBLE_ROOT, (0.5 * (x1 + x2),), boundary)
    return RadialClassification(RadialClass.TWO_TURNING_POINTS, (x1, x2), boundary)


@dataclass(frozen=True)
class TrappedSphere:
    x0: float
    K_hat: float


def trapped_sphere(params: BlackHoleParams, phi_hat: float, psi_hat: float,
                   eps0: float = 0.3, tol: float = 1e-13) -> TrappedSphere:
    """Double root of the radial potential at E = 1: X(x0) = X'(x0) = 0.

    The potential is linear in K, X = G(x) - K Delta(x), so the double-root
    condition reduces to the scalar equation h(x) = G'(x)Delta - G Delta' = 0
    with K_hat = G(x0)/Delta(x0).  Newton seeded at 2 r_s^2 with bisection
    fallback.
    """
    params.require_small_spin(eps0)
    a, b, rs2 = params.a, params.b, params.r_s**2
    a2, b2 = a * a, b * b
    hz = horizons(params)
    E, Ph, Ps = 1.0, phi_hat, psi_hat

    def G(x):
        D = (x + a2) * (x + b2) - rs2 * x
        return (D * E**2 * x + (a2 - b2) * (Ph**2 * (x + b2) - Ps**2 * (x + a2))
                + rs2 * (E**2 * (x + a2) * (x + b2) + 2 * a * E * Ph * (x + b2)
                         + 2 * b * E * Ps * (x + a2) + (b * Ph + a * Ps) ** 2))

    def G1(x):
        D = (x + a2) * (x + b2) - rs2 * x
        D1 = 2 * x + a2 + b2 - rs2
        return (D1 * E**2 * x + D * E**2 + (a2 - b2) * (Ph**2 - Ps**2)
                + rs2 * (E**2 * (2 * x + a2 + b2) + 2 * a * E * Ph + 2 * b * E * Ps))

    def G2(x):
        D1 = 2 * x + a2 + b2 - rs2
        return 2 * E**2 * x + 2 * D1 * E**2 + 2 * rs2 * E**2

    def Dl(x):
        return (x + a2) * (x + b2) - rs2 * x

    def Dl1(x):
        return 2 * x + a2 + b2 - rs2

    def h(x):
        return G1(x) * Dl(x) - G(x) * Dl1(x)

    def h1(x):
        return G2(x) * Dl(x) - 2.0 * G(x)

    x0 = 2.0 * rs2
    converged = False
    for _ in range(50):
        hv, hd = h(x0), h1(x0)
        if hd == 0:
            break
        step = hv / hd
        x0 -= step
        if abs(step) < tol * max(1.0, abs(x0)):
            converged = True
            break
    if not converged or not (x0 > hz.x_plus) or not math.isfinite(x0):
        # bisection fallback on [x_plus(1+1e-6), 10 r_s^2]
        lo, hi = hz.x_plus * (1 + 1e-6), 10.0 * rs2
        if h(lo) * h(hi) > 0:
            raise NoTrappedSphere("Newton failed and no sign change for bisection")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if h(lo) * h(mid) <= 0:
                hi = mid
            else:
                lo = mid
        x0 = 0.5 * (lo + hi)
        for _ in range(5):
            hv, hd = h(x0), h1(x0)
            if hd != 0:
                x0 -= hv / hd
    K_hat = G(x0) / Dl(x0)
    cq = ConservedQuantities(E=1.0, Phi=phi_hat, Psi=psi_hat, K=K_hat)
    pot = RadialPotential(params, cq)
    if abs(pot.form_B(x0)) > 1e-9 * max(1.0, abs(G(x0))) or \
       abs(pot.derivative(x0)) > 1e-8 * max(1.0, abs(G1(x0))):
        raise NoTrappedSphere(
            f"double-root residuals too large at x0 = {x0}")
    return TrappedSphere(x0=x0, K_hat=K_hat)


# ---------------------------------------------------------------------------
# Hamiltonian integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    lam: np.ndarray
    states: np.ndarray          # columns: t, x, theta, phi, psi, Xi, Theta
    tau: float
    Phi: float
    Psi: float
    termination: str            # 'span', 'horizon', 'escaped'
    p_drift: float = 0.0
    K_drift: float = 0.0
    sep_residual: float = 0.0

    def _carter(self, params: BlackHoleParams, i: int) -> float:
        _, _, th, _, _, _, Th = self.states[:, i]
        return carter_constant(params, th, self.tau, Th, self.Phi, self.Psi)

    def export_csv(self, path, params: BlackHoleParams):
        K0 = self._carter(params, 0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "t", "r", "theta", "phi", "psi", "tau",
                        "xi", "Theta", "Phi", "Psi", "p_residual", "K_drift"])
            for i, lv in enumerate(self.lam):
                t, x, th, ph, ps, Xi, Th = self.states[:, i]
                r = math.sqrt(x)
                pres = hamiltonian(params, x, th, self.tau, Xi, Th, self.Phi, self.Psi)
                Kv = self._carter(params, i)
                w.writerow([f"{v:.16e}" for v in
                            (lv, t, r, th, ph, ps, self.tau, 2 * r * Xi, Th,
                             self.Phi, self.Psi, pres, Kv - K0)])


def _rhs(params: BlackHoleParams, tau, Phi, Psi):
    def rhs(lam, y):
        t, x, th, ph, ps, Xi, Th = y
        gtt, gtph, gtps, gphph, gpsps, gphps, gxx, gthth = \
            inverse_metric_components(params, x, th)
        tdot = gtt * tau + gtph * Phi + gtps * Psi
        xdot = gxx * Xi
        thdot = gthth * Th
        phdot = gtph * tau + gphph * Phi + gphps * Psi
        psdot = gtps * tau + gphps * Phi + gpsps * Psi
        Xidot = -0.5 * inverse_metric_form(
            inverse_metric_x_derivatives(params, x, th), tau, Xi, Th, Phi, Psi)
        Thdot = -0.5 * inverse_metric_form(
            inverse_metric_theta_derivatives(params, x, th), tau, Xi, Th, Phi, Psi)
        return (tdot, xdot, thdot, phdot, psdot, Xidot, Thdot)
    return rhs


def integrate_geodesic(params: BlackHoleParams, init: PhasePoint,
                       affine_span: float, tol: float = 1e-10,
                       x_escape: float = None, n_samples: int = 400) -> Trajectory:
    """Adaptive high-order integration of the Hamilton flow of p/2.

    Terminates gracefully at the horizon (Delta crossing a small pad) or at
    the escape radius.  Diagnostics: max |p| drift, Carter-constant drift,
    and the separated-equation residual rho^4 xdot^2 - 4 X along the path.
    """
    from scipy.integrate import solve_ivp
    hz = horizons(params)
    m = init.momentum
    p0 = hamiltonian(params, init.x, init.theta, m.tau, m.Xi, m.Theta, m.Phi, m.Psi)
    if abs(p0) > 1e-10 * max(1.0, m.tau**2):
        raise InvalidConstants(f"initial data not null: p = {p0}")
    if x_escape is None:
        x_escape = max(100.0 * params.r_s**2, 4.0 * init.x)
    x_pad = hz.x_plus * (1 + 1e-6) if hz.x_plus > 0 else 1e-8 * params.r_s**2

    def ev_horizon(lam, y):
        return y[1] - x_pad
    ev_horizon.terminal = True
    ev_horizon.direction = -1

    def ev_escape(lam, y):
        return y[1] - x_escape
    ev_escape.terminal = True
    ev_escape.direction = +1

    y0 = (init.t, init.x, init.theta, init.phi, init.psi, m.Xi, m.Theta)
    sol = solve_ivp(_rhs(params, m.tau, m.Phi, m.Psi), (0.0, affine_span), y0,
                    method="DOP853", rtol=tol, atol=tol,
                    dense_output=False, events=(ev_horizon, ev_escape),
                    t_eval=np.linspace(0.0, affine_span, n_samples))
    if not sol.success and sol.status == 0:
        raise RuntimeError(f"integration failed: {sol.message}")
    term = "span"
    lam = sol.t
    states = sol.y
    if sol.status == 1:
        if len(sol.t_events[0]) > 0:
            term = "horizon"
        elif len(sol.t_events[1]) > 0:
            term = "escaped"
        # append the event state
        for k in (0, 1):
            if len(sol.t_events[k]) > 0:
                lam = np.append(lam, sol.t_events[k][0])
                states = np.column_stack([states, sol.y_events[k][0]])

    cq0 = conserved_from_state(params, PhasePoint(
        t=init.t, x=init.x, theta=init.theta, phi=init.phi, psi=init.psi,
        momentum=m))
    p_max, K_max, sep_max = 0.0, 0.0, 0.0
    pot = RadialPotential(params, cq0)
    for i in range(states.shape[1]):
        t, x, th, ph, ps, Xi, Th = states[:, i]
        pv = hamiltonian(params, x, th, m.tau, Xi, Th, m.Phi, m.Psi)
        p_max = max(p_max, abs(pv))
        Kv = carter_constant(params, th, m.tau, Th, m.Phi, m.Psi)
        K_max = max(K_max, abs(Kv - cq0.K))
        D = pot.delta(x)
        sep = 16.0 * D * D * Xi * Xi - 4.0 * pot.form_B(x)
        scale = max(1.0, abs(4.0 * pot.form_B(x)), 16.0 * D * D * Xi * Xi)
        sep_max = max(sep_max, abs(sep) / scale)
    return Trajectory(lam=lam, states=states, tau=m.tau, Phi=m.Phi, Psi=m.Psi,
                      termination=term, p_drift=p_max, K_drift=K_max,
                      sep_residual=sep_max)
