"""Null geodesics of the rotating five-dimensional black hole.

The flow integrated is that of H = p/2 with p = g^{ab} xi_a xi_b.  The symbol
separates,

    rho^2 p = 4 Delta Xi^2 + U(x) + Theta^2 + V(theta),
    U'(x) = -R_ab(x, tau, Phi, Psi) / Delta^2,
    V(theta) = tau^2 (a^2 - b^2) sin^2 theta + Phi^2/sin^2 theta + Psi^2/cos^2 theta,

with R_ab the trapping quartic of `trapping`: the quartic is the flow's
radial force, and the trapped spheres (null geodesics of constant x) sit at
its roots.  The overdot normalization matches the separated first-order
system: along exact null geodesics rho^4 xdot^2 = 4 X(x) with X the cubic
radial potential, and rho^4 thetadot^2 equals the angular potential.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .params import (BlackHoleParams, CoordinateSingularity, InvalidConstants,
                     NoTrappedSphere, horizons)
from . import dop853
from .csvtable import write_csv
from .geometry import POLE_TOL, inverse_metric_components, inverse_metric_form
from .trapping import trapped_radius_vec


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
    st2, ct2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    return (Theta**2 - tau**2 * (params.a**2 * ct2 + params.b**2 * st2)
            + Phi**2 / st2 + Psi**2 / ct2)


def conserved_from_state(params: BlackHoleParams, pp: PhasePoint) -> ConservedQuantities:
    """E = -p_t, angular momenta, and the Carter-type constant."""
    if abs(math.sin(pp.theta)) < POLE_TOL or abs(math.cos(pp.theta)) < POLE_TOL:
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

    def form_A(self, x):
        p, c = self.params, self.cq
        a2, b2, rs2 = p.a**2, p.b**2, p.r_s**2
        calE = c.calE(p, x)
        return (p.Delta(x) * (c.E**2 * x
                              + (a2 - b2) * (c.Phi**2 / (x + a2) - c.Psi**2 / (x + b2))
                              - c.K)
                + rs2 * (x + a2) * (x + b2) * calE**2)

    def form_B(self, x):
        p, c = self.params, self.cq
        a, b, rs2 = p.a, p.b, p.r_s**2
        a2, b2 = a * a, b * b
        return (p.Delta(x) * (c.E**2 * x - c.K)
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


def trapped_sphere(params: BlackHoleParams, phi_hat: float,
                   psi_hat: float) -> TrappedSphere:
    """Double root of the radial potential at E = 1: X(x0) = X'(x0) = 0.

    The potential is linear in K, X = G(x) - K Delta(x), so the double-root
    condition G' Delta - G Delta' = 0 is the trapping quartic R_ab at
    (tau, Phi, Psi) = (-1, phi_hat, psi_hat): x0 is its trapped root and
    K_hat = G(x0)/Delta(x0), with G the potential at K = 0.
    """
    params.require_small_spin(0.3)
    x0 = float(trapped_radius_vec(params, -1.0, phi_hat, psi_hat)[0][0]) ** 2
    if math.isnan(x0):
        raise NoTrappedSphere(
            f"no trapped root for (Phi, Psi) = ({phi_hat}, {psi_hat})")
    pot = RadialPotential(params, ConservedQuantities(E=1.0, Phi=phi_hat,
                                                      Psi=psi_hat, K=0.0))
    return TrappedSphere(x0=x0, K_hat=pot.form_B(x0) / params.Delta(x0))


# ---------------------------------------------------------------------------
# Hamiltonian integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    lam: np.ndarray
    states: np.ndarray          # columns: t, x, theta, phi, psi, Xi, Theta
    p: np.ndarray               # Hamiltonian on each state
    K: np.ndarray               # Carter constant on each state
    tau: float
    Phi: float
    Psi: float
    termination: str            # 'span', 'horizon', 'escaped'
    p_drift: float = 0.0
    K_drift: float = 0.0
    sep_residual: float = 0.0

    def export_csv(self, path):
        t, x, th, ph, ps, Xi, Th = self.states
        r = np.sqrt(x)
        write_csv(path, "lambda,t,r,theta,phi,psi,tau,xi,Theta,Phi,Psi,p_residual,K_drift",
                  np.column_stack([
                      self.lam, t, r, th, ph, ps, np.full_like(r, self.tau), 2 * r * Xi,
                      Th, np.full_like(r, self.Phi), np.full_like(r, self.Psi), self.p,
                      self.K - self.K[0]]),
                  newline="\r\n")


def _rhs(params: BlackHoleParams, tau, Phi, Psi):
    """Hamilton's equations of p/2.  The forces d_x p and d_theta p come from
    the separated form of rho^2 p, with d_x rho^2 = 1 and
    d_theta rho^2 = 2 (b^2 - a^2) sin cos.

    One closure holding the arithmetic of `inverse_metric_components`,
    `inverse_metric_form`, `R_ab` and `params.Delta`, expression by
    expression, so that it gives their values to the bit: only whole
    constant sub-expressions and left-most factors of products are hoisted.
    Both roundings of the squared spins are kept, the products a*a, b*b of
    the components and R_ab and the powers a**2, b**2 of Delta and the
    forces, and so are both forms of rho^2 built from them."""
    a, b, rs2 = params.a, params.b, params.r_s**2
    a2, b2 = a * a, b * b                       # components and R_ab
    pa2, pb2 = params.a**2, params.b**2         # Delta and the forces
    d2 = a2 - b2
    # metric-component numerators and prefixes
    a_rs2, b_rs2, ab_rs2 = a * rs2, b * rs2, -a * b * rs2
    b2_rs2, a2_rs2 = b2 * rs2, a2 * rs2
    # R_ab's coefficients, prefixes and constant terms
    two_rs2, ct0 = 2 * rs2, a2 * b2 * rs2 * rs2
    ctp0, cts0, cps0 = 2 * a * rs2, 2 * b * rs2, -2 * a * b * rs2
    # powers of the fibre constants, as `inverse_metric_form` and R_ab take them
    tau_sq, Phi_sq, Psi_sq = tau**2, Phi**2, Psi**2
    # the forces' own products
    Phi2, Psi2 = Phi * Phi, Psi * Psi
    tau2_d = tau * tau * (pa2 - pb2)
    pd2 = pb2 - pa2

    def rhs(lam, y):
        t, x, th, ph, ps, Xi, Th = y.tolist()
        st, ct = math.sin(th), math.cos(th)
        s2, c2 = st**2, ct**2
        D = (x + pa2) * (x + pb2) - rs2 * x
        xa, xb = x + a2, x + b2
        rho2 = x + a2 * c2 + b2 * s2
        rD = rho2 * D
        gtt = (d2 * s2 - xa * (D + rs2 * xb) / D) / rho2
        gtph = a_rs2 * xb / rD
        gtps = b_rs2 * xa / rD
        gphph = (1.0 / s2 - (d2 * xb + b2_rs2) / D) / rho2
        gpsps = (1.0 / c2 + (d2 * xa - a2_rs2) / D) / rho2
        gphps = ab_rs2 / rD
        gxx = 4.0 * D / rho2
        gthth = 1.0 / rho2
        p = (gtt * tau_sq + 2 * gtph * tau * Phi + 2 * gtps * tau * Psi
             + gphph * Phi_sq + gpsps * Psi_sq + 2 * gphps * Phi * Psi
             + gxx * Xi**2 + gthth * Th**2)
        R = ((xa * xa * xb * xb - two_rs2 * x * xa * xb + ct0) * tau_sq
             + ctp0 * (xb * xb - b2_rs2) * tau * Phi
             + cts0 * (xa * xa - a2_rs2) * tau * Psi
             + (b2 * (xb - rs2) ** 2 - a2 * xb * xb) * Phi_sq
             + (a2 * (xa - rs2) ** 2 - b2 * xa * xa) * Psi_sq
             + cps0 * (2 * x + a2 + b2 - rs2) * Phi * Psi)
        rho2_f = x + pa2 * ct * ct + pb2 * st * st
        p_x = (4.0 * (2 * x + pa2 + pb2 - rs2) * Xi * Xi - R / (D * D) - p) / rho2_f
        dV = 2.0 * (tau2_d * st * ct - Phi2 * ct / st**3 + Psi2 * st / ct**3)
        p_th = (dV - 2.0 * p * pd2 * st * ct) / rho2_f
        return (gtt * tau + gtph * Phi + gtps * Psi, gxx * Xi, gthth * Th,
                gtph * tau + gphph * Phi + gphps * Psi,
                gtps * tau + gphps * Phi + gpsps * Psi, -0.5 * p_x, -0.5 * p_th)
    return rhs


def integrate_geodesic(params: BlackHoleParams, init: PhasePoint,
                       affine_span: float, tol: float = 1e-10,
                       x_escape: float = None, n_samples: int = 400) -> Trajectory:
    """Adaptive high-order integration of the Hamilton flow of p/2.

    Terminates gracefully at the horizon (Delta crossing a small pad) or at
    the escape radius.  Diagnostics: max |p| drift, Carter-constant drift,
    and the separated-equation residual rho^4 xdot^2 - 4 X along the path.
    Raises RuntimeError if the step size collapses before the span ends.
    """
    hz = horizons(params)
    m = init.momentum
    p0 = hamiltonian(params, init.x, init.theta, m.tau, m.Xi, m.Theta, m.Phi, m.Psi)
    if abs(p0) > 1e-10 * max(1.0, m.tau**2):
        raise InvalidConstants(f"initial data not null: p = {p0}")
    if x_escape is None:
        x_escape = max(100.0 * params.r_s**2, 4.0 * init.x)
    x_pad = hz.x_plus * (1 + 1e-6) if hz.x_plus > 0 else 1e-8 * params.r_s**2
    events = ((lambda lam, y: y[1] - x_pad, -1),
              (lambda lam, y: y[1] - x_escape, +1))

    y0 = (init.t, init.x, init.theta, init.phi, init.psi, m.Xi, m.Theta)
    lam, states, hit = dop853.integrate(
        _rhs(params, m.tau, m.Phi, m.Psi), y0, affine_span, tol,
        np.linspace(0.0, affine_span, n_samples), events)
    term = "span"
    if hit is not None:
        k, lam_k, y_k = hit
        term = ("horizon", "escaped")[k]
        lam = np.append(lam, lam_k)
        states = np.column_stack([states, y_k])

    cq0 = conserved_from_state(params, PhasePoint(
        t=init.t, x=init.x, theta=init.theta, phi=init.phi, psi=init.psi,
        momentum=m))
    t, x, th, ph, ps, Xi, Th = states
    pv = hamiltonian(params, x, th, m.tau, Xi, Th, m.Phi, m.Psi)
    Kv = carter_constant(params, th, m.tau, Th, m.Phi, m.Psi)
    pot = RadialPotential(params, cq0)
    D = params.Delta(x)
    X4 = 4.0 * pot.form_B(x)
    rho4_xdot2 = 16.0 * D * D * Xi * Xi
    scale = np.maximum(np.maximum(1.0, np.abs(X4)), rho4_xdot2)
    p_max = float(np.max(np.abs(pv)))
    K_max = float(np.max(np.abs(Kv - cq0.K)))
    sep_max = float(np.max(np.abs(rho4_xdot2 - X4) / scale))
    return Trajectory(lam=lam, states=states, p=pv, K=Kv, tau=m.tau, Phi=m.Phi,
                      Psi=m.Psi, termination=term, p_drift=p_max, K_drift=K_max,
                      sep_residual=sep_max)
