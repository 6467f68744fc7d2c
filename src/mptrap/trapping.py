"""Symbol-level trapping machinery for the rotating five-dimensional hole.

The radial-trapping polynomial R(x, tau, Phi, Psi) is the x-derivative of the
radial part of the separated Hamiltonian: writing rho^2 p = U(x) +
(Delta/r^2) xi^2 + T(theta) with U rational, R = -Delta^2 dU/dx.  Since
U = N(x)/Delta with N cubic, R = N Delta' - N' Delta is an exact quartic in
x; its coefficients in the quadratic fiber monomials are

    tau^2   : (x+a^2)^2 (x+b^2)^2 - 2 r_s^2 x (x+a^2)(x+b^2) + a^2 b^2 r_s^4
    tau*Phi : 2 a r_s^2 [ (x+b^2)^2 - b^2 r_s^2 ]
    tau*Psi : 2 b r_s^2 [ (x+a^2)^2 - a^2 r_s^2 ]
    Phi^2   : b^2 (x+b^2-r_s^2)^2 - a^2 (x+b^2)^2
    Psi^2   : a^2 (x+a^2-r_s^2)^2 - b^2 (x+a^2)^2
    Phi*Psi : -2 a b r_s^2 (2x + a^2 + b^2 - r_s^2)

At a = b = 0 this reduces to tau^2 x^3 (x - 2 r_s^2) whose positive root is
the photon sphere x = 2 r_s^2.  The finite-difference oracle below
reconstructs R independently from the assembled Hamiltonian.
"""

import math

import numpy as np

from .params import BlackHoleParams, OracleFailure
from .geometry import inverse_metric_components, inverse_metric_form
from .smooth import richardson_derivative

TAU_WINDOW = (1.1, 1.8)     # r/r_s window for the frequency factorization
SOS_WINDOW = (1.2, 1.7)     # r/r_s window for the sum-of-squares checks


def R_ab(params: BlackHoleParams, x, tau, Phi, Psi):
    """Exact quartic trapping polynomial (vectorized in any argument)."""
    a, b = params.a, params.b
    rs2 = params.r_s**2
    a2, b2 = a * a, b * b
    xa = x + a2
    xb = x + b2
    ct = xa * xa * xb * xb - 2 * rs2 * x * xa * xb + a2 * b2 * rs2 * rs2
    ctp = 2 * a * rs2 * (xb * xb - b2 * rs2)
    cts = 2 * b * rs2 * (xa * xa - a2 * rs2)
    cpp = b2 * (xb - rs2) ** 2 - a2 * xb * xb
    css = a2 * (xa - rs2) ** 2 - b2 * xa * xa
    cps = -2 * a * b * rs2 * (2 * x + a2 + b2 - rs2)
    return (ct * tau**2 + ctp * tau * Phi + cts * tau * Psi
            + cpp * Phi**2 + css * Psi**2 + cps * Phi * Psi)


def R_ab_dx(params: BlackHoleParams, x, tau, Phi, Psi):
    """d/dx of the trapping polynomial."""
    a, b = params.a, params.b
    rs2 = params.r_s**2
    a2, b2 = a * a, b * b
    xa = x + a2
    xb = x + b2
    dct = 2 * xa * xb * (xa + xb) - 2 * rs2 * (xa * xb + x * (xa + xb))
    dctp = 2 * a * rs2 * 2 * xb
    dcts = 2 * b * rs2 * 2 * xa
    dcpp = 2 * b2 * (xb - rs2) - 2 * a2 * xb
    dcss = 2 * a2 * (xa - rs2) - 2 * b2 * xa
    dcps = -4 * a * b * rs2
    return (dct * tau**2 + dctp * tau * Phi + dcts * tau * Psi
            + dcpp * Phi**2 + dcss * Psi**2 + dcps * Phi * Psi)


def rho2_p(params: BlackHoleParams, r, theta, tau, xi, Theta, Phi, Psi):
    """rho^2 * p with the r-dual fiber variable xi = 2 r Xi (vectorizable)."""
    x = r * r
    Xi = xi / (2.0 * r)
    p = inverse_metric_form(inverse_metric_components(params, x, theta),
                            tau, Xi, Theta, Phi, Psi)
    a2, b2 = params.a**2, params.b**2
    rho2 = x + a2 * np.cos(theta) ** 2 + b2 * np.sin(theta) ** 2
    return rho2 * p


def R_ab_oracle(params: BlackHoleParams, x, tau, Phi, Psi, theta: float = 0.7):
    """Independent reconstruction -Delta^2/(2r) d_r(rho^2 p)|_{xi=0, Theta=0}.

    A witness for `R_ab` (tests and perfbench); no task calls it.
    Richardson-extrapolated central differences of the assembled symbol; the
    value is theta-independent because the theta-content of rho^2 p separates
    from the radial part.
    """
    r = math.sqrt(x)
    h = 1e-4 * max(r, params.r_s)
    if r - 2 * h <= 0:
        raise OracleFailure("finite-difference stencil leaves r > 0")

    def f(rr):
        return rho2_p(params, rr, theta, tau, 0.0, 0.0, Phi, Psi)

    deriv = richardson_derivative(f, r, h)
    Delta = params.Delta(x)
    if Delta == 0:
        raise OracleFailure("Delta = 0 at the requested point")
    return -Delta**2 / (2.0 * r) * deriv


def trapped_radius_vec(params: BlackHoleParams, tau, Phi, Psi):
    """Root r of R(r^2, tau, Phi, Psi) near the static photon sphere, by
    Newton seeded at sqrt(2) r_s and stopped at a step below 1e-13 r_s (at
    most 60 steps); zero-homogeneous in (tau, Phi, Psi).

    Returns (r, Newton iterations) as 1-d arrays (a scalar input gives one
    element); r is NaN where Newton did not converge inside (0.5, 3) r_s.
    """
    tau, Phi, Psi = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (tau, Phi, Psi)))
    s = 1.0 / np.abs(tau)
    t, P1, P2 = tau * s, Phi * s, Psi * s
    r = np.full(t.shape, math.sqrt(2.0) * params.r_s)
    active = np.ones(r.shape, dtype=bool)
    iters = np.zeros(r.shape, dtype=int)
    for _ in range(60):
        if not np.any(active):
            break
        x = r[active] ** 2
        fiber = (t[active], P1[active], P2[active])
        g = R_ab(params, x, *fiber)
        dg = R_ab_dx(params, x, *fiber) * 2.0 * r[active]
        step = g / dg
        r[active] -= step
        iters[active] += 1
        done = np.abs(step) < 1e-13 * params.r_s
        idx = np.nonzero(active)[0]
        active[idx[done]] = False
    bad = active | (r < 0.5 * params.r_s) | (r > 3.0 * params.r_s)
    r = np.where(bad, np.nan, r)
    return r, iters


def tau_root_coefficients(params: BlackHoleParams, r, theta, xi, Theta, Phi, Psi):
    """(a2, b1, c0) with p = a2 tau^2 + 2 b1 tau + c0."""
    x = r * r
    Xi = xi / (2.0 * r)
    g = inverse_metric_components(params, x, theta)
    gtt, gtph, gtps = g[:3]
    return gtt, gtph * Phi + gtps * Psi, inverse_metric_form(g, 0.0, Xi, Theta, Phi, Psi)


def tau_roots_vec(params: BlackHoleParams, r, theta, xi, Theta, Phi, Psi):
    """Roots tau1 >= tau2 of p = 0 as a quadratic in the temporal frequency.

    NaN where the roots are complex: with g^{tt} < 0 and a nonnegative
    spatial part the discriminant is nonnegative, so a negative value flags
    exit from the verification region.
    """
    A, B, C = tau_root_coefficients(params, np.asarray(r, dtype=float),
                                    np.asarray(theta, dtype=float),
                                    np.asarray(xi, dtype=float),
                                    np.asarray(Theta, dtype=float),
                                    np.asarray(Phi, dtype=float),
                                    np.asarray(Psi, dtype=float))
    disc = B * B - A * C
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t_a = np.where(B >= 0, (-B - sq) / A, (-B + sq) / A)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_b = np.where(t_a != 0, C / (A * t_a), -2 * B / A - t_a)
    t1 = np.maximum(t_a, t_b)
    t2 = np.minimum(t_a, t_b)
    t1 = np.where(ok, t1, np.nan)
    t2 = np.where(ok, t2, np.nan)
    return t1, t2


def measure_cone_constant(params: BlackHoleParams, rng, n_samples: int = 4000) -> float:
    """Measured C with |Phi|, |Psi| <= C |tau_i| over on-shell window samples."""
    rs = params.r_s
    draws = np.empty((6, n_samples))
    for i in range(n_samples):     # one sample at a time: the seed's draw order
        draws[0, i] = rng.uniform(TAU_WINDOW[0] * rs, TAU_WINDOW[1] * rs)
        draws[1, i] = rng.uniform(0.3, math.pi / 2 - 0.3)
        draws[2:, i] = rng.standard_normal(4)
    r, theta, xi, Theta, Phi, Psi = draws
    worst = 0.0
    for taui in tau_roots_vec(params, r, theta, xi, Theta, Phi, Psi):
        ok = np.abs(taui) > 1e-12            # False where the roots are complex
        if np.any(ok):
            ratio = np.maximum(np.abs(Phi[ok]), np.abs(Psi[ok])) / np.abs(taui[ok])
            worst = max(worst, float(np.max(ratio)))
    return worst
