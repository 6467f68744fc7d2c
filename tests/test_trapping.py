import math

import numpy as np
import pytest

from mptrap.params import BlackHoleParams
from mptrap.trapping import (R_ab, R_ab_dx, R_ab_oracle, rho2_p,
                             trapped_radius_vec, tau_roots_vec,
                             measure_cone_constant)
from mptrap.geodesic import (ConservedQuantities, RadialClass,
                             radial_classification, trapped_sphere)


def test_static_reduction():
    p0 = BlackHoleParams(1.0, 0.0, 0.0)
    for x in (0.7, 1.3, 2.0, 2.5, 7.0):
        for tau in (1.0, -0.7, 2.3):
            expect = tau**2 * x**3 * (x - 2.0)
            assert abs(R_ab(p0, x, tau, 0.0, 0.0) - expect) < 1e-12 * max(1.0, abs(expect))
    assert R_ab(p0, 2.0, 1.0, 0.0, 0.0) == 0.0


def test_pinned_sample(bh_small):
    val = R_ab(bh_small, 2.1, 1.0, 0.1, -0.05)
    assert abs(val - 0.9899715111671025) < 1e-12


def test_oracle_agreement(bh_small, rng):
    worst = 0.0
    for _ in range(400):
        x = rng.uniform(1.3, 6.0)
        tau = rng.normal()
        Ph, Ps = 0.3 * rng.standard_normal(2)
        r1 = R_ab(bh_small, x, tau, Ph, Ps)
        r2 = R_ab_oracle(bh_small, x, tau, Ph, Ps)
        worst = max(worst, abs(r1 - r2) / max(1.0, abs(r1)))
    assert worst < 1e-8


def test_oracle_theta_independent(bh_small):
    v1 = R_ab_oracle(bh_small, 2.1, 1.0, 0.1, -0.05, theta=0.5)
    v2 = R_ab_oracle(bh_small, 2.1, 1.0, 0.1, -0.05, theta=1.2)
    assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))


def test_radial_identity(bh_small, rng):
    """d_r(rho^2 p) = -2 r R Delta^-2 + d_r(Delta/r^2) xi^2, exactly in all
    fiber variables (not only on the characteristic set)."""
    a2, b2, rs2 = bh_small.a**2, bh_small.b**2, 1.0
    worst = 0.0
    for _ in range(400):
        r = rng.uniform(1.15, 2.4)
        th = rng.uniform(0.3, math.pi / 2 - 0.3)
        tau, xi, Th, Ph, Ps = rng.standard_normal(5)
        h = 1e-5
        d1 = (rho2_p(bh_small, r + h, th, tau, xi, Th, Ph, Ps)
              - rho2_p(bh_small, r - h, th, tau, xi, Th, Ph, Ps)) / (2 * h)
        d2 = (rho2_p(bh_small, r + h / 2, th, tau, xi, Th, Ph, Ps)
              - rho2_p(bh_small, r - h / 2, th, tau, xi, Th, Ph, Ps)) / h
        lhs = (4 * d2 - d1) / 3.0
        x = r * r
        Delta = (x + a2) * (x + b2) - rs2 * x
        ddr_D_r2 = (2 * r * (x + b2) + (x + a2) * 2 * r
                    - 2 * (x + a2) * (x + b2) / r) / x - 0.0
        ddr_D_r2 = 2 * r * ((x + b2) + (x + a2)) / x \
            - 2 * (x + a2) * (x + b2) / (x * r)
        rhs = -2 * r * R_ab(bh_small, x, tau, Ph, Ps) / Delta**2 + ddr_D_r2 * xi**2
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    assert worst < 1e-8


def test_fiber_identity(bh_small, rng):
    """d_xi(rho^2 p) = 2 (Delta/r^2) xi; the symbol is quadratic in xi so the
    centered difference is exact up to rounding."""
    a2, b2 = bh_small.a**2, bh_small.b**2
    for _ in range(100):
        r = rng.uniform(1.15, 2.4)
        th = rng.uniform(0.3, math.pi / 2 - 0.3)
        tau, xi, Th, Ph, Ps = rng.standard_normal(5)
        h = 0.25
        d = (rho2_p(bh_small, r, th, tau, xi + h, Th, Ph, Ps)
             - rho2_p(bh_small, r, th, tau, xi - h, Th, Ph, Ps)) / (2 * h)
        x = r * r
        Delta = (x + a2) * (x + b2) - x
        assert abs(d - 2 * Delta / x * xi) < 1e-12 * max(1.0, abs(d))


def trapped_radius(params, tau, Phi, Psi):
    r, _ = trapped_radius_vec(params, tau, Phi, Psi)
    return float(r[0])


def test_trapped_radius_static():
    p0 = BlackHoleParams(1.0, 0.0, 0.0)
    for tau, Ph, Ps in ((-1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 0.1, 0.2)):
        assert abs(trapped_radius(p0, tau, Ph, Ps) - math.sqrt(2.0)) < 1e-12


def test_trapped_radius_homogeneity(bh_small):
    r1 = trapped_radius(bh_small, 1.0, 0.1, -0.05)
    r2 = trapped_radius(bh_small, 2.0, 0.2, -0.10)
    assert abs(r1 - r2) < 1e-13


def test_trapped_radius_pinned(bh_small):
    assert abs(trapped_radius(bh_small, 1.0, 0.1, -0.05) - 1.4117712254820005) < 1e-10
    assert abs(trapped_radius(bh_small, 1.0, 0.1, -0.05) - math.sqrt(2.0)) <= 0.15


def test_trapped_sphere_class_boundary(bh_small):
    """The sphere's K_hat is where the root structure of the radial cubic
    (np.roots in `radial_classification`, apart from the Newton solve)
    changes: no turning point just below K_hat, two just above, and these
    straddle x0.  K_hat itself is not asserted DOUBLE_ROOT: there rounding
    can turn the double root into a complex pair."""
    for ph, ps in ((0.1, -0.05), (0.0, 0.0), (0.2, 0.1), (-0.15, 0.05)):
        ts = trapped_sphere(bh_small, ph, ps)

        def classify(factor):
            return radial_classification(bh_small, ConservedQuantities(
                E=1.0, Phi=ph, Psi=ps, K=ts.K_hat * factor))

        assert classify(1 - 1e-6).kind is RadialClass.ESCAPE_ONLY
        above = classify(1 + 1e-6)
        assert above.kind is RadialClass.TWO_TURNING_POINTS
        x1, x2 = above.turning_points
        assert x1 < ts.x0 < x2


def test_root_simplicity(rng):
    for _ in range(100):
        p = BlackHoleParams(1.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        tau = 1.0 if rng.uniform() < 0.5 else -1.0
        Ph, Ps = rng.uniform(-0.2, 0.2, 2)
        r_t = trapped_radius(p, tau, Ph, Ps)
        slope = R_ab_dx(p, r_t**2, tau, Ph, Ps) * 2 * r_t
        assert abs(slope) > 1.0      # grid floor, static value is 8 tau^2


def test_trapped_radius_vec_oracle(bh_small, rng):
    """The Newton roots are roots of the finite-difference oracle: the
    Newton step the oracle implies at each is below 1e-11."""
    tau = rng.standard_normal(50) + np.sign(rng.standard_normal(50)) * 0.5
    Ph, Ps = 0.2 * rng.standard_normal((2, 50))
    rv, iters = trapped_radius_vec(bh_small, tau, Ph, Ps)
    for i in range(0, 50, 7):
        x = rv[i] ** 2
        step = (R_ab_oracle(bh_small, x, tau[i], Ph[i], Ps[i])
                / (R_ab_dx(bh_small, x, tau[i], Ph[i], Ps[i]) * 2 * rv[i]))
        assert abs(step) < 1e-11
    assert np.all(iters <= 60)


def test_tau_roots_static(sp):
    p0 = BlackHoleParams(1.0, 0.0, 0.0)
    tau1, tau2 = tau_roots_vec(p0, math.sqrt(2.0), 0.8, 0.0, 1.0, 0.0, 0.0)
    assert abs(tau1 - 0.5) < 1e-14
    assert abs(tau2 + 0.5) < 1e-14
    # p vanishes at both roots
    for t in (tau1, tau2):
        assert abs(rho2_p(p0, math.sqrt(2.0), 0.8, t, 0.0, 1.0, 0.0, 0.0)) < 1e-12


def test_tau_roots_ordering_symmetry():
    p0 = BlackHoleParams(1.0, 0.0, 0.0)
    a1, a2 = tau_roots_vec(p0, 1.4, 0.7, 0.1, 0.3, 0.2, -0.1)
    b1, b2 = tau_roots_vec(p0, 1.4, 0.7, 0.1, 0.3, -0.2, 0.1)
    assert a1 >= a2
    assert abs(a1 - b1) < 1e-13 and abs(a2 - b2) < 1e-13


def test_tau_roots_pinned():
    p = BlackHoleParams(1.0, 0.05, 0.03)
    tau1, tau2 = tau_roots_vec(p, 1.42, 1.0, 0.1, 0.3, 0.1, -0.05)
    assert abs(tau1 - 0.176162753227254) < 1e-13
    assert abs(tau2 + 0.174445841953409) < 1e-13


def test_tau_roots_vec(bh_small, rng):
    """rho^2 p vanishes at both roots, which are ordered."""
    r = rng.uniform(1.15, 1.75, 40)
    th = rng.uniform(0.3, math.pi / 2 - 0.3, 40)
    xi, Th, Ph, Ps = rng.standard_normal((4, 40))
    t1, t2 = tau_roots_vec(bh_small, r, th, xi, Th, Ph, Ps)
    assert np.all(t1 >= t2)
    for t in (t1, t2):
        scale = t**2 + xi**2 + Th**2 + Ph**2 + Ps**2
        residual = rho2_p(bh_small, r, th, t, xi, Th, Ph, Ps)
        assert np.all(np.abs(residual) < 1e-13 * np.maximum(1.0, scale))


def test_cone_constant(bh_small, rng):
    C = measure_cone_constant(bh_small, rng, n_samples=500)
    assert 0.5 < C < 50.0
