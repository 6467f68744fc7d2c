import math

import numpy as np
import pytest

from mptrap.params import BlackHoleParams, SchwParams, NakedSingularity, horizons
from mptrap.geometry import (ChartPoint, metric_pair, covariant_metric,
                             contravariant_metric, inverse_metric_components,
                             CoordinateSingularity)
from mptrap.chart import ingoing_chart
from mptrap.geodesic import hamiltonian, _rhs
from mptrap.smooth import richardson_derivative


def test_horizons_static():
    hz = horizons(BlackHoleParams(1.0, 0.0, 0.0))
    assert hz.x_minus == 0.0
    assert abs(hz.x_plus - 1.0) < 1e-15


def test_horizons_single_spin():
    hz = horizons(BlackHoleParams(1.0, 0.3, 0.0))
    assert abs(hz.x_plus - 0.91) < 1e-14
    assert abs(hz.x_minus) < 1e-14


def test_horizons_pinned_double_spin():
    # independent root-finder value, pinned to 12 digits before the build
    hz = horizons(BlackHoleParams(1.0, 0.3, 0.2))
    assert abs(hz.x_minus - 0.004157801509648) < 1e-12
    assert abs(hz.x_plus - 0.865842198490352) < 1e-12
    d = (hz.x_plus + 0.3**2) * (hz.x_plus + 0.2**2) - hz.x_plus
    assert abs(d) < 1e-14


def test_naked_singularity_raises():
    with pytest.raises(NakedSingularity):
        BlackHoleParams(1.0, 0.9, 0.9)


def test_admitted_near_extremal_params_have_horizons(rng):
    """Draws within a few ulps of |a| + |b| = 1, where the discriminant of
    Delta is rounding noise: every (a, b) that BlackHoleParams admits has
    real horizons x_minus <= x_plus, because admission and horizons read one
    discriminant."""
    n = 4000
    a = rng.uniform(0.0, 1.0, n)
    b = 1.0 - a + rng.uniform(-2e-16, 2e-16, n)
    sign = rng.choice([-1.0, 1.0], (2, n))
    admitted = 0
    for ai, bi in zip(sign[0] * a, sign[1] * b):
        try:
            p = BlackHoleParams(a=float(ai), b=float(bi))
        except NakedSingularity:
            continue
        hz = horizons(p)
        assert 0.0 <= hz.x_plus and hz.x_minus <= hz.x_plus
        admitted += 1
    assert admitted > n // 4


def test_tangherlini_limit_components():
    p = BlackHoleParams(1.0, 0.0, 0.0)
    pt = ChartPoint(t=0.0, x=4.0, theta=math.pi / 4)
    _, gi = metric_pair(p, pt)
    assert abs(gi[0, 0] + 4.0 / 3.0) < 1e-13
    assert abs(gi[1, 1] - 12.0) < 1e-13
    # mixed components vanish identically
    assert gi[0, 3] == 0.0 and gi[0, 4] == 0.0 and gi[3, 4] == 0.0


PINNED_CONTRAVARIANT = {
    # (r_s=1, a=0.3, b=0.2, x=2, theta=pi/3), from 40-digit matrix inversion
    (0, 0): -1.917684935490210,
    (0, 3): 0.131725110357446,
    (0, 4): 0.089969111322570,
    (3, 3): 0.619050622117751,
    (4, 4): 1.951963812615434,
    (3, 4): -0.012914226505632,
    (1, 1): 4.411400730816078,
    (2, 2): 0.487210718635810,
}


def test_pinned_contravariant_sample():
    p = BlackHoleParams(1.0, 0.3, 0.2)
    pt = ChartPoint(t=0.0, x=2.0, theta=math.pi / 3)
    g, gi = metric_pair(p, pt)
    for (i, j), val in PINNED_CONTRAVARIANT.items():
        assert abs(gi[i, j] - val) < 1e-13
    # cross-check against direct numerical inversion of the covariant array
    gi_num = np.linalg.inv(g)
    assert np.abs(gi - gi_num).max() < 1e-12


def test_inverse_components_float_path_matches_numpy(rng):
    """Components at float (x, theta) equal the array evaluation's to
    rounding, also within 1e-3 of both poles."""
    p = BlackHoleParams(1.0, 0.05, 0.03)
    theta = np.concatenate([np.linspace(1e-6, 1e-3, 50), rng.uniform(0.0, math.pi / 2, 400),
                            math.pi / 2 - np.linspace(1e-6, 1e-3, 50)])
    x = rng.uniform(1.5, 60.0, theta.size)
    arrays = np.array(inverse_metric_components(p, x, theta))
    for i in range(theta.size):
        floats = inverse_metric_components(p, float(x[i]), float(theta[i]))
        assert np.allclose(floats, arrays[:, i], rtol=1e-14, atol=0.0)


def test_inversion_identity_random(rng):
    for _ in range(300):
        a = rng.uniform(-0.3, 0.3)
        b = rng.uniform(-0.3, 0.3)
        try:
            p = BlackHoleParams(1.0, a, b)
        except NakedSingularity:
            continue
        hz = horizons(p)
        x = rng.uniform(hz.x_plus * 1.05 + 0.05, 50.0)
        th = rng.uniform(0.1, math.pi / 2 - 0.1)
        g, gi = metric_pair(p, ChartPoint(0.0, x, th))
        assert np.abs(g @ gi - np.eye(5)).max() < 1e-12


def test_analytic_derivatives_vs_fd(rng):
    # the geodesic flow's forces (d_x p, d_theta p) = -2 (Xidot, Thetadot),
    # taken from the separated form, against Richardson differences of the
    # assembled Hamiltonian
    p = BlackHoleParams(1.0, 0.23, 0.11)
    for x0, th0 in ((2.37, 0.9), (1.4, 0.5), (7.0, 1.3)):
        tau, Xi, Theta, Phi, Psi = rng.standard_normal(5)
        y = np.array([0.0, x0, th0, 0.0, 0.0, Xi, Theta])
        Xidot, Thdot = _rhs(p, tau, Phi, Psi)(0.0, y)[5:]
        fd_x = richardson_derivative(
            lambda x: hamiltonian(p, x, th0, tau, Xi, Theta, Phi, Psi), x0, 1e-3)
        fd_th = richardson_derivative(
            lambda th: hamiltonian(p, x0, th, tau, Xi, Theta, Phi, Psi), th0, 1e-3)
        for force, fd in ((-2.0 * Xidot, fd_x), (-2.0 * Thdot, fd_th)):
            assert abs(force - fd) <= 1e-8 * max(1.0, abs(fd))


def test_static_reduction_closed_forms(rng):
    p0 = BlackHoleParams(1.0, 0.0, 0.0)
    for _ in range(50):
        x = rng.uniform(1.2, 80.0)
        th = rng.uniform(0.1, math.pi / 2 - 0.1)
        gi = contravariant_metric(p0, ChartPoint(0.0, x, th))
        assert abs(gi[0, 0] + 1.0 / (1.0 - 1.0 / x)) < 1e-13
        assert abs(gi[1, 1] - 4.0 * (x - 1.0)) < 1e-12


def test_spin_continuity_envelope():
    # contravariant components approach the static values with the linear
    # spin envelope c * max(|a|,|b|) / r^2 at fixed (x, theta); the constant
    # was measured at build over the sample set below.  The range starts
    # above the static horizon because the stationary-chart components
    # degenerate there (the regular-chart perturbation bound does not apply
    # to these components at the horizon).
    p0 = BlackHoleParams(1.0, 0.0, 0.0)
    c_pinned = 100.0   # measured 88.5 over this sample set
    for (a, b) in ((0.05, 0.03), (0.1, 0.1), (0.3, 0.2)):
        p = BlackHoleParams(1.0, a, b)
        eps0 = max(abs(a), abs(b))
        for x in np.geomspace(1.1, 100.0, 40):
            th = 0.8
            d = np.abs(contravariant_metric(p, ChartPoint(0.0, x, th))
                       - contravariant_metric(p0, ChartPoint(0.0, x, th)))
            assert d.max() * x <= c_pinned * eps0


def test_degeneracies_rejected():
    p = BlackHoleParams(1.0, 0.2, 0.1)
    with pytest.raises(CoordinateSingularity):
        metric_pair(p, ChartPoint(0.0, 2.0, 1e-10))
    with pytest.raises(CoordinateSingularity):
        metric_pair(p, ChartPoint(0.0, 0.5, 0.7))   # inside the horizon


# ---------------------------------------------------------------------------
# ingoing chart
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 1.5])
def test_schw_params_fix_d_at_one(d):
    """Only the (4+1)-dimensional hole, d = 1, is implemented."""
    with pytest.raises(ValueError):
        SchwParams(1.0, d)


def test_chart_far_block(sp, chart):
    # beyond the matching radius mu' = 1/A, so the chart coincides with the
    # static one: block diag(-A, 1/A); equivalently the (v, r) block with
    # v = vtilde + mu is exactly [[-A, 1], [1, 0]]
    r = np.array([1.6, 2.0, 10.0])
    g_vv, g_vr, g_rr = chart.block(r)
    A = sp.A(r)
    assert np.abs(g_vv + A).max() < 1e-14
    assert np.abs(g_vr).max() < 1e-12
    assert np.abs(g_rr - 1.0 / A).max() < 1e-12
    M = chart.mu_derivs(r)[0]
    v_block = (-A, 1.0 - A * M + A * M, 0.0)   # (v, r)-chart components
    assert np.abs(v_block[1] - 1.0).max() < 1e-14


def test_chart_invariants(sp, chart):
    r = np.linspace(chart.r_e, 50.0, 3000)
    M = chart.mu_derivs(r)[0]
    A = sp.A(r)
    assert np.all(M > 0)
    assert np.all(2.0 - A * M > 0)
    # mu' <= 1/A = r_star' above the horizon: the pointwise form of mu >= r_star
    out = r > sp.r_s
    assert np.all(M[out] <= (1.0 + 1e-14) / A[out])
    _, _, g_rr = chart.block(r)
    assert np.all(g_rr > 0)
    # block determinant is exactly -1
    g_vv, g_vr, _ = chart.block(r)
    det = g_vv * g_rr - g_vr**2
    assert np.abs(det + 1.0).max() < 1e-12
    # inverse consistency
    gi_vv, gi_vr, gi_rr = chart.block_inverse(r)
    assert np.abs(g_vv * gi_vv + g_vr * gi_vr - 1.0).max() < 1e-12
    assert np.abs(g_vr * gi_vv + g_rr * gi_vr).max() < 1e-12


def test_mu_pp_is_derivative_of_mu_prime(chart):
    """mu'' against a Richardson difference of mu', away from r_blend_lo and
    r_match, where the stencil would straddle two branches of mu'."""
    r = np.linspace(chart.r_e, 50.0, 4001)
    keep = (np.abs(r - chart.r_blend_lo) > 0.01) & (np.abs(r - chart.r_match) > 0.01)
    r = r[keep]
    M1 = chart.mu_derivs(r)[1]
    fd = richardson_derivative(lambda x: chart.mu_derivs(x)[0], r, 3e-4)
    assert np.abs(M1).max() > 10.0           # the blend is sampled
    assert np.all(np.abs(fd - M1) <= 1e-7 * (1.0 + np.abs(M1)))


def test_chart_c1_across_match(sp, chart):
    rm = chart.r_match
    h = 1e-6
    # jumps across the matching radius are bounded by slope * (2h): smooth
    (M_hi, M1_hi), (M_lo, M1_lo) = chart.mu_derivs(rm + h), chart.mu_derivs(rm - h)
    assert abs(M_hi - M_lo) < 1e-4
    assert abs(M1_hi - M1_lo) < 1e-3


def test_horizon_roots_and_positivity(rng):
    for _ in range(40):
        try:
            p = BlackHoleParams(1.0, rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        except NakedSingularity:
            continue
        hz = horizons(p)
        a2, b2 = p.a**2, p.b**2
        for xr in (hz.x_minus, hz.x_plus):
            assert abs((xr + a2) * (xr + b2) - xr) < 1e-14
        x = np.linspace(hz.x_plus * (1 + 1e-9) + 1e-12, 100.0, 500)
        delta = (x + a2) * (x + b2) - x
        assert np.all(delta > 0)
