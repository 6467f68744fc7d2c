import math

import numpy as np
import pytest

from mptrap.params import BlackHoleParams, InvalidConstants, horizons
from mptrap.geometry import inverse_metric_components, inverse_metric_form
from mptrap.trapping import R_ab
from mptrap.geodesic import (Covector, PhasePoint, ConservedQuantities,
                             RadialPotential, RadialClass, hamiltonian, carter_constant,
                             null_Xi, conserved_from_state,
                             radial_classification, trapped_sphere,
                             integrate_geodesic, _rhs)


def _null_point(params, x, theta, tau, Theta, Phi, Psi, sign=+1):
    Xi = null_Xi(params, x, theta, tau, Theta, Phi, Psi, sign=sign)
    return PhasePoint(t=0.0, x=x, theta=theta, phi=0.0, psi=0.0,
                      momentum=Covector(tau=tau, Xi=Xi, Theta=Theta, Phi=Phi,
                                        Psi=Psi))


def test_conserved_radial_momentum_static(bh_static):
    pp = _null_point(bh_static, 3.0, 0.8, -1.0, 0.0, 0.0, 0.0)
    cq = conserved_from_state(bh_static, pp)
    assert cq.K == 0.0
    assert cq.E == 1.0


def test_conserved_equal_spin_roundtrip():
    p = BlackHoleParams(1.0, 0.1, 0.1)
    pp = _null_point(p, 3.0, math.pi / 4, -1.0, 0.2, 0.1, -0.05)
    cq = conserved_from_state(p, pp)
    # rebuilding the angular potential from K reproduces Theta^2
    from mptrap.geodesic import angular_potential
    assert abs(angular_potential(p, pp.theta, cq) - pp.momentum.Theta**2) < 1e-12


def test_conserved_pinned_K(bh_small):
    # (x=3, theta=1, tau=-1, Theta=0.2, Phi=0.1, Psi=-0.05); Xi from the null
    # solve (pinned 0.429815509924665), K from the reconstruction identity
    pp = _null_point(bh_small, 3.0, 1.0, -1.0, 0.2, 0.1, -0.05)
    assert abs(pp.momentum.Xi - 0.429815509924665) < 1e-13
    cq = conserved_from_state(bh_small, pp)
    assert abs(cq.K - 0.061319543795649) < 1e-13
    p_val = hamiltonian(bh_small, 3.0, 1.0, -1.0, pp.momentum.Xi, 0.2, 0.1, -0.05)
    assert abs(p_val) < 1e-14


def test_potential_forms_agree(rng):
    for _ in range(2000):
        a = rng.uniform(-0.4, 0.4)
        b = rng.uniform(-0.4, 0.4)
        try:
            p = BlackHoleParams(1.0, a, b)
        except Exception:
            continue
        cq = ConservedQuantities(E=rng.normal(), Phi=rng.normal(),
                                 Psi=rng.normal(), K=rng.normal())
        pot = RadialPotential(p, cq)
        x = rng.uniform(0.2, 50.0)
        fa, fb = pot.form_A(x), pot.form_B(x)
        assert abs(fa - fb) <= 1e-12 * max(1.0, abs(fa), abs(fb))
        # coefficient expansion agrees with the direct evaluation
        c3, c2, c1, c0 = pot.coefficients()
        assert abs(((c3 * x + c2) * x + c1) * x + c0 - fb) \
            <= 1e-11 * max(1.0, abs(fb))


def test_potential_positive_at_horizon(rng):
    from mptrap.params import horizons
    for _ in range(300):
        p = BlackHoleParams(1.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        hz = horizons(p)
        E = rng.normal()
        cq = ConservedQuantities(E=E, Phi=rng.normal(), Psi=rng.normal(),
                                 K=abs(rng.normal()))
        val = RadialPotential(p, cq).form_B(hz.x_plus)
        assert val >= -1e-12
        if abs(E) > 0.1:
            assert val > 0


def test_classification_examples(bh_static):
    cq = ConservedQuantities(E=1.0, Phi=0.0, Psi=0.0, K=4.0)
    out = radial_classification(bh_static, cq)
    assert out.kind is RadialClass.DOUBLE_ROOT
    assert abs(out.turning_points[0] - 2.0) < 1e-9

    cq = ConservedQuantities(E=1.0, Phi=0.0, Psi=0.0, K=3.9)
    assert radial_classification(bh_static, cq).kind is RadialClass.ESCAPE_ONLY

    cq = ConservedQuantities(E=1.0, Phi=0.0, Psi=0.0, K=4.1)
    out = radial_classification(bh_static, cq)
    assert out.kind is RadialClass.TWO_TURNING_POINTS

    cq = ConservedQuantities(E=0.0, Phi=0.3, Psi=0.0, K=2.0)
    out = radial_classification(bh_static, cq)
    assert out.kind is RadialClass.SINGLE_RIGHT_TURNING
    # quadratic leading coefficient is -K
    pot = RadialPotential(bh_static, cq)
    _, c2, _, _ = pot.coefficients()
    assert abs(c2 + cq.K) < 1e-15


def test_classification_invalid():
    p = BlackHoleParams(1.0, 0.1, 0.0)
    with pytest.raises(InvalidConstants):
        radial_classification(p, ConservedQuantities(E=0.0, Phi=0.1, Psi=0.0, K=0.0))


def test_trapped_sphere_static(bh_static):
    ts = trapped_sphere(bh_static, 0.0, 0.0)
    assert abs(ts.x0 - 2.0) < 1e-12
    assert abs(ts.K_hat - 4.0) < 1e-12


def test_trapped_sphere_static_spin_independence(bh_static):
    for ph in np.linspace(-0.2, 0.2, 5):
        for ps in np.linspace(-0.2, 0.2, 5):
            ts = trapped_sphere(bh_static, ph, ps)
            assert abs(ts.x0 - 2.0) < 1e-11


def test_trapped_sphere_pinned(bh_small):
    ts = trapped_sphere(bh_small, 0.1, -0.05)
    assert abs(ts.x0 - 2.0000991246120325) < 1e-10
    assert abs(ts.K_hat - 4.0035995000247956) < 1e-10
    assert abs(ts.x0 - 2.0) <= 0.5
    cq = ConservedQuantities(E=1.0, Phi=0.1, Psi=-0.05, K=ts.K_hat)
    pot = RadialPotential(bh_small, cq)
    assert abs(pot.form_B(ts.x0)) < 1e-10
    assert abs(pot.derivative(ts.x0)) < 1e-10


def test_hamiltonian_homogeneity(bh_small, rng):
    x, th = 2.7, 0.9
    v = rng.standard_normal(5)
    p1 = hamiltonian(bh_small, x, th, *v)
    p2 = hamiltonian(bh_small, x, th, *(3.0 * v))
    assert abs(p2 - 9.0 * p1) < 1e-12 * max(1.0, abs(p1))


def test_radial_ray_keeps_angles(bh_static):
    pp = _null_point(bh_static, 4.0, 0.9, -1.0, 0.0, 0.0, 0.0, sign=-1)
    traj = integrate_geodesic(bh_static, pp, 5.0, tol=1e-11)
    assert np.abs(traj.states[2] - 0.9).max() < 1e-12
    assert np.abs(traj.states[3]).max() < 1e-12
    assert np.abs(traj.states[4]).max() < 1e-12


def test_generic_ray_conservation(bh_small):
    pp = _null_point(bh_small, 3.0, 1.0, -1.0, 0.2, 0.1, -0.05)
    traj = integrate_geodesic(bh_small, pp, 200.0, tol=1e-10, x_escape=1e8)
    assert traj.p_drift < 1e-8
    assert traj.K_drift < 1e-8
    assert traj.sep_residual < 1e-7


def test_trapped_run_and_departure(bh_small):
    ts = trapped_sphere(bh_small, 0.1, -0.05)
    th0 = 1.0
    g = inverse_metric_components(bh_small, ts.x0, th0)
    E, Ph, Ps = 1.0, 0.1, -0.05
    rest = (g[0] * E**2 - 2 * g[1] * E * Ph - 2 * g[2] * E * Ps
            + g[3] * Ph**2 + g[4] * Ps**2 + 2 * g[5] * Ph * Ps)
    Th0 = math.sqrt(-rest / g[7])
    pp = PhasePoint(t=0.0, x=ts.x0, theta=th0, phi=0.0, psi=0.0,
                    momentum=Covector(tau=-E, Xi=0.0, Theta=Th0, Phi=Ph, Psi=Ps))
    traj = integrate_geodesic(bh_small, pp, 200.0, tol=1e-12, n_samples=3000)
    t = traj.states[0]
    r = np.sqrt(traj.states[1])
    dev = np.abs(r - math.sqrt(ts.x0))
    # persistence over the window derived from the measured instability rate
    assert dev[t <= 30.0].max() < 1e-3
    # exponential departure with the photon-sphere rate ~ 1/sqrt(2) per r_s
    sel = (dev > 1e-9) & (dev < 1e-2)
    lam = np.polyfit(t[sel], np.log(dev[sel]), 1)[0]
    assert 0.5 < lam < 0.9
    assert traj.termination in ("horizon", "escaped")


def test_trajectory_csv(tmp_path, bh_small):
    pp = _null_point(bh_small, 3.0, 1.0, -1.0, 0.2, 0.1, -0.05)
    traj = integrate_geodesic(bh_small, pp, 5.0, tol=1e-10)
    path = tmp_path / "traj.csv"
    traj.export_csv(path)
    head = path.read_text().splitlines()[0]
    assert head == ("lambda,t,r,theta,phi,psi,tau,xi,Theta,Phi,Psi,"
                    "p_residual,K_drift")
    # the residual columns are the Hamiltonian and Carter constant on the
    # exported states
    t, x, th, ph, ps, Xi, Th = traj.states
    cols = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(
        cols[:, 11], hamiltonian(bh_small, x, th, traj.tau, Xi, Th, traj.Phi, traj.Psi))
    K = carter_constant(bh_small, th, traj.tau, Th, traj.Phi, traj.Psi)
    assert np.array_equal(cols[:, 12], K - K[0])


def test_null_xi_invalid(bh_small):
    # spatially dominated covector admits no real null radial momentum
    with pytest.raises(InvalidConstants):
        null_Xi(bh_small, 3.0, 1.0, -0.1, 10.0, 0.0, 0.0)


def _rhs_composed(params, tau, Phi, Psi):
    """Hamilton's equations of p/2 composed from the metric functions:
    `inverse_metric_components`, `inverse_metric_form`, `R_ab` and
    `params.Delta`, each called as written."""
    a2, b2 = params.a**2, params.b**2
    tau2, Phi2, Psi2 = tau * tau, Phi * Phi, Psi * Psi

    def rhs(lam, y):
        t, x, th, ph, ps, Xi, Th = y.tolist()
        g = inverse_metric_components(params, x, th)
        gtt, gtph, gtps, gphph, gpsps, gphps, gxx, gthth = g
        p = inverse_metric_form(g, tau, Xi, Th, Phi, Psi)
        st, ct = math.sin(th), math.cos(th)
        D = params.Delta(x)
        rho2 = x + a2 * ct * ct + b2 * st * st
        p_x = (4.0 * (2 * x + a2 + b2 - 1.0) * Xi * Xi
               - R_ab(params, x, tau, Phi, Psi) / (D * D) - p) / rho2
        dV = 2.0 * (tau2 * (a2 - b2) * st * ct - Phi2 * ct / st**3 + Psi2 * st / ct**3)
        p_th = (dV - 2.0 * p * (b2 - a2) * st * ct) / rho2
        return (gtt * tau + gtph * Phi + gtps * Psi, gxx * Xi, gthth * Th,
                gtph * tau + gphph * Phi + gphps * Psi,
                gtps * tau + gphps * Phi + gpsps * Psi, -0.5 * p_x, -0.5 * p_th)
    return rhs


# r_s = 1 is the unit of length and the one value BlackHoleParams admits
@pytest.mark.parametrize("r_s", [1.0])
# the last pair has a**2 != a*a and b**2 != b*b (libm pow against the product)
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.05, 0.03), (0.1, -0.08), (0.3, 0.2),
                                 (0.24632406204900867, 0.02764700943397072)])
def test_rhs_equals_metric_composition(r_s, a, b):
    """The fused right-hand side of the flow equals, bit for bit, the same
    equations composed from the metric functions, on 2,000 random states per
    hole: x from just outside the horizon to 1e3, a third of the angles
    within 1e-3 of each pole theta = 0 and theta = pi/2."""
    params = BlackHoleParams(r_s, a, b)
    rng = np.random.default_rng(20260)
    n = 2000
    x = horizons(params).x_plus + 10.0 ** rng.uniform(-6.0, 3.0, n)
    th = np.concatenate([rng.uniform(0.0, 1e-3, n // 3),
                         math.pi / 2 - rng.uniform(0.0, 1e-3, n // 3),
                         rng.uniform(0.0, math.pi / 2, n - 2 * (n // 3))])
    # Python floats, as the flow's constants come from a config or a Covector
    tau, Phi, Psi, Xi, Theta = rng.standard_normal((5, n)).tolist()
    for k in range(n):
        y = np.array([0.0, x[k], th[k], 0.0, 0.0, Xi[k], Theta[k]])
        fused = _rhs(params, tau[k], Phi[k], Psi[k])(0.0, y)
        composed = _rhs_composed(params, tau[k], Phi[k], Psi[k])(0.0, y)
        assert np.array_equal(np.array(fused).view(np.int64),
                              np.array(composed).view(np.int64)), (x[k], th[k])
