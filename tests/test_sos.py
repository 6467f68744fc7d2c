import math

import numpy as np
import pytest

from mptrap.params import BlackHoleParams, NuRangeViolation
from mptrap.sos import (SchwSos, MpSos, rotation_symbols, rotation_symbols_vec,
                        lambda2, schw_sos_verify, schw_sos_scan, mp_bracket,
                        mp_bracket_scan, mu_terms, mu_scan,
                        mu_lower_bound, mu_samples)
from mptrap.multiplier import MultiplierProfile
from mptrap.trapping import trapped_radius, tau_roots


def test_rotation_symbols_identity(rng):
    for _ in range(500):
        th = rng.uniform(0.05, math.pi / 2 - 0.05)
        Th, Ph, Ps = rng.standard_normal(3)
        phi, psi = rng.uniform(0, 2 * math.pi, 2)
        lam = rotation_symbols(th, Th, Ph, Ps, phi, psi)
        assert abs(np.sum(lam**2) - lambda2(th, Th, Ph, Ps)) < 1e-12 * \
            max(1.0, lambda2(th, Th, Ph, Ps))


def test_alpha_beta_closed_forms(sos, sp):
    """alpha_S^2 equals the quotient closed form r^3 (r + r_ps) f~ (r-r_ps)^2
    / (r^2 - r_s^2)^2  and beta_S^2 the derivative form, via the division-free
    G-expressions."""
    for r in (1.25, 1.5, 1.65):
        J = sos.jets(r)
        ft = J.f_tilde
        a2 = float(J.alphaS2[0])
        expect = r**3 * (r + sp.r_ps) * float(ft[0]) * (r - sp.r_ps) ** 2 \
            / (r**2 - 1.0) ** 2
        assert abs(a2 - expect) < 1e-12 * max(1.0, abs(expect))
        b2 = float(J.betaS2[0])
        G = J.G
        expect_b = (r**2 - 1.0) * float(G[1][0]) - r * float(G[0][0])
        assert abs(b2 - expect_b) < 1e-13 * max(1.0, abs(expect_b))
        assert a2 > 0 and b2 > 0


def test_alpha_vanishes_at_photon_sphere(sos, sp):
    assert abs(float(sos.jets(sp.r_ps).alphaS2[0])) < 1e-14


def test_q_tilde_quadratic_vanishing(sos, sp):
    r = np.linspace(1.2, 1.7, 101)
    qt = sos.jets(r).q_tilde
    bound = 10.0 * (r - sp.r_ps) ** 2
    assert np.all(np.abs(qt) <= bound + 1e-12)


def test_nu_in_unit_interval(sos):
    r = np.linspace(1.2, 1.7, 301)
    nu = sos.jets(r).nu
    assert np.all(nu > 0.0) and np.all(nu < 1.0)
    assert np.all(1.0 - nu > 1e-5)     # strictly interior, delta1-controlled


def test_schw_residual_scalar(sos, rng):
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(1.2, 1.7)
        th = rng.uniform(0.3, math.pi / 2 - 0.3)
        tau, xi, Th, Ph, Ps = rng.standard_normal(5)
        out = schw_sos_verify(sos, r, th, tau, xi, Th, Ph, Ps)
        worst = max(worst, out["residual"])
    assert worst < 1e-8


def test_schw_scan_matches_scalar(sos, rng):
    n = 50
    r = rng.uniform(1.2, 1.7, n)
    th = rng.uniform(0.3, math.pi / 2 - 0.3, n)
    tau, xi, Th, Ph, Ps = rng.standard_normal((5, n))
    out = schw_sos_scan(sos, r, th, tau, xi, Th, Ph, Ps)
    for i in (0, 17, 33):
        o = schw_sos_verify(sos, r[i], th[i], tau[i], xi[i], Th[i], Ph[i], Ps[i])
        assert abs(out["residual"][i] - o["residual"]) < 1e-10


def test_tau2_coefficient_vanishes_at_rps(sos, sp):
    """At the photon sphere the temporal square has the quadratic degeneracy:
    (1-nu) alpha_S^2 -> 0."""
    r = sp.r_ps
    a2 = float(sos.jets(r).alphaS2[0])
    nu = float(sos.jets(r + 1e-9).nu[0])
    assert abs((1 - nu) * a2) < 1e-12


def test_mp_bracket_zero_at_trapped_radius(sos):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    roots_probe = tau_roots(p, 1.42, 1.0, 0.0, 0.3, 0.1, -0.05)
    r_t = trapped_radius(p, roots_probe.tau1, 0.1, -0.05)
    val = mp.bracket(r_t, 1.0, roots_probe.tau1, 0.0, 0.3, 0.1, -0.05)
    assert abs(val) < 1e-12


def test_mp_bracket_static_reduction(sos, sp, bh_static):
    mp0 = MpSos(params=bh_static, sos=sos)
    r, th, xi = 1.45, 0.8, 0.2
    out = mp_bracket(mp0, r, th, xi, 0.5, 0.2, -0.1)
    J = sos.jets(r)
    aS2, bS2 = float(J.alphaS2[0]), float(J.betaS2[0])
    expect = aS2 * out["tau"] ** 2 / (r - sp.r_ps) ** 2 * (r - sp.r_ps) ** 2 \
        + bS2 * xi**2
    assert abs(out["bracket"] - expect) < 1e-10 * max(1.0, abs(expect))
    assert abs(out["r_trap"] - sp.r_ps) < 1e-12


def test_mp_bracket_fd_validation(sos, rng):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    for _ in range(20):
        r = rng.uniform(1.25, 1.65)
        th = rng.uniform(0.4, 1.1)
        xi, Th, Ph, Ps = 0.5 * rng.standard_normal(4)
        out = mp_bracket(mp, r, th, xi, Th, Ph, Ps)
        fd = mp.bracket_fd(r, th, out["tau"], xi, Th, Ph, Ps)
        assert abs(out["bracket"] - fd) <= 1e-7 * max(1.0, abs(fd))
        assert abs(out["bracket"] - out["reconstruction"]) <= 1e-12 * \
            max(1.0, abs(out["bracket"]))


def test_mp_scan_consistency(sos, rng):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    n = 40
    r = rng.uniform(1.25, 1.65, n)
    th = rng.uniform(0.4, 1.1, n)
    xi, Th, Ph, Ps = rng.standard_normal((4, n))
    br = rng.integers(0, 2, n)
    res = mp_bracket_scan(mp, r, th, xi, Th, Ph, Ps, br)
    for i in (0, 13, 29):
        if not res["ok"][i]:
            continue
        o = mp_bracket(mp, r[i], th[i], xi[i], Th[i], Ph[i], Ps[i],
                       branch=int(br[i]))
        assert abs(res["bracket"][i] - o["bracket"]) < 1e-11 * max(1.0, abs(o["bracket"]))


def test_mu_static_limit(sos, bh_static, rng):
    """At zero spin with vanishing smallness bound the two small squares die,
    the xi^2 coefficients coincide, and the eleven squares reconstruct the
    static sum of squares exactly."""
    mp0 = MpSos(params=bh_static, sos=sos)
    for _ in range(25):
        r = rng.uniform(1.25, 1.65)
        th = rng.uniform(0.4, 1.1)
        tau, xi, Th, Ph, Ps = rng.standard_normal(5)
        mu2, comp, (t1, t2, b1, b2) = mu_terms(mp0, r, th, tau, xi, Th, Ph, Ps,
                                               0.0, 0.0)
        assert abs(b1 - b2) < 1e-11
        assert mu2[9] < 1e-11 and mu2[10] < 1e-11
        # reconstruction of r^2 q at the static limit
        lam2 = lambda2(th, Th, Ph, Ps)
        J = sos.jets(r)
        a2, b2s, nu = float(J.alphaS2[0]), float(J.betaS2[0]), float(J.nu[0])
        A = 1.0 - 1.0 / r**2
        expect = ((1 - nu) * a2 * tau**2 + b2s * xi**2
                  + nu * a2 * A / r**2 * (lam2 + (r**2 - 1.0) * xi**2))
        tot = float(np.sum(mu2))
        assert abs(tot - expect) < 1e-9 * max(1.0, abs(expect))


def test_mu_ratio_scale_invariance(sos, rng):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    r, th = 1.42, 0.9
    v = rng.standard_normal(5)
    m1, c1, _ = mu_terms(mp, r, th, *v, 5.0, 0.05)
    m2, c2, _ = mu_terms(mp, r, th, *(3.0 * v), 5.0, 0.05)
    ratio1 = np.sum(m1) / c1
    ratio2 = np.sum(m2) / c2
    assert abs(ratio1 - ratio2) < 1e-9 * max(1.0, abs(ratio1))


def test_mu_lower_bound_runs(sos):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    rep = mu_lower_bound(mp, (1.35, 1.50, 0.3, math.pi / 2 - 0.3), 0.05,
                              np.random.default_rng(5), n_samples=4000)
    assert rep["C_band"][0] < rep["C_big"] < rep["C_band"][1]
    assert rep["kappa"] > 0
    assert rep["envelope"] > 0


def test_profile_evaluated_once_per_sample_set(sos, triple, monkeypatch):
    """Each scan evaluates the multiplier profile once per radius set: the
    bundle at r, plus the four Richardson-shifted sets of the static route."""
    calls = []
    orig = MultiplierProfile.f_jet

    def counting(self, r):
        calls.append(np.size(r))
        return orig(self, r)

    monkeypatch.setattr(MultiplierProfile, "f_jet", counting)
    rng = np.random.default_rng(3)
    n = 60
    r = rng.uniform(1.2, 1.7, n)
    th = rng.uniform(0.3, math.pi / 2 - 0.3, n)
    tau, xi, Th, Ph, Ps = rng.standard_normal((5, n))
    schw_sos_scan(sos, r, th, tau, xi, Th, Ph, Ps)
    assert len(calls) <= 5
    calls.clear()
    mp = MpSos(params=BlackHoleParams(1.0, 0.03, 0.02), sos=sos)
    mp_bracket_scan(mp, r, th, xi, Th, Ph, Ps, rng.integers(0, 2, n))
    assert len(calls) == 1
    region = (1.35, 1.50, 0.3, math.pi / 2 - 0.3)
    samples = mu_samples(region, rng, 500)
    jets = sos.jets(samples[0])
    calls.clear()
    mu_lower_bound(mp, region, 0.05, samples=samples, jets=jets)
    assert calls == []
    triple.ingredients(r)
    assert len(calls) == 1
