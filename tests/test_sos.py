import math

import numpy as np
import pytest

from mptrap.params import BlackHoleParams
import mptrap.sos as sos_mod
from mptrap.sos import (MpSos, rotation_symbols_vec, lambda2, schw_sos_scan,
                        mp_bracket_scan, mu_scan, mu_small_squares,
                        mu_lower_bound, mu_samples)
from mptrap.multiplier import MultiplierProfile
from mptrap.trapping import R_ab_oracle, R_ab_dx, rho2_p, trapped_radius_vec


def _draws(rng, n, draw):
    """n points drawn one at a time (the draw order of a per-point loop),
    as one array per coordinate."""
    return np.array([np.hstack(draw()) for _ in range(n)]).T


def test_rotation_symbols_identity(rng):
    th, Th, Ph, Ps, phi, psi = _draws(rng, 500, lambda: (
        rng.uniform(0.05, math.pi / 2 - 0.05), rng.standard_normal(3),
        rng.uniform(0, 2 * math.pi, 2)))
    lam = rotation_symbols_vec(th, Th, Ph, Ps, phi, psi)
    l2 = lambda2(th, Th, Ph, Ps)
    assert np.all(np.abs(np.sum(lam**2, axis=0) - l2) < 1e-12 * np.maximum(1.0, l2))


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


def test_schw_residual(sos, rng):
    """Route (i) (finite-difference bracket) against route (ii) (sum of
    squares) at 100 symbol points."""
    pts = _draws(rng, 100, lambda: (rng.uniform(1.2, 1.7),
                                    rng.uniform(0.3, math.pi / 2 - 0.3),
                                    rng.standard_normal(5)))
    out = schw_sos_scan(sos, *pts)
    assert np.all(0.0 < out["nu"]) and np.all(out["nu"] < 1.0)
    assert float(np.max(out["residual"])) < 1e-8


def test_tau2_coefficient_vanishes_at_rps(sos, sp):
    """At the photon sphere the temporal square has the quadratic degeneracy:
    (1-nu) alpha_S^2 -> 0."""
    r = sp.r_ps
    a2 = float(sos.jets(r).alphaS2[0])
    nu = float(sos.jets(r + 1e-9).nu[0])
    assert abs((1 - nu) * a2) < 1e-12


def test_mp_bracket_zero_at_trapped_radius(sos):
    """On the characteristic set at xi = 0 the bracket vanishes where
    r = r_trap(tau, Phi, Psi): here tau = 1, with Theta chosen so that the
    point is null."""
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    th, Ph, Ps = 1.0, 0.1, -0.05
    r_t = trapped_radius_vec(p, 1.0, Ph, Ps)[0]
    Th = np.sqrt(-rho2_p(p, r_t, th, 1.0, 0.0, 0.0, Ph, Ps))   # rho^2 g^thth = 1
    one = np.ones(1)
    res = mp_bracket_scan(mp, r_t, th * one, 0.0 * one, Th, Ph * one, Ps * one, 0)
    assert res["ok"][0]
    assert abs(res["tau"][0] - 1.0) < 1e-12
    assert abs(res["bracket"][0]) < 1e-12


def test_mp_bracket_static_reduction(sos, sp, bh_static):
    mp0 = MpSos(params=bh_static, sos=sos)
    r, th, xi = 1.45, 0.8, 0.2
    one = np.ones(1)
    out = mp_bracket_scan(mp0, r * one, th * one, xi * one, 0.5 * one,
                          0.2 * one, -0.1 * one, 0)
    assert out["ok"][0]
    J = sos.jets(r)
    aS2, bS2 = float(J.alphaS2[0]), float(J.betaS2[0])
    tau = float(out["tau"][0])
    expect = aS2 * tau ** 2 / (r - sp.r_ps) ** 2 * (r - sp.r_ps) ** 2 \
        + bS2 * xi**2
    assert abs(out["bracket"][0] - expect) < 1e-10 * max(1.0, abs(expect))
    assert abs(out["r_trap"][0] - sp.r_ps) < 1e-12


def test_mp_bracket_fd_validation(sos, rng):
    """The closed-form bracket against Richardson differences of rho^2 p,
    and against its alpha^2/beta^2 representation."""
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    r, th, xi, Th, Ph, Ps = _draws(rng, 20, lambda: (
        rng.uniform(1.25, 1.65), rng.uniform(0.4, 1.1),
        0.5 * rng.standard_normal(4)))
    out = mp_bracket_scan(mp, r, th, xi, Th, Ph, Ps, 0)
    assert np.all(out["ok"])
    for i in range(20):
        br, tau = out["bracket"][i], out["tau"][i]
        fd = mp.bracket_fd(r[i], th[i], tau, xi[i], Th[i], Ph[i], Ps[i])
        assert abs(br - fd) <= 1e-7 * max(1.0, abs(fd))
        recon = (out["alpha2"][i] * tau**2 * (r[i] - out["r_trap"][i]) ** 2
                 + out["beta2"][i] * xi[i] ** 2)
        assert abs(br - recon) <= 1e-12 * max(1.0, abs(br))


def test_mp_scan_consistency(sos, rng):
    """Each admissible scan point is on shell (rho^2 p = 0 at its tau) and
    its r_trap is a root of the finite-difference trapping oracle."""
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    n = 40
    r = rng.uniform(1.25, 1.65, n)
    th = rng.uniform(0.4, 1.1, n)
    xi, Th, Ph, Ps = rng.standard_normal((4, n))
    br = rng.integers(0, 2, n)
    res = mp_bracket_scan(mp, r, th, xi, Th, Ph, Ps, br)
    ok = res["ok"]
    assert ok.sum() >= n // 2
    tau, r_t = res["tau"], res["r_trap"]
    on_shell = rho2_p(p, r, th, tau, xi, Th, Ph, Ps)
    scale = tau**2 + xi**2 + Th**2 + Ph**2 + Ps**2
    assert np.all(np.abs(on_shell[ok]) < 1e-13 * np.maximum(1.0, scale[ok]))
    for i in np.nonzero(ok)[0]:
        R0 = R_ab_oracle(p, r_t[i] ** 2, tau[i], Ph[i], Ps[i])
        slope = R_ab_dx(p, r_t[i] ** 2, tau[i], Ph[i], Ps[i]) * 2 * r_t[i]
        assert abs(R0 / slope) < 1e-11


def _eleven_squares(mp, r, th, tau, xi, Th, Ph, Ps, C_big, eps0):
    """mu_scan and mu_small_squares at one calibration, with the eleven
    squares stacked as mu_lower_bound stacks them."""
    out = mu_scan(mp, mp.sos.jets(r), th, tau, xi, Th, Ph, Ps)
    small = mu_small_squares(out, tau, xi, C_big, eps0)
    return out, np.concatenate([out["mu2"], small])


def test_mu_static_limit(sos, bh_static, rng):
    """At zero spin with vanishing smallness bound the two small squares die,
    the xi^2 coefficients coincide, and the eleven squares reconstruct the
    static sum of squares exactly."""
    mp0 = MpSos(params=bh_static, sos=sos)
    r, th, tau, xi, Th, Ph, Ps = _draws(rng, 25, lambda: (
        rng.uniform(1.25, 1.65), rng.uniform(0.4, 1.1), rng.standard_normal(5)))
    out, mu2 = _eleven_squares(mp0, r, th, tau, xi, Th, Ph, Ps, 0.0, 0.0)
    assert np.all(out["ok"])
    assert np.all(np.abs(out["b1sq"] - out["b2sq"]) < 1e-11)
    assert np.all(mu2[9] < 1e-11) and np.all(mu2[10] < 1e-11)
    # reconstruction of r^2 q at the static limit
    lam2 = lambda2(th, Th, Ph, Ps)
    J = sos.jets(r)
    a2, b2s, nu = J.alphaS2, J.betaS2, J.nu
    A = 1.0 - 1.0 / r**2
    expect = ((1 - nu) * a2 * tau**2 + b2s * xi**2
              + nu * a2 * A / r**2 * (lam2 + (r**2 - 1.0) * xi**2))
    tot = np.sum(mu2, axis=0)
    assert np.all(np.abs(tot - expect) < 1e-9 * np.maximum(1.0, np.abs(expect)))


def test_mu_ratio_scale_invariance(sos, rng):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    v = rng.standard_normal(5)
    pts = np.column_stack([v, 3.0 * v])           # one point and its triple
    out, mu2 = _eleven_squares(mp, np.full(2, 1.42), np.full(2, 0.9), *pts, 5.0, 0.05)
    assert np.all(out["ok"])
    ratio1, ratio2 = np.sum(mu2, axis=0) / out["comparison"]
    assert abs(ratio1 - ratio2) < 1e-9 * max(1.0, abs(ratio1))


def test_mu_lower_bound_runs(sos):
    p = BlackHoleParams(1.0, 0.03, 0.03)
    mp = MpSos(params=p, sos=sos)
    samples = mu_samples((1.35, 1.50, 0.3, math.pi / 2 - 0.3),
                         np.random.default_rng(5), 4000)
    rep = mu_lower_bound(mp, 0.05, samples, sos.jets(samples[0]))
    assert rep["C_band"][0] < rep["C_big"] < rep["C_band"][1]
    assert rep["kappa"] > 0
    assert rep["envelope"] > 0


def test_mu_lower_bound_scans_once_per_eps0(sos, monkeypatch):
    """The calibration band and the eleven squares come from one mu_scan per
    eps0; jets built on other radii than the sample set's are refused."""
    calls = []
    orig = sos_mod.mu_scan

    def counting(*args):
        calls.append(args[0].params)
        return orig(*args)

    monkeypatch.setattr(sos_mod, "mu_scan", counting)
    samples = mu_samples((1.35, 1.50, 0.3, math.pi / 2 - 0.3),
                         np.random.default_rng(5), 500)
    jets = sos.jets(samples[0])
    for k, e0 in enumerate((0.0125, 0.025, 0.05), 1):
        mp = MpSos(params=BlackHoleParams(1.0, 0.6 * e0, 0.6 * e0), sos=sos)
        mu_lower_bound(mp, e0, samples, jets)
        assert len(calls) == k
    with pytest.raises(ValueError):
        mu_lower_bound(mp, 0.05, samples, sos.jets(samples[0] + 1e-3))


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
    mu_lower_bound(mp, 0.05, samples, jets)
    assert calls == []
    triple.ingredients(r)
    assert len(calls) == 1


def test_ftilde_is_jets_f_tilde_to_the_bit(sos, sp):
    """The bracket scans' f~ and f~' are those of the full radial bundle,
    bit for bit, on both sides of the series switch at 3e-4 r_s from r_ps;
    and a stack of radius sets (`schw_sos_scan`'s four shifted ones) gives
    each set's own values."""
    off = np.array([-2e-3, -3.0001e-4, -3e-4, -2.9999e-4, -1e-7, 0.0,
                    1e-7, 2.9999e-4, 3e-4, 3.0001e-4, 2e-3]) * sp.r_s
    r = np.concatenate([sp.r_ps + off, [1.2, 1.5, 1.7]])
    t, J = sos.ftilde(r), sos.jets(r)
    assert np.array_equal(t.f_tilde, J.f_tilde)
    assert np.array_equal(t.f_tilde_p, J.f_tilde_p)
    assert np.array_equal(t.r, J.r)
    h = 1e-4 * sp.r_s
    stacked = sos.ftilde(r + np.array([h, -h, h / 2, -h / 2])[:, None])
    for k, shift in enumerate([h, -h, h / 2, -h / 2]):
        assert np.array_equal(stacked.f_tilde[k], sos.ftilde(r + shift).f_tilde)
