import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from mptrap import multiplier, smooth
from mptrap.params import SchwParams, ProfileConstructionFailure, DifferentiationError
from mptrap.multiplier import (build_profiles, validate_profile, cap_fn, cap_pieces,
                               jet_mul, jet_monomial)
from mptrap.smooth import (smoothstep, smoothstep_integral, plateau_bump,
                           mollifier, mollifier_table, mollify,
                           gauss_legendre, integrate_gl)


# ---------------------------------------------------------------------------
# smooth primitives
# ---------------------------------------------------------------------------

def test_smoothstep_basics():
    assert smoothstep(-0.5)[0] == 0.0
    assert smoothstep(1.5)[0] == 1.0
    t = np.linspace(0.05, 0.95, 19)
    s = smoothstep(t)[0]
    assert np.all(np.diff(s) > 0)
    assert abs(smoothstep(0.5)[0] - 0.5) < 1e-14       # symmetric
    assert abs(smoothstep_integral(np.array([1.0]))[0] - 0.5) < 1e-12
    assert abs(smoothstep_integral(np.array([3.0]))[0] - 2.5) < 1e-12


@pytest.mark.parametrize("t", [-0.5, 0.0, 1.0, 2.0,
                               np.array([-3.0, -1e-300, 0.0, 1e-13]),
                               np.array([1.0 - 1e-13, 1.0, 1.0 + 1e-15, 7.0])])
def test_smoothstep_outside_band(t):
    """Outside the transition band the jet is exactly (0, 0, 0, 0) below it
    and (1, 0, 0, 0) above it, with the input's shape."""
    S = smoothstep(t)
    t = np.asarray(t)
    assert S.shape == (4,) + t.shape
    assert np.array_equal(S[0], np.where(t >= 0.5, 1.0, 0.0))
    assert np.array_equal(S[1:], np.zeros((3,) + t.shape))


def test_smoothstep_band_is_elementwise():
    """A point's jet does not depend on the other points of the array: a 2-d
    mix of band and off-band points equals the points taken one by one."""
    t = np.array([[-0.2, 0.3, 1e-12, 0.999], [0.5, 1.2, 2e-12, 1.0 - 2e-12]])
    one_by_one = np.stack([smoothstep(ti) for ti in t.ravel()], axis=1)
    assert np.array_equal(smoothstep(t), one_by_one.reshape((4,) + t.shape))


def test_smoothstep_value_is_row_0():
    """The value-only step under smoothstep_integral equals row 0 of the jet
    bit for bit, signed zeros included: at the band edges and their
    neighbouring doubles, outside [0, 1], across the band and on a 2-d block
    of Gauss nodes."""
    edges = [0.0, -0.0, 1e-12, -1e-12, 1.0 - 1e-12, 1.0, 1e-300, -1e-300]
    t = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                        [-3.0, -1.0, 1.5, 7.0, np.inf, -np.inf, np.nan],
                        np.linspace(-0.5, 1.5, 20001),
                        np.random.default_rng(5).uniform(0.0, 1.0, 20000)])
    xn, _ = gauss_legendre(64)
    block = 0.5 * np.linspace(0.0, 1.0, 64)[:, None] * (xn + 1.0)
    for tt in (t, block):
        value = smooth._smoothstep_value(tt)
        assert value.shape == tt.shape
        assert np.array_equal(value.view(np.int64), smoothstep(tt)[0].view(np.int64))


A_CAP, N_MOLL = 4.9, 512.0


def _mollified_cap(y):
    return mollify(mollifier_table(cap_pieces(A_CAP), N_MOLL), y)


def _quadrature_mollify(f, y, N, kinks):
    """Oracle for mollify: (psi_N * f)(y) for a jet-valued callable f by
    Gauss-Legendre panels per point, split at the kink images in (-1, 1)."""
    xn, wn = gauss_legendre(80)
    out = np.empty((4,) + y.shape)
    for i, yi in enumerate(y):
        cuts = sorted([-1.0, 1.0] + [N * (yi - k) for k in kinks
                                     if -1.0 < N * (yi - k) < 1.0])
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (hi - lo)
            uu = 0.5 * (lo + hi) + half * xn
            total += half * np.sum(wn * mollifier(uu) * f(yi - uu / N), axis=-1)
        out[:, i] = total
    return out


# (jet primitive, points inside one smooth piece of it)
JET_PRIMITIVES = {
    "smoothstep": (smoothstep, np.linspace(0.08, 0.92, 15)),
    "plateau_bump": (lambda r: plateau_bump(r, 1.0, 1.3, 1.5, 1.9),
                     np.linspace(0.95, 1.95, 41)),
    "cap_below": (lambda x: cap_fn(x, A_CAP), np.linspace(-3.0, -0.05, 11)),
    "cap_middle": (lambda x: cap_fn(x, A_CAP), np.linspace(0.05, A_CAP - 0.05, 25)),
    "cap_above": (lambda x: cap_fn(x, A_CAP), np.linspace(A_CAP + 0.05, 8.0, 11)),
    # bulk points and points whose quadrature is split at a kink image
    "mollified_cap": (_mollified_cap,
                      np.concatenate([np.linspace(-0.05, 0.05, 21),
                                      np.linspace(0.5, 4.0, 8),
                                      A_CAP + np.linspace(-1.5, 1.5, 7) / N_MOLL])),
}


@pytest.mark.parametrize("name", sorted(JET_PRIMITIVES))
def test_jet_rows_vs_fd(name):
    """Row k of every jet primitive is the centred difference of row k - 1."""
    fn, t = JET_PRIMITIVES[name]
    h = 1e-6
    J = fn(t)
    assert J.shape == (4,) + t.shape
    for k in (1, 2, 3):
        fd = (fn(t + h)[k - 1] - fn(t - h)[k - 1]) / (2 * h)
        assert np.abs(J[k] - fd).max() < 1e-5 * max(1.0, np.abs(J[k]).max())


def test_mollifier_mass_and_smoothing():
    xn, wn = gauss_legendre(200)
    mass = np.sum(wn * mollifier(xn))
    assert abs(mass - 1.0) < 1e-12
    # mollifying a linear function reproduces it away from kinks
    line = (np.array([]), np.array([[1.0, 2.0]]))
    out = mollify(mollifier_table(line, 64.0), np.array([0.3, -0.2]))[0]
    assert np.abs(out - np.array([1.6, 0.6])).max() < 1e-10


@pytest.mark.parametrize("N", [N_MOLL, 8.0])
def test_mollified_cap_matches_quadrature(N):
    """The closed form from the mollifier's moments equals the panel
    quadrature of the cap jet, on bulk radii of all three pieces and on radii
    whose window holds a kink.  At N = 8 every moment's term is far above the
    tolerance."""
    edge = np.linspace(-1.05, 1.05, 43) / N
    y = np.concatenate([np.linspace(-3.0, -0.2, 9), np.linspace(0.2, A_CAP - 0.2, 17),
                        np.linspace(A_CAP + 0.2, 8.0, 9), edge, A_CAP + edge])
    ref = _quadrature_mollify(lambda s: cap_fn(s, A_CAP), y, N, (0.0, A_CAP))
    got = mollify(mollifier_table(cap_pieces(A_CAP), N), y)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_cap_pieces_reproduce_cap():
    """The power-basis pieces give cap_fn's rows 0-3 on each piece."""
    P = np.polynomial.polynomial
    breaks, coefs = cap_pieces(A_CAP)
    for c, x in zip(coefs, (np.linspace(-3.0, -0.01, 30),
                            np.linspace(0.01, A_CAP - 0.01, 60),
                            np.linspace(A_CAP + 0.01, 8.0, 30))):
        J = cap_fn(x, A_CAP)
        for k in range(4):
            row = P.polyval(x, P.polyder(c, k))
            assert np.all(np.abs(row - J[k]) <= 1e-14 * np.maximum(1.0, np.abs(J[k])))
    assert np.array_equal(breaks, [0.0, A_CAP])


# ---------------------------------------------------------------------------
# profile family
# ---------------------------------------------------------------------------

def test_cap_function():
    a = 4.9
    assert cap_fn(-1.0, a)[0] == -1.0
    assert abs(cap_fn(a, a)[0] - 8 * a / 15.0) < 1e-14
    assert abs(cap_fn(a + 3.0, a)[0] - 8 * a / 15.0) < 1e-15
    x = np.linspace(0.01, a - 0.01, 50)
    assert np.abs(cap_fn(x, a)[1] - (1 - x**2 / a**2) ** 2).max() < 1e-14
    # capped smoothing is C^2 at zero: first two derivatives matchsides
    assert abs(cap_fn(1e-12, a)[1] - 1.0) < 1e-11
    assert abs(cap_fn(1e-12, a)[2]) < 1e-11
    # third derivative jumps at zero (negative from the right)
    assert cap_fn(1e-9, a)[3] < 0 and cap_fn(-1e-9, a)[3] == 0.0


def test_anchors_at_photon_sphere(sp, profile):
    rps = np.asarray([sp.r_ps])
    assert abs(profile.h_jet(rps)[0][0]) < 1e-14
    assert abs(profile.f1_jet(rps)[0][0]) < 1e-14
    assert abs(profile.F_jet(rps)[0][0]) < 1e-12
    assert profile.F_jet(rps)[1][0] > 0


def test_matching_bound(sp, profile):
    grid = np.linspace(sp.r_ps - profile.chi_outer, sp.r_ps + profile.chi_outer, 101)
    diff = profile.F_jet(grid) - profile.f1_jet(grid)
    for k in range(3):
        assert np.abs(diff[k]).max() < profile.eps_match


def test_profile_jets_vs_fd(profile):
    r = np.array([1.05, 1.2, 1.38, 1.45, 1.8, 3.0, 10.0])
    h = 1e-5
    for fn in (profile.f1_jet, profile.F_jet, profile.f_jet, profile.b_jet,
               profile.gamma_jet, profile.q1_jet, profile.q2_jet,
               lambda r: profile.m_t_jet(r, profile.b_jet(r), profile.gamma_jet(r))):
        J = fn(r)
        fd1 = (fn(r + h)[0] - fn(r - h)[0]) / (2 * h)
        fd2 = (fn(r + h)[0] - 2 * J[0] + fn(r - h)[0]) / h**2
        assert np.abs(J[1] - fd1).max() <= 1e-6 * (1 + np.abs(fd1).max())
        assert np.abs(J[2] - fd2).max() <= 1e-4 * (1 + np.abs(fd2).max())


def test_saturation_identities(sp, profile):
    """Above the horizon cut f is F bit for bit, in the saturation's identity
    branch eps r^3 f > -1; at and below the cut it is the floor
    -2/(eps r^3).  For the default cap and for alpha_cap 4."""
    r = np.concatenate([[1.0 + 2e-13, 1.0 + 1e-9], np.linspace(1.001, 20.0, 500)])
    rb = np.concatenate([np.linspace(0.9, 0.999, 20), [1.0, 1.0 + 5e-14]])
    for prof in (profile, build_profiles(sp, alpha_cap=4.0)):
        f = prof.f_jet(r)
        assert np.array_equal(f, prof.F_jet(r))
        assert np.all(prof.eps * r**3 * f[0] > -1.0)
        fb = prof.f_jet(rb)
        assert np.abs(fb[0] + 2.0 / (prof.eps * rb ** 3)).max() < 1e-12
        for k, c in enumerate((1.0, -3.0, 12.0, -60.0)):
            ref = -2.0 * c / (prof.eps * rb ** (3 + k))
            assert np.all(np.abs(fb[k] - ref) <= 1e-14 * np.abs(ref))


def test_third_order_weight_constant_profile(sp, profile):
    """l applied to the constant profile 1: closed form
    -(3/4) r^{-3} [A'^2 r^2 + A A'' r^2 - A^2]; at r = 2 equals 69/512."""
    r = np.array([2.0])
    val = profile.lf(r, _const_jet(r))[0]
    assert abs(val - 69.0 / 512.0) < 1e-12


def _const_jet(r):
    out = np.zeros((4,) + np.shape(r))
    out[0] = 1.0
    return out


def test_lF_positive_on_window(profile):
    r = np.linspace(1.01, 10.0, 1500)
    assert np.min(profile.lf(r, profile.F_jet(r))) > 0


def test_F_increasing(profile):
    r = np.linspace(1.001, 20.0, 1500)
    assert np.min(profile.F_jet(r)[1]) > 0


def test_lf_matches_lF_outside_saturation(profile):
    r = np.linspace(1.01, 10.0, 200)
    assert np.array_equal(profile.lf(r, profile.f_jet(r)), profile.lf(r, profile.F_jet(r)))
    rb = np.linspace(0.9, 0.999, 9)
    assert np.abs(profile.lf(rb, profile.f_jet(rb))).max() == 0.0


def test_mollified_curvature_sign(sp, profile):
    """The smoothed third derivative of the cap stays nonpositive where the
    photon-sphere matching cutoff is supported."""
    r = np.linspace(sp.r_ps - profile.chi_outer, sp.r_ps + profile.chi_outer, 81)
    H = profile.h_jet(r)
    a3 = profile.a_mollified(H[0])[3]
    assert np.max(a3) <= 1e-10


def test_F_jet_mollifies_once(sp, profile, monkeypatch):
    """F_jet on the matching cutoff's support mollifies the cap jet in one
    call, not once per derivative order."""
    calls = []
    orig = multiplier.mollify

    def counting(table, y, *args, **kwargs):
        calls.append(np.size(y))
        return orig(table, y, *args, **kwargs)

    # the name F_jet looks up: multiplier binds smooth.mollify at import
    monkeypatch.setattr(multiplier, "mollify", counting)
    r = np.linspace(sp.r_ps - profile.chi_outer, sp.r_ps + profile.chi_outer, 41)[1:-1]
    profile.F_jet(r)
    assert calls == [r.size]


def test_profile_builds_mollifier_table_once(sp, monkeypatch):
    """One profile builds its cap's mollifier table once, across its own
    construction and validation and later F_jet and a_mollified calls: one
    table per scale N that build_profiles' doubling tries, none after it."""
    calls = []
    orig = multiplier.mollifier_table

    def counting(pieces, N):
        calls.append(N)
        return orig(pieces, N)

    monkeypatch.setattr(multiplier, "mollifier_table", counting)
    prof = build_profiles(sp)
    built = list(calls)
    r = np.linspace(sp.r_ps - prof.chi_outer, sp.r_ps + prof.chi_outer, 41)
    for k in range(3):
        prof.F_jet(r[k:])
    prof.a_mollified(np.linspace(-1.0, 6.0, 9))
    assert built == [1024.0] == [prof.N]
    assert calls == built


@pytest.mark.parametrize("name", ["F_jet", "f_jet", "q1_jet", "b_jet", "gamma_jet"])
def test_derivative_gate_catches_each_jet(profile, monkeypatch, name):
    """validate_profile's Richardson check rejects a jet whose first-derivative
    row is off by a relative 1e-6, for each of the five jets it checks."""
    orig = getattr(multiplier.MultiplierProfile, name)

    @functools.wraps(orig)
    def skewed(self, r, *args):
        J = orig(self, r, *args)
        J[1] *= 1.0 + 1e-6
        return J

    # patched on the class: undoing an instance patch would leave a bound
    # method in the shared profile's __dict__
    monkeypatch.setattr(multiplier.MultiplierProfile, name, skewed)
    with pytest.raises(DifferentiationError, match=name):
        validate_profile(profile)


def test_redshift_shape_invariants(sp, profile):
    r = np.linspace(0.8, 1.6, 2001)
    G = profile.gamma_jet(r)
    assert np.all(G[0] >= -1e-12) and np.all(G[0] <= 1.0)
    assert np.all(G[1] > -1.0)
    assert np.all(G[0][r >= sp.r_ps] < 1e-12)
    assert profile.gamma_jet(np.array([1.0]))[0][0] > 0
    B = profile.b_jet(r)
    assert np.all(B[0] >= -1e-12)
    end = 1.0 + profile.shape.b_hi + profile.shape.b_w0
    assert end <= (1.0 + 3 * sp.r_ps) / 4 + 1e-12
    sel = (r >= 1.0) & (r <= end)
    assert np.all(B[1][sel] <= 1e-10)
    assert abs(profile.b_jet(np.array([1.0]))[0][0] - 1.0) < 1e-12


def test_alpha_cap_limit(sp):
    with pytest.raises(ValueError):
        build_profiles(sp, alpha_cap=5.0)


def test_built_profile_is_frozen(profile):
    """A profile shared by its readers cannot be changed by one of them."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.eps = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.achieved_match = 0.0
    assert 0 < profile.achieved_match < profile.eps_match


def test_eps_resolvability_guard(sp):
    with pytest.raises(ProfileConstructionFailure):
        build_profiles(sp, eps=0.2)


@pytest.mark.parametrize("r_s", [0.5, 0.7])
def test_derivative_stencil_scales_once_with_r_s(r_s):
    """The finite-difference stencil sits at fixed multiples of r_s, all
    outside the horizon, so off r_s = 1 no jet is evaluated inside it and no
    floating-point warning is raised; the build then fails on the redshift
    shape, whose slopes are not scale-free, not on a derivative check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProfileConstructionFailure, match="gamma slope at or below -1"):
            build_profiles(SchwParams(r_s))


def test_q2_positive_on_window(sp, profile):
    r = np.linspace(1.2, 1.7, 101)
    q2 = profile.q2_jet(r)[0]
    assert np.all(q2 > 0)
    assert profile.q2_jet(np.array([1.05]))[0][0] == 0.0
