import math

import numpy as np
import pytest

from mptrap.params import SchwParams
from mptrap.multiplier import build_profiles
from mptrap.chart import ingoing_chart
from scipy.linalg import eigh

from mptrap import quadform
from mptrap.quadform import (MultiplierTriple, quad_matrix,
                             comparison_weights, check_positivity,
                             build_redshift, boundary_forms, hardy_check,
                             demo_boundary_parameters, zeroth_order_n,
                             flux_matrices, positivity_grid, lateral_bracket)


@pytest.fixture(scope="module")
def triple_no_redshift(sp, chart):
    """The shipped triple with the horizon component switched off."""
    return MultiplierTriple(profile=build_profiles(sp, delta=1e-12), chart=chart)


def test_quadform_symmetric(triple):
    M = quad_matrix(triple, [1.3])[0]
    assert np.array_equal(M, M.T)


def test_n_positive_on_grid(triple):
    rep = build_redshift(triple)
    assert rep["n_min"] > 0
    assert rep["X_dr_at_rs"] < 0
    assert rep["m_dr_at_rs"] > 0


def test_c_star_positive_and_stable(triple):
    res = check_positivity(triple, n_grid=1000)
    res2 = check_positivity(triple, n_grid=2000)
    assert res["c_star"] > 0
    assert abs(res2["c_star"] - res["c_star"]) <= 0.01 * abs(res["c_star"])


def test_no_redshift_degenerates_near_horizon(triple_no_redshift):
    """Dropping the horizon component leaves the A^2 degeneracy uncompensated:
    the photon-sphere part alone is a rank-one square in the derivative block
    near the horizon, so the positivity constant collapses (c_star <= 0 up to
    rounding; with the component on it is ~5e-3)."""
    res = check_positivity(triple_no_redshift, n_grid=500)
    assert res["c_star"] <= 1e-9
    assert res["min_r"] < 1.05


@pytest.mark.parametrize("name", ["triple", "triple_no_redshift"])
def test_positivity_matches_pencil_oracle(request, name):
    """c_star, its radius and eigenvector equal the minimum of a per-point
    generalized eigen-solve of the pencil (M(r), W(r)).  The shipped triple
    has its minimum at the outer end, the one without horizon component next
    to the horizon."""
    triple = request.getfixturevalue(name)
    sp = triple.sp
    grid = positivity_grid(sp, triple.chart.r_e, 50.0 * sp.r_s, 500)
    M, W = quad_matrix(triple, grid), comparison_weights(sp, grid)
    best = None
    for i in range(len(grid)):
        vals, vecs = eigh(M[i], W[i])
        if best is None or vals[0] < best[0]:
            best = (vals[0], grid[i], vecs[:, 0])
    res = check_positivity(triple, n_grid=500)
    assert res["grid_points"] == len(grid)
    assert res["c_star"] == best[0]
    assert res["min_r"] == best[1]
    assert np.array_equal(res["min_eigvec"], best[2])
    assert (best[1] == grid[-1]) if name == "triple" else (best[1] < 1.05)


def test_ingredients_evaluates_each_jet_once(triple, monkeypatch):
    """The 1-form is built from the b and gamma jets ingredients holds."""
    calls = []
    # patched on the class: undoing a patch of the shared profile instance
    # would leave bound methods in its __dict__, shadowing later class patches
    cls = type(triple.profile)
    for name in ("b_jet", "gamma_jet"):
        def counting(self, r, orig=getattr(cls, name), name=name):
            calls.append(name)
            return orig(self, r)
        monkeypatch.setattr(cls, name, counting)
    triple.ingredients(np.linspace(1.01, 3.0, 7))
    assert sorted(calls) == ["b_jet", "gamma_jet"]


def test_lateral_search_stops_at_float_resolution(triple, monkeypatch):
    """The lateral-radius search ends when its bracket's ends are adjacent
    floats, well before a fixed 80 steps."""
    calls = []
    orig = quadform.flux_matrices

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(quadform, "flux_matrices", counting)
    C_demo, r_demo = demo_boundary_parameters(triple)
    assert len(calls) < 60
    assert r_demo < triple.sp.r_s


def test_lateral_bracket_is_a_sign_change(triple):
    """The lateral form's smallest eigenvalue, taken here one radius at a
    time, is positive at the bracket's hi and not positive at the float just
    below it; the demo radius sits a quarter of the way from hi to r_s."""
    rs = triple.sp.r_s
    C_demo, r_demo = demo_boundary_parameters(triple)
    lo, hi = lateral_bracket(triple, C_demo)

    def min_eig(r):
        return np.linalg.eigvalsh(flux_matrices(triple, np.asarray([r]), C_demo)[1][0])[0]

    assert lo == np.nextafter(hi, 0.0)
    assert min_eig(hi) > 0
    assert min_eig(np.nextafter(hi, 0.0)) <= 0
    assert r_demo == hi + 0.25 * (rs - hi)


def test_comparison_weight_degeneracy(sp):
    W = comparison_weights(sp, np.asarray([sp.r_ps]))[0]
    assert W[1, 1] == 0.0 and W[2, 2] == 0.0
    assert W[0, 0] > 0 and W[3, 3] > 0


def test_far_field_asymptotics(sp, triple):
    """Leading entries at r = 100 match the static asymptotic weights."""
    r = np.asarray([100.0])
    ing = triple.ingredients(r)
    from mptrap.quadform import quad_coefficients
    c = quad_coefficients(ing)
    rps = sp.r_ps
    # (d_r u)^2: A^2 F' -> 3 (r_ps^3 - c_d 8 alpha/15)/r^4 (the cap limit)
    slope_inf = 3 * (rps**3 - triple.profile.c_d * 8 * triple.profile.alpha_cap / 15)
    assert abs(c["rr"][0] * 100.0**4 / slope_inf - 1.0) < 0.1
    # |snab u|^2: f (r - r_ps)(r + r_ps)/r^3 -> 1/r
    assert abs(c["ang"][0] * 100.0 - 1.0) < 0.1
    # u^2: 3/(4 r^3)
    assert abs(c["uu"][0] * 100.0**3 / 0.75 - 1.0) < 0.1
    # (d_v u)^2: delta1 q2 / A
    q2 = triple.profile.q2_jet(r)[0][0]
    expect = triple.profile.delta1 * q2 / sp.A(100.0)
    assert abs(c["vv"][0] / expect - 1.0) < 0.1


def test_boundary_forms_spec_parameters(triple):
    """At the acceptance-pinned (C, r_e) the flux forms are indefinite: the
    inner-boundary (d_r u)^2 entries carry A(r_e) < 0 against the C and
    saturated-profile terms.  The measurement locks the analysis."""
    bf = boundary_forms(triple, 100.0, 0.95)
    assert bf["lateral_min_eig"] < 0
    assert bf["slice_min_eig"] < 0


def test_boundary_forms_feasible_parameters(triple):
    C_demo, r_demo = demo_boundary_parameters(triple)
    bf = boundary_forms(triple, C_demo, r_demo)
    assert bf["lateral_min_eig"] > 0
    assert bf["slice_min_eig"] > 0
    assert r_demo < triple.sp.r_s
    assert math.isfinite(bf["kappa"])


def test_lateral_rr_entry_structure(triple):
    """The lateral (d_r u)^2 entry equals A X(dr)/2 exactly."""
    for re_ in (0.95, 0.97):
        ing = triple.ingredients(np.asarray([re_]))
        _, L = flux_matrices(triple, np.asarray([re_]), 50.0)
        assert abs(L[0][0, 0] - ing["A"][0] * ing["Xr"][0] / 2.0) < 1e-14


def test_hardy():
    rep = hardy_check(0.95)
    assert rep["hardy_ratio"] <= rep["classical_constant"] * 1.05


def test_n_definition_consistency(sp, triple):
    """n differs from the u^2 matrix entry by the completed-square term."""
    r = np.asarray([1.05, 1.22])
    M = quad_matrix(triple, r)
    ing = triple.ingredients(r)
    n = zeroth_order_n(triple, ing)
    extra = triple.profile.delta * ing["b"][0] * ing["gam"][0] ** 2 / r**3
    assert np.abs(M[:, 3, 3] - (n + extra)).max() < 1e-14


def test_integrated_smallness(profile, chart):
    """Saturation bookkeeping: the curvature-error integral over the
    saturated region is well below the horizon-component weight."""
    from mptrap.cli import integrated_smallness
    I_val, parts = integrated_smallness(profile, chart.r_e)
    assert I_val < profile.delta / 2.0
    assert parts["rho3_part"] > 0          # the genuine eps-order term
    assert parts["rho2_part"] < 1e-12      # exponentially suppressed


def test_wave_forcing_config(tmp_path):
    from mptrap.cli import run
    cfg = {"schw": {"r_s": 1.0, "d": 1},
           "wave": {"r_e": 0.9, "r_max": 30.0, "n_r": 300, "l": 1, "T": 8.0,
                    "data": {"type": "bump", "center": 3.0, "width": 0.8},
                    "forcing": {"type": "bump", "center": 4.0, "width": 1.0,
                                "amplitude": 0.3},
                    "snapshots": True}}
    rep = run("wave-evolve", cfg, str(tmp_path), seed=0)
    assert rep["status"] == "pass"
    assert (tmp_path / "snapshots.csv").exists()
    assert rep["metrics"]["E_lateral"] > 0

