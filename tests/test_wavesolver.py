import json
import math
import os
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mptrap import forked, wavesolver
from mptrap.params import SchwParams, InstabilityError
from mptrap.chart import ingoing_chart
from mptrap.wavesolver import (SolverDomain, assemble_mode, spatial_operator,
                               evolve, diagnostics, gaussian_bump,
                               convergence_study, slice_energy, SliceDiagnostics)


@pytest.fixture(scope="module")
def wchart(sp):
    return ingoing_chart(sp, 0.9, 90.0)


def coefficients(sp, chart, r):
    """(A, B, c1, cross0) of the mode equation at r, from the chart and the
    lapse: g^{rr}, g^{vr}, r^{-3} (r^3 A)' and r^{-3} (r^3 B)', with
    B' = -(A' mu' + A mu'') since B = 1 - A mu'."""
    _, B, A = chart.block_inverse(r)
    M, M1 = chart.mu_derivs(r)
    A1 = sp.A1(r)
    return A, B, A1 + 3.0 * A / r, -(A1 * M + A * M1) + 3.0 * B / r


def split_rhs(op, v, W):
    """spatial_operator on the stacked (v, W), split into (v_t, W_t)."""
    return np.split(spatial_operator(op, np.concatenate([v, W])), 2)


def test_zero_data_stays_zero(sp, wchart, recording):
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=300, l=0, T=5.0)
    op = assemble_mode(sp, wchart, dom)
    rec = recording()
    evolve(op, np.zeros(300), np.zeros(300), observe=rec)
    assert np.abs(rec.v[-1]).max() == 0.0


def test_constant_annihilated(sp, wchart):
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=300, l=0, T=1.0)
    op = assemble_mode(sp, wchart, dom)
    _, vtt = split_rhs(op, np.ones(300), np.zeros(300))
    assert np.abs(vtt).max() < 1e-12


def test_far_field_flat_operator(sp, wchart):
    dom = SolverDomain(r_e=0.9, r_max=80.0, n_r=400, l=1, T=1.0)
    op = assemble_mode(sp, wchart, dom)
    i = np.argmin(np.abs(op.r - 70.0))
    A, B, c1, cross0 = coefficients(sp, wchart, op.r)
    # g^vv -> -1, cross -> 0, radial part -> d_rr + (3/r) d_r
    assert abs(op.gi_vv[i] + 1.0) < 5e-4
    assert abs(B[i]) < 1e-12
    assert abs(A[i] - 1.0) < 3e-4
    assert abs(c1[i] - 3.0 / op.r[i]) < 1e-3
    assert abs(cross0[i]) < 1e-12


def test_stencil_second_order(sp, wchart):
    """Applying the discrete operator to an analytic profile converges at
    second order to the analytic operator value."""
    errs = []
    for n_r in (400, 800, 1600):
        dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=n_r, l=2, T=1.0)
        op = assemble_mode(sp, wchart, dom)
        r = dom.grid()
        v = np.sin(r) / r
        W = np.zeros_like(r)
        _, vtt = split_rhs(op, v, W)
        v1 = np.cos(r) / r - np.sin(r) / r**2
        v2 = -np.sin(r) / r - 2 * np.cos(r) / r**2 + 2 * np.sin(r) / r**3
        A, _, c1, _ = coefficients(sp, wchart, r)
        exact = (op.eig * v / r**2 - A * v2
                 - c1 * v1) / op.gi_vv
        interior = slice(4, -4)
        errs.append(np.abs((vtt - exact)[interior]).max())
    order = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 1.8 < order < 2.2 and 1.8 < order2 < 2.2


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(n_r=st.integers(7, 400), l=st.sampled_from((0, 1, 2)),
       c=st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 3))
def test_operator_exact_on_quadratics(sp, wchart, n_r, l, c):
    """Every row of the assembled operator, the one-sided closure rows and
    the dissipation included, is exact on quadratics p."""
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=n_r, l=l, T=1.0)
    op = assemble_mode(sp, wchart, dom)
    r = dom.grid()
    half = 0.5 * (dom.r_max - dom.r_e)
    s = (r - dom.r_e) / half - 1.0
    p = c[0] + c[1] * s + c[2] * s**2
    p1 = (c[1] + 2 * c[2] * s) / half
    p2 = 2 * c[2] / half**2
    zero = np.zeros_like(r)
    A, B, c1, cross0 = coefficients(sp, wchart, r)

    def close(got, exp):
        scale = max(np.abs(exp).max(), np.abs(p).max())
        return np.abs(got - exp).max() <= 1e-9 * scale

    dv, dW = split_rhs(op, p, zero)
    assert close(dv, zero)
    assert close(dW, (op.eig * p / r**2 - A * p2 - c1 * p1) / op.gi_vv)
    dv, dW = split_rhs(op, zero, p)
    assert close(dv, p)
    assert close(dW, (-2 * B * p1 - cross0 * p) / op.gi_vv)


def test_manufactured_energy_quadrature(sp, wchart):
    """E_slice for u = e^{-t} bump agrees with the closed-form quadrature:
    the trapezoid rule is spectrally accurate on compactly supported smooth
    profiles."""
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=2400, l=1, T=1.0)
    op = assemble_mode(sp, wchart, dom)
    r = dom.grid()
    c, w = 5.0, 2.0
    t0 = 0.37
    v = math.exp(-t0) * gaussian_bump(r, c, w)
    W = -v

    def parts(rr):
        s = (rr - c) / w
        inside = np.abs(np.asarray(s)) < 1.0
        s = np.where(inside, s, 0.0)
        g = np.where(inside, np.exp(-1.0 / (1.0 - s * s)) * math.e, 0.0)
        gp = np.where(inside, g * (-2.0 * s / (1.0 - s * s) ** 2) / w, 0.0)
        return g, gp

    # trapezoid on the exact integrand is spectrally accurate for compactly
    # supported smooth densities: compare against adaptive quadrature
    g, gp = parts(r)
    dens_grid = math.exp(-2 * t0) * (gp**2 + g**2 + op.eig * g**2 / r**2) * r**3
    E_trapz = float(np.trapezoid(dens_grid, r))

    def dens(rr):
        gg, ggp = parts(rr)
        return math.exp(-2 * t0) * (ggp**2 + gg**2 + op.eig * gg**2 / rr**2) * rr**3

    E_exact, _ = quad(dens, c - w, c + w, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(E_trapz - E_exact) < 1e-10 * max(1.0, E_exact)
    # the solver's energy uses the second-order discrete radial derivative
    E_disc = slice_energy(op, v, W)
    assert abs(E_disc - E_exact) < 30.0 * op.dom.dr**2 * E_exact


def test_energy_bounded_and_lateral_nonnegative(sp, wchart, recording):
    dom = SolverDomain(r_e=0.9, r_max=60.0, n_r=900, l=1, T=40.0)
    op = assemble_mode(sp, wchart, dom)
    r = dom.grid()
    v0 = gaussian_bump(r, 3.0, 0.8)
    rec = recording()
    hist = evolve(op, v0, np.zeros_like(v0), observe=rec)
    rep = rec.diagnostics(op, hist)
    assert rep["sup_E"] <= rep["E_initial"] * (1.0 + 1e-12)
    assert rep["lateral_min_integrand"] >= 0.0
    assert math.isfinite(rep["LE1_sq"]) and rep["LE1_sq"] > 0
    assert rep["E_lateral"] > 0


def test_photon_sphere_pulse_degenerate_weight(sp, wchart, recording):
    """Data centered on the photon sphere: the degenerate part of the norm in
    the annulus containing r_ps is suppressed relative to the neighbors'
    scale because of the vanishing weight."""
    dom = SolverDomain(r_e=0.9, r_max=60.0, n_r=900, l=2, T=20.0)
    op = assemble_mode(sp, wchart, dom)
    r = dom.grid()
    v0 = gaussian_bump(r, sp.r_ps, 0.4)
    rec = recording()
    hist = evolve(op, v0, np.zeros_like(v0), observe=rec)
    annulus = rec.diagnostics(op, hist)["dyadic"]["1"]
    # the j=1 annulus [1,2] contains the photon sphere; its degenerate weight
    # must be far below the radial (nondegenerate) content of the same run
    assert annulus["degenerate"] < 0.2 * annulus["radial"]


def test_hardy_on_evolved_field(sp, wchart, recording):
    dom = SolverDomain(r_e=0.9, r_max=60.0, n_r=900, l=0, T=20.0)
    op = assemble_mode(sp, wchart, dom)
    r = dom.grid()
    v0 = gaussian_bump(r, 3.0, 0.8)
    rec = recording()
    evolve(op, v0, np.zeros_like(v0), observe=rec)
    v = rec.v[-1]
    num = np.trapezoid(v**2, r)                    # |r^{-3/2} u|^2 r^3 dr
    vr = np.gradient(v, dom.dr)
    den = np.trapezoid(vr**2 * r**3, r)
    assert num <= 10.0 * den


def test_no_boundary_reflection(sp, recording, monkeypatch):
    """Moving the outer boundary out changes causally protected diagnostics
    at the round-off-accumulation level only."""
    monkeypatch.setattr(wavesolver, "SAMPLE_EVERY", 50)
    series = {}
    for r_max in (40.0, 60.0):
        ch = ingoing_chart(sp, 0.9, r_max + 5.0)
        n_r = int(round((r_max - 0.9) / 0.05)) + 1
        dom = SolverDomain(r_e=0.9, r_max=r_max, n_r=n_r, l=0, T=12.0)
        op = assemble_mode(sp, ch, dom)
        r = dom.grid()
        v0 = gaussian_bump(r, 3.0, 0.8)
        rec = recording()
        evolve(op, v0, np.zeros_like(v0), observe=rec)
        series[r_max] = np.asarray(rec.replay(op).E)
    e1, e2 = series[40.0], series[60.0]
    n = min(len(e1), len(e2))
    rel = np.abs(e1[:n] - e2[:n]) / e1[0]
    assert rel.max() < 1e-6


def test_instability_detected(sp, wchart):
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=300, l=0, T=200.0, cfl=5.0)
    op = assemble_mode(sp, wchart, dom)
    r = dom.grid()
    v0 = gaussian_bump(r, 3.0, 0.8)
    with pytest.raises(InstabilityError):
        evolve(op, v0, np.zeros_like(v0), observe=lambda t, v, W: None)


def test_instability_detected_in_W_on_the_last_step(sp, wchart):
    """A forcing that is infinite only in the last step's final stage, which
    enters W's update alone, leaves v finite and W not: evolve raises."""
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=300, l=0, T=2.0)
    op = assemble_mode(sp, wchart, dom)
    v0 = gaussian_bump(dom.grid(), 3.0, 0.8)

    def forcing(t, rr):
        return np.full_like(rr, math.inf if t > dom.T - op.dt / 4 else 0.0)

    with pytest.raises(InstabilityError, match=f"at step {op.n_steps} "):
        evolve(op, v0, np.zeros_like(v0), forcing, observe=lambda t, v, W: None)


def test_convergence_smoke(sp, wchart):
    base = SolverDomain(r_e=0.9, r_max=30.0, n_r=300, l=0, T=8.0)
    res = convergence_study(sp, wchart, base, 3.0, 0.9, levels=3)
    assert res["field_errors"][0] > res["field_errors"][1]
    assert 1.5 < res["field_order_fit"] < 3.5


def test_no_subnormal_state(sp, wchart, recording, monkeypatch):
    """The precursor tail of an evolved bump never leaves subnormal entries
    in the state."""
    monkeypatch.setattr(wavesolver, "SAMPLE_EVERY", 1)
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=600, l=0, T=10.0)
    op = assemble_mode(sp, wchart, dom)
    v0 = gaussian_bump(dom.grid(), 3.0, 0.8)
    rec = recording()
    evolve(op, v0, np.zeros_like(v0), observe=rec)
    mag = np.abs(np.concatenate([rec.v, rec.W], axis=1))
    assert not np.any((mag > 0) & (mag < np.finfo(float).tiny))


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_evolve_matches_reference_rk4(sp, wchart, recording, monkeypatch, forced):
    """evolve agrees with the classical RK4 tableau applied out of place on
    top of spatial_operator."""
    monkeypatch.setattr(wavesolver, "SAMPLE_EVERY", 5)
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=200, l=1, T=4.0)
    op = assemble_mode(sp, wchart, dom)
    v0 = gaussian_bump(dom.grid(), 3.0, 0.8)

    def forcing(t, rr):
        return math.exp(-((t - 2.0) / 1.0) ** 2) * gaussian_bump(rr, 5.0, 1.0)

    f = forcing if forced else None
    rec = recording()
    hist = evolve(op, v0, np.zeros_like(v0), forcing=f, observe=rec)
    a = [[], [0.5], [0.0, 0.5], [0.0, 0.0, 1.0]]
    b = [1 / 6, 1 / 3, 1 / 3, 1 / 6]
    c = [0.0, 0.5, 0.5, 1.0]
    y = np.concatenate([v0, np.zeros_like(v0)])
    states = [y]
    for k in range(op.n_steps):
        t = k * op.dt
        ks = []
        for i in range(4):
            yi = y + op.dt * sum(aij * kj for aij, kj in zip(a[i], ks))
            ti = t + c[i] * op.dt
            ks.append(spatial_operator(op, yi, None if f is None else f(ti, op.r)))
        y = y + op.dt * sum(bi * ki for bi, ki in zip(b, ks))
        states.append(y)
    assert len(hist.lateral_times) == op.n_steps + 1
    for t, v, W in zip(rec.times, rec.v, rec.W):
        ref = states[round(t / op.dt)]
        got = np.concatenate([v, W])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dyadic_norms_match_masked_trapezoid(sp, wchart, recording):
    """The dyadic LE pieces and the lower-order term agree with the
    annulus-by-annulus masked trapezoid rule."""
    dom = SolverDomain(r_e=0.9, r_max=60.0, n_r=500, l=2, T=10.0)
    op = assemble_mode(sp, wchart, dom)
    r = op.r
    v0 = gaussian_bump(r, 3.0, 0.8)
    rec = recording()
    hist = evolve(op, v0, np.zeros_like(v0), observe=rec)
    rep = rec.diagnostics(op, hist)
    w_ps = ((r - sp.r_ps) / r) ** 2
    wt = np.gradient(np.asarray(rec.times))
    radial, degenerate, low = {}, {}, 0.0
    for i, (v, W) in enumerate(zip(rec.v, rec.W)):
        v_r = op.D1 @ v
        for j in range(-1, 7):
            sel = (r >= 2.0 ** (j - 1)) & (r < 2.0**j)
            if not sel.any():
                continue
            radial[j] = radial.get(j, 0.0) + wt[i] * 2.0 ** (-j) * np.trapezoid(
                v_r[sel] ** 2 * r[sel] ** 3, r[sel])
            degenerate[j] = degenerate.get(j, 0.0) + wt[i] * 2.0 ** (-j) * np.trapezoid(
                w_ps[sel] * (W[sel] ** 2 + op.eig * v[sel] ** 2 / r[sel] ** 2)
                * r[sel] ** 3, r[sel])
        low += wt[i] * np.trapezoid(v**2, r)
    assert sorted(rep["dyadic"]) == sorted(map(str, radial))
    for j in radial:
        assert rep["dyadic"][str(j)]["radial"] == pytest.approx(radial[j], rel=1e-13)
        assert rep["dyadic"][str(j)]["degenerate"] == pytest.approx(degenerate[j], rel=1e-13)
    assert rep["lower_order_sq"] == pytest.approx(low, rel=1e-13)


@pytest.mark.parametrize("sample_every", [1, 3, 8])
@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_streamed_diagnostics_equal_stored(sp, wchart, recording, monkeypatch, forced,
                                          sample_every):
    """Diagnostics folded in from the live views that evolve's observer is
    handed equal, bit for bit, those of the same slices stored as copies and
    replayed into a fresh SliceDiagnostics, and the observer is called at
    exactly the sample times."""
    monkeypatch.setattr(wavesolver, "SAMPLE_EVERY", sample_every)
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=200, l=1, T=4.1)
    op = assemble_mode(sp, wchart, dom)
    assert sample_every == 1 or op.n_steps % sample_every != 0
    v0 = gaussian_bump(op.r, 3.0, 0.8)

    def forcing(t, rr):
        return math.exp(-((t - 2.0) / 1.0) ** 2) * gaussian_bump(rr, 5.0, 1.0)

    rec, acc = recording(), SliceDiagnostics(op)

    def store_and_stream(t, v, W):
        rec(t, v, W)
        acc(t, v, W)
    hist = evolve(op, v0, np.zeros_like(v0), forcing=forcing if forced else None,
                  observe=store_and_stream)
    assert np.asarray(acc.times).tobytes() == np.asarray(rec.times).tobytes()
    assert len(rec.times) == op.n_steps // sample_every + 1 + (op.n_steps % sample_every > 0)
    replayed = rec.replay(op)
    assert np.asarray(replayed.E).tobytes() == np.asarray(acc.E).tobytes()
    d1, d2 = diagnostics(replayed, hist), diagnostics(acc, hist)
    assert list(d1) == list(d2)
    for key in ("E_initial", "E_lateral", "sup_E", "lateral_min_integrand", "LE1_sq",
                "lower_order_sq"):
        assert np.float64(d1[key]).tobytes() == np.float64(d2[key]).tobytes()
    assert list(d1["dyadic"]) == list(d2["dyadic"])
    for j, parts in d1["dyadic"].items():
        for key, value in parts.items():
            assert np.float64(value).tobytes() == np.float64(d2["dyadic"][j][key]).tobytes()


# the benchmark's wave-evolve size
WAVE_BENCH = {"r_e": 0.9, "r_max": 60.0, "n_r": 1200, "l": 0, "T": 40.0,
              "data": {"type": "bump", "center": 3.0, "width": 0.8}}


def test_wave_evolve_keeps_no_slice_history(tmp_path):
    """wave-evolve folds each sample into the diagnostics as it comes and
    keeps no copy of it: its traced peak stays well under the 4.9 MB that
    255 copies of (v, W) at n_r 1200 take alone (a task that kept them
    peaked at 5.9 MB, the streamed one peaks at 1.05 MB)."""
    import tracemalloc
    from mptrap import chart, csvtable, smooth  # noqa: F401  (imports untraced)
    from mptrap.cli import run
    from scipy import sparse  # noqa: F401
    tracemalloc.start()
    try:
        rep = run("wave-evolve", {"schw": {"r_s": 1.0, "d": 1}, "wave": WAVE_BENCH},
                  str(tmp_path), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["status"] == "pass"
    assert peak < 2.5e6


def test_snapshots_csv_equals_stored_history_rows(tmp_path, monkeypatch, recording):
    """With wave.snapshots set, snapshots.csv holds, byte for byte, the rows
    v[::8] of every sample of the run, stored as copies beside the task's
    own observer."""
    from mptrap.cli import run
    from mptrap.csvtable import write_csv
    orig = wavesolver.evolve
    stored = []

    def evolve_and_store(op, v0, W0, forcing=None, *, observe):
        rec = recording()
        stored.append((op, rec))

        def store_and_observe(t, v, W):
            rec(t, v, W)
            observe(t, v, W)
        return orig(op, v0, W0, forcing, observe=store_and_observe)
    monkeypatch.setattr(wavesolver, "evolve", evolve_and_store)
    cfg = {"schw": {"r_s": 1.0, "d": 1},
           "wave": {"r_e": 0.9, "r_max": 30.0, "n_r": 300, "l": 1, "T": 8.0,
                    "data": {"type": "bump", "center": 3.0, "width": 0.8},
                    "forcing": {"type": "bump", "center": 4.0, "width": 1.0,
                                "amplitude": 0.3},
                    "snapshots": True}}
    rep = run("wave-evolve", cfg, str(tmp_path / "run"), seed=0)
    assert rep["status"] == "pass"
    ((op, rec),) = stored
    write_csv(str(tmp_path / "expected.csv"),
              "vtilde," + ",".join(f"r={ri:.6f}" for ri in op.r[::8]),
              np.column_stack([rec.times, np.asarray(rec.v)[:, ::8]]), fmt="%.10e")
    got = (tmp_path / "run" / "snapshots.csv").read_bytes()
    assert got == (tmp_path / "expected.csv").read_bytes()
    assert got.count(b"\n") == len(rec.times) + 1


def test_norms_json_is_the_diagnostics_report(tmp_path, monkeypatch):
    """norms.json holds the report that diagnostics returns, dyadic keys as
    strings, with the run's l, n_r and T added; the task's metrics are the
    report's numbers."""
    from mptrap.cli import run
    orig = wavesolver.diagnostics
    reports = []

    def kept(acc, hist):
        reports.append(orig(acc, hist))
        return reports[-1]
    monkeypatch.setattr(wavesolver, "diagnostics", kept)
    rep = run("wave-evolve", {"wave": {"n_r": 200, "l": 1, "T": 4.0}}, str(tmp_path), seed=0)
    [report] = reports
    assert sorted(report) == ["E_initial", "E_lateral", "LE1_sq", "dyadic",
                              "lateral_min_integrand", "lower_order_sq", "sup_E"]
    assert all(isinstance(j, str) for j in report["dyadic"])
    with open(tmp_path / "norms.json") as fh:
        assert json.load(fh) == {**report, "l": 1, "n_r": 200, "T": 4.0}
    for key in ("E_initial", "sup_E", "E_lateral", "lateral_min_integrand", "LE1_sq"):
        assert rep["metrics"][key] == report[key]


def test_banded_product_sums_rows_in_column_order(sp, wchart, recording):
    """L and D1 keep their bands in ascending offset order, so each product
    row is the sum of the row's nonzero products in column order from 0.0,
    which is what a CSR product of the same entries gives, bit for bit."""
    n = 300
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=n, l=2, T=6.0)
    op = assemble_mode(sp, wchart, dom)
    assert np.all(np.diff(op.L.offsets) > 0) and np.all(np.diff(op.D1.offsets) > 0)
    v0 = gaussian_bump(op.r, 3.0, 0.8)
    rec = recording()
    evolve(op, v0, np.zeros_like(v0), observe=rec)
    evolved = np.concatenate([rec.v[-1], rec.W[-1]])
    random = np.random.default_rng(7).standard_normal(2 * n)

    def row_sums(M, x):
        dense = M.toarray()
        out = np.empty(dense.shape[0])
        for i, row in enumerate(dense):
            s = 0.0
            for j in np.flatnonzero(row):
                s += float(row[j]) * float(x[j])
            out[i] = s
        return out

    for y in (random, evolved):
        assert (op.L @ y).tobytes() == row_sums(op.L, y).tobytes()
        assert (op.D1 @ y[:n]).tobytes() == row_sums(op.D1, y[:n]).tobytes()


def test_evolve_leaves_inputs_and_snapshots_unaliased(sp, wchart, recording, monkeypatch):
    """The in-place stages touch neither the initial data nor the snapshots
    a recording observer copied, and a repeated run on the same operator
    repeats exactly."""
    monkeypatch.setattr(wavesolver, "SAMPLE_EVERY", 3)
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=200, l=1, T=4.0)
    op = assemble_mode(sp, wchart, dom)
    v0 = gaussian_bump(op.r, 3.0, 0.8)
    W0 = 0.5 * gaussian_bump(op.r, 4.0, 1.0)
    v0_copy, W0_copy = v0.copy(), W0.copy()

    def forcing(t, rr):
        return math.exp(-((t - 2.0) / 1.0) ** 2) * gaussian_bump(rr, 5.0, 1.0)

    r1, r2 = recording(), recording()
    h1 = evolve(op, v0, W0, forcing=forcing, observe=r1)
    h2 = evolve(op, v0, W0, forcing=forcing, observe=r2)
    assert np.array_equal(v0, v0_copy) and np.array_equal(W0, W0_copy)
    for a, b in ((r1.times, r2.times), (r1.v, r2.v), (r1.W, r2.W),
                 (h1.lateral_density, h2.lateral_density)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    arrays = r1.v + r1.W + r2.v + r2.W + [v0, W0]
    assert len(r1.v) > 2
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


# a small three-level study: n_r 60, 119 and 237
STUDY_BASE = SolverDomain(r_e=0.9, r_max=30.0, n_r=60, l=0, T=2.0)


def small_study(sp, chart):
    return convergence_study(sp, chart, STUDY_BASE, 3.0, 0.9, levels=3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_study_equals_inline(sp, wchart, monkeypatch):
    """The study with its coarse levels in a forked child gives exactly
    what it gives with them run inline in this process."""
    forked_result = small_study(sp, wchart)
    assert_no_child_left()
    monkeypatch.setattr(forked, "beside", lambda first, second: (first(), second()))
    assert small_study(sp, wchart) == forked_result
    assert len(forked_result) == 6


def test_study_runs_finest_level_here(sp, wchart, monkeypatch, tmp_path):
    """The finest level is evolved in the calling process and the coarser
    ones in exactly one other process."""
    log = tmp_path / "levels.txt"
    orig = wavesolver.evolve

    def logged_evolve(op, v0, W0, forcing=None, *, observe):
        with open(log, "a") as fh:
            fh.write(f"{op.dom.n_r} {os.getpid()}\n")
        return orig(op, v0, W0, forcing, observe=observe)
    monkeypatch.setattr(wavesolver, "evolve", logged_evolve)
    small_study(sp, wchart)
    pids = dict(map(int, line.split()) for line in log.read_text().splitlines())
    assert sorted(pids) == [60, 119, 237]
    assert pids[237] == os.getpid()
    assert pids[60] == pids[119] != os.getpid()
    assert_no_child_left()


@pytest.mark.parametrize("failing", [(119,), (237,), (119, 237)],
                         ids=["coarse", "finest", "both"])
def test_study_failure_raises_here_in_serial_order(sp, wchart, monkeypatch, failing):
    """A failing level raises in this process with its own message and
    innermost frame, and when two fail, the one the serial order reaches
    first is reported."""
    orig = wavesolver.evolve

    def failing_evolve(op, v0, W0, forcing=None, *, observe):
        if op.dom.n_r in failing:
            raise InstabilityError(f"n_r {op.dom.n_r} in process {os.getpid()}")
        return orig(op, v0, W0, forcing, observe=observe)
    monkeypatch.setattr(wavesolver, "evolve", failing_evolve)
    with pytest.raises(InstabilityError) as info:
        small_study(sp, wchart)
    assert str(info.value) == f"n_r {failing[0]} in process {os.getpid()}"
    assert traceback.extract_tb(info.value.__traceback__)[-1].name == "failing_evolve"
    assert_no_child_left()


@pytest.mark.parametrize("n_r,T,center,step,window", [
    (1597, 8.0, 3.0, 128, "inside"),
    (300, 60.0, 3.0, 128, "reaches"),
    (300, 8.0, 29.5, 128, "whole"),
    (300, 5.0, None, 128, "inside"),
    (1597, 8.0, 3.0, 0, "inside"),
], ids=["never-reaches-n", "reaches-n", "bump-at-edge", "zero-data", "step-0"])
def test_window_does_whole_grid_arithmetic(sp, wchart, monkeypatch, n_r, T, center, step,
                                           window):
    """An unforced evolve, which steps on the state's nonzero window, records
    byte for byte what the same run records under a zero forcing, which steps
    on the whole grid.  With WINDOW_STEP 0 the window is regrown almost every
    step, so a WINDOW_MARGIN below the four stages' reach would show here."""
    monkeypatch.setattr(wavesolver, "WINDOW_STEP", step)
    dom = SolverDomain(r_e=0.9, r_max=30.0, n_r=n_r, l=2, T=T)
    op = assemble_mode(sp, wchart, dom)
    v0 = np.zeros(n_r) if center is None else gaussian_bump(op.r, center, 0.8)
    sizes = []
    orig = wavesolver.spatial_operator

    def sized(op_w, y, forcing=None):
        sizes.append(op_w.L.shape[0] // 2)
        return orig(op_w, y, forcing)
    monkeypatch.setattr(wavesolver, "spatial_operator", sized)
    runs = []
    for forcing in (None, lambda t, r: np.zeros_like(r)):
        sizes.clear()
        rec = []
        hist = evolve(op, v0, np.zeros_like(v0), forcing=forcing,
                      observe=lambda t, v, W: rec.append((t, v.tobytes(), W.tobytes())))
        runs.append((rec, np.asarray(hist.lateral_density).tobytes()))
        assert len(sizes) == 4 * op.n_steps
    windowed, whole = runs
    assert windowed == whole
    # the case is what its id says: sizes holds the zero-forced run's products
    assert set(sizes) == {n_r}
    sizes.clear()
    evolve(op, v0, np.zeros_like(v0), observe=lambda t, v, W: None)
    assert {"inside": max(sizes) < n_r, "reaches": sizes[0] < sizes[-1] == n_r,
            "whole": set(sizes) == {n_r}}[window]


def test_window_operator_is_principal_block(sp, wchart):
    """The window operator is L's block on the first m points of v and of W,
    and at m = n it is the operator itself."""
    n, m = 300, 150
    op = assemble_mode(sp, wchart, SolverDomain(r_e=0.9, r_max=30.0, n_r=n, l=2, T=1.0))
    buf = np.empty(op.L.data.size)
    idx = np.r_[0:m, n:n + m]
    cut = wavesolver._window_operator(op, m, buf)
    assert np.shares_memory(cut.L.data, buf)
    assert np.array_equal(cut.L.toarray(), op.L.toarray()[np.ix_(idx, idx)])
    assert wavesolver._window_operator(op, n, buf) is op
