"""The in-package DOP853 integrator against scipy's solve_ivp(method="DOP853").

Steps and dense-output samples are the same arithmetic, so they must agree
bit for bit; the event time is found by bisection instead of brentq and may
differ in the last bits only.
"""
import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mptrap import cli, dop853, geodesic
from mptrap.params import horizons
from mptrap.geometry import inverse_metric_components, inverse_metric_form
from mptrap.geodesic import (Covector, PhasePoint, null_Xi, trapped_sphere,
                             integrate_geodesic)


def _generic(params):
    Xi = null_Xi(params, 3.0, 1.0, -1.0, 0.2, 0.1, -0.05)
    return PhasePoint(t=0.0, x=3.0, theta=1.0, phi=0.0, psi=0.0,
                      momentum=Covector(tau=-1.0, Xi=Xi, Theta=0.2, Phi=0.1, Psi=-0.05))


def _trapped(params):
    ts = trapped_sphere(params, 0.1, -0.05)
    g = inverse_metric_components(params, ts.x0, 1.0)
    Th0 = math.sqrt(-inverse_metric_form(g, -1.0, 0.0, 0.0, 0.1, -0.05) / g[7])
    return PhasePoint(t=0.0, x=ts.x0, theta=1.0, phi=0.0, psi=0.0,
                      momentum=Covector(tau=-1.0, Xi=0.0, Theta=Th0, Phi=0.1, Psi=-0.05))


def _both(params, init, span, tol, x_escape, n_samples):
    """(dop853.integrate result, solve_ivp result) for the geodesic flow."""
    m = init.momentum
    fun = geodesic._rhs(params, m.tau, m.Phi, m.Psi)
    x_pad = horizons(params).x_plus * (1 + 1e-6)

    def ev_horizon(lam, y):
        return y[1] - x_pad
    ev_horizon.terminal, ev_horizon.direction = True, -1

    def ev_escape(lam, y):
        return y[1] - x_escape
    ev_escape.terminal, ev_escape.direction = True, +1

    y0 = (init.t, init.x, init.theta, init.phi, init.psi, m.Xi, m.Theta)
    t_eval = np.linspace(0.0, span, n_samples)
    ours = dop853.integrate(fun, y0, span, tol, t_eval,
                            ((ev_horizon, -1), (ev_escape, +1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns where it raises rtol to 100 eps
        ref = solve_ivp(fun, (0.0, span), y0, method="DOP853", rtol=tol, atol=tol,
                        t_eval=t_eval, events=(ev_horizon, ev_escape), dense_output=True)
    return ours, ref


@pytest.mark.parametrize("orbit,span,tol,x_escape,n_samples,event", [
    ("generic", 1000.0, 1e-10, 1e8, 400, None),
    ("trapped", 200.0, 1e-12, 1e8, 4000, 0),
    ("generic", 1000.0, 1e-10, 50.0, 400, 1),
    ("generic", 2.0, 1e-15, 1e8, 50, None),
], ids=["span", "trapped-horizon", "escape", "rtol-floor"])
def test_matches_solve_ivp(bh_small, orbit, span, tol, x_escape, n_samples, event):
    init = (_generic if orbit == "generic" else _trapped)(bh_small)
    (t, y, hit), ref = _both(bh_small, init, span, tol, x_escape, n_samples)
    assert ref.success
    assert np.array_equal(t, ref.t)
    assert np.array_equal(y, ref.y)
    if event is None:
        assert hit is None and ref.status == 0
        return
    k, t_k, y_k = hit
    assert k == event and ref.status == 1
    t_ref = ref.t_events[event][0]
    assert t.size < n_samples and t[-1] <= t_k
    assert abs(t_k - t_ref) <= 1e-12 * abs(t_ref)
    # the event state is scipy's interpolant at our root; near the horizon
    # Xi' is large, so the two event states differ by more than the roots do
    assert np.array_equal(y_k, ref.sol(t_k))


def _blow_up(params, tau, Phi, Psi):
    """t' = 1 + t^2: t = tan(lambda) leaves every bound at lambda = pi/2."""
    return lambda lam, y: (1.0 + y[0] * y[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_failed_geodesic_raises(monkeypatch, bh_small):
    """A flow that blows up in finite lambda is an error, not a 'span' orbit."""
    monkeypatch.setattr(geodesic, "_rhs", _blow_up)
    with pytest.raises(RuntimeError, match="lambda = 1.57"):
        integrate_geodesic(bh_small, _generic(bh_small), 10.0)


def test_failed_geodesic_task_fails(monkeypatch, tmp_path):
    """The geodesic task reports the collapse as a failure witness, exit 1."""
    monkeypatch.setattr(geodesic, "_rhs", _blow_up)
    out = tmp_path / "geodesic"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["geodesic", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    [witness] = report["witnesses"]
    assert witness["type"] == "RuntimeError"
    assert "fell below the minimum" in witness["error"]
    assert witness["frames"][-1].startswith("dop853.py:")


@pytest.mark.parametrize("span,tol", [(0.0, 1e-10), (1.0, -1.0)])
def test_rejects_bad_span_and_tol(span, tol):
    """solve_ivp failed on these too (unsorted t_eval, negative atol)."""
    with pytest.raises(ValueError, match="must be"):
        dop853.integrate(lambda t, y: y, [1.0], span, tol, np.linspace(0.0, span, 3), ())
