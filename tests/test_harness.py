import ast
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mptrap import cli
from mptrap.cli import main, run, validate_config, ConfigError


def _strip_volatile(report):
    rep = dict(report)
    rep.pop("wall_time_s", None)
    return rep


def test_determinism(tmp_path):
    cfg = {"params": {"r_s": 1.0, "a": 0.05, "b": 0.03},
           "trapped_scan": {"n_samples": 50}}
    r1 = run("trapped-scan", cfg, str(tmp_path / "a"), seed=7)
    r2 = run("trapped-scan", cfg, str(tmp_path / "b"), seed=7)
    assert json.dumps(_strip_volatile(r1), sort_keys=True, default=float) == \
        json.dumps(_strip_volatile(r2), sort_keys=True, default=float)
    r3 = run("trapped-scan", cfg, str(tmp_path / "c"), seed=8)
    assert json.dumps(_strip_volatile(r1), sort_keys=True, default=float) != \
        json.dumps(_strip_volatile(r3), sort_keys=True, default=float)


def test_report_roundtrip(tmp_path):
    from mptrap.cli import emit
    cfg = {"params": {"a": 0.0, "b": 0.0}, "trapped_scan": {"n_samples": 20}}
    rep = run("trapped-scan", cfg, str(tmp_path), seed=1)
    path = emit(rep, str(tmp_path))
    back = json.load(open(path))
    assert back["status"] == rep["status"]
    assert back["seed"] == rep["seed"]
    assert back["rng"] == "numpy-PCG64"
    # idempotent re-emit
    path2 = emit(back, str(tmp_path))
    assert json.load(open(path2)) == back


def test_static_scan_r_trapped(tmp_path):
    cfg = {"params": {"a": 0.0, "b": 0.0}, "trapped_scan": {"n_samples": 30}}
    rep = run("trapped-scan", cfg, str(tmp_path), seed=2)
    assert rep["status"] == "pass"
    assert rep["metrics"]["static_deviation"] < 1e-12


def test_config_validation():
    with pytest.raises(ConfigError):
        validate_config({"task": "not-a-task"})
    with pytest.raises(ConfigError):
        validate_config({"bogus_key": 1})
    with pytest.raises(ConfigError):
        validate_config({"params": {"r_s": 1.0, "a": 1.2, "b": 0.4}})
    validate_config({"params": {"r_s": 1.0, "a": 0.1, "b": 0.1}})


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"params": {"a": 1.5, "b": 0.9}}))
    rc = main(["trapped-scan", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"params": {"a": 0.0, "b": 0.0},
                              "trapped_scan": {"n_samples": 20}}))
    rc = main(["trapped-scan", "--config", str(ok), "--out", str(tmp_path / "o"),
               "--seed", "4"])
    assert rc == 0


def test_csv_header_contracts(tmp_path):
    cfg = {"params": {"r_s": 1.0, "a": 0.05, "b": 0.03},
           "trapped_scan": {"n_samples": 20},
           "geodesic": {"span": 5.0, "trapped": False}}
    run("trapped-scan", cfg, str(tmp_path / "ts"), seed=1)
    head = (tmp_path / "ts" / "trapped_scan.csv").read_text().splitlines()[0]
    assert head == "a,b,tau,Phi,Psi,r_trapped,dR_dr,newton_iters"
    run("geodesic", cfg, str(tmp_path / "geo"), seed=1)
    head = (tmp_path / "geo" / "trajectory.csv").read_text().splitlines()[0]
    assert head == "lambda,t,r,theta,phi,psi,tau,xi,Theta,Phi,Psi,p_residual,K_drift"


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "mptrap.cli", "trapped-scan", "--out",
         str(tmp_path), "--seed", "5"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)})
    assert out.returncode == 0
    assert "trapped-scan: pass" in out.stdout


def test_numpy_only_tasks_load_no_scipy(tmp_path):
    """Importing the CLI, building the set-up objects and running sos-verify,
    trapped-scan, geodesic and multiplier-verify load no scipy module: scipy
    is imported only inside the functions that call it, the geodesic flow is
    stepped by the package's own DOP853, and the positivity pencil is solved
    by numpy's eigh inside dsygvd's reduction and back-substitution."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"r_s": 1.0, "a": 0.05, "b": 0.03},
        "sos": {"n_samples": 50, "n_bracket": 200, "n_mu": 100},
        "trapped_scan": {"n_samples": 20},
        "multiplier": {"n_grid": 200}}))
    script = f"""
import contextlib, io, json, sys
from mptrap import cli
from mptrap.params import SchwParams
from mptrap.multiplier import build_profiles
from mptrap.chart import ingoing_chart
sp = SchwParams(1.0, 1)
build_profiles(sp)
ingoing_chart(sp, 0.95, 60.0)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([task, "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r} + "/" + task])
             for task in ("sos-verify", "trapped-scan", "geodesic", "multiplier-verify")]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)})
    assert out.returncode == 0, out.stderr
    codes, scipy_modules = json.loads(out.stdout)
    assert codes == [0, 0, 0, 0]
    assert scipy_modules == []


@pytest.mark.parametrize("block,key,value", [
    ("wave", "n_r", 3),
    ("wave", "T", -1),
    ("trapped_scan", "n_samples", 0),
    ("mult", "alpha_cap", 5),
    ("mult", "alpha_cap", 0),
    ("mult", "N", 0),
    ("mult", "N", "abc"),
    ("mult", "eps", 0),
    ("mult", "eps_match", -1),
    pytest.param("wave", "data", {"type": "ring", "center": 3.0, "width": 0.8},
                 id="wave-data-type-ring"),
    pytest.param("wave", "forcing", {"type": "ring", "center": 3.0, "width": 0.8},
                 id="wave-forcing-type-ring"),
    ("convergence", "levels", 1),
    ("convergence", "levels", 2),
    ("wave", "dr", 0),
    ("wave", "l", -1),
    ("convergence", "l", -1),
    ("wave", "r_max", 0.5),
    ("convergence", "r_max", 0.5),
    ("schw", "d", 2),
    ("schw", "d", 1.5),
    ("geodesic", "span", 0),
    ("geodesic", "tol", -1),
    ("geodesic", "x_escape", 0),
    pytest.param("geodesic", "init", {"x": 3.0, "theta": 1.0, "tau": -1.0,
                                      "Theta": float("nan"), "Phi": 0.1, "Psi": -0.05},
                 id="geodesic-init-nan"),
    ("params", "a", float("nan")),
    ("params", "r_s", float("inf")),
    ("schw", "r_s", float("inf")),
])
def test_config_range_exit_code(tmp_path, block, key, value):
    """Out-of-range values are configuration errors: exit 2, nothing run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {key: value}}))
    task = {"wave": "wave-evolve", "mult": "multiplier-verify",
            "convergence": "convergence", "geodesic": "geodesic"}.get(block, "trapped-scan")
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_near_extremal_params_without_horizons_exit_2(tmp_path):
    """(r_s, a, b) just past the extremal bound |a| + |b| = r_s, where the
    discriminant p^2 - 4q of Delta rounds below zero, is a configuration
    error for geodesic, which solves for the horizons: exit 2, nothing run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"r_s": 1.0, "a": 0.7971469914312045,
                                           "b": 0.20285300856879548}}))
    out = tmp_path / "o"
    assert main(["geodesic", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("task,code", [("sos-verify", 2), ("all", 2), ("trapped-scan", 0)])
def test_params_and_schw_one_hole(tmp_path, task, code):
    """sos-verify (alone or in `all`) reads both `params` and `schw`, so their
    r_s (defaults filled in) must agree, or it exits 2 before any task runs;
    a task that reads one block is unaffected."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"r_s": 2.0, "a": 0.05, "b": 0.03},
                                "trapped_scan": {"n_samples": 20}}))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == code
    assert out.exists() == (code != 2)


def test_forced_wave_builds_bump_once(tmp_path, monkeypatch):
    """A forced run evaluates the spatial bump twice, once for the data and
    once for the forcing, not once per RK4 stage."""
    calls = []
    orig = cli.gaussian_bump

    def counted(*args, **kw):
        calls.append(args[1:])
        return orig(*args, **kw)

    monkeypatch.setattr(cli, "gaussian_bump", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"wave": {
        "n_r": 200, "T": 2.0,
        "forcing": {"type": "bump", "center": 4.0, "width": 1.0,
                    "t_center": 1.0, "t_width": 0.5}}}))
    assert main(["wave-evolve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == [(3.0, 0.8, 1.0), (4.0, 1.0)]


def _raise_on_constant(token):
    raise ValueError(f"non-finite token {token}")


def test_reports_are_strict_json(tmp_path):
    from mptrap.cli import emit
    rep = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": {"d": np.inf}}
    path = emit(rep, str(tmp_path))
    with open(path) as fh:
        back = json.load(fh, parse_constant=_raise_on_constant)
    assert back == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": {"d": "inf"}}
    assert float(back["a"]) == math.inf and math.isnan(float(back["b"][1]))
    # the pinned boundary clause is infeasible, so its kappa is infinite
    out = tmp_path / "mv"
    main(["multiplier-verify", "--out", str(out)])
    with open(out / "report.json") as fh:
        mv = json.load(fh, parse_constant=_raise_on_constant)
    assert float(mv["metrics"]["boundary_at_pinned"]["kappa"]) == math.inf


def test_kappa_witness_follows_seed(tmp_path):
    """The kappa calibration sample set is drawn from the run seed."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sos": {"n_samples": 50, "n_bracket": 200,
                                        "n_mu": 400}}))
    witness = {}
    for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / tag
        main(["sos-verify", "--config", str(path), "--out", str(out),
              "--seed", str(seed)])
        with open(out / "report.json") as fh:
            witness[tag] = json.load(fh)["metrics"]["mu"]["witness"]
    assert witness["a"] == witness["b"]
    assert witness["a"] != witness["c"]


@pytest.mark.parametrize("task, cfg, check, failed", [
    # an unstable time step fails the energy bound
    ("wave-evolve", {"wave": {"cfl": 5, "T": 10}}, "energy_bounded",
     lambda w: w["sup_E"] > w["bound"]),
    # a coarse, short run fits a field order outside the band; the witness
    # carries the errors it fitted and their pairwise orders
    ("convergence", {"convergence": {"n_r": 300, "T": 8}}, "field_order",
     lambda w: w["band"] == [1.8, 2.2]
     and not 1.8 <= w["field_order_fit"] <= 2.2
     and len(w["field_errors"]) == 3
     and w["field_orders"] == pytest.approx(
         [math.log2(a / b) for a, b in zip(w["field_errors"], w["field_errors"][1:])])),
], ids=["wave-evolve", "convergence"])
def test_physics_failure_has_witness(tmp_path, task, cfg, check, failed):
    """A failed check exits 1 and names itself and the values it compared."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    assert [w["check"] for w in rep["witnesses"]] == [check]
    assert failed(rep["witnesses"][0])


def test_trapped_departure_can_fail(tmp_path, monkeypatch):
    """A trapped orbit cut off before it departs ends at "span", which fails
    trapped_departure: the check accepts only the horizon or escape."""
    orig = cli.integrate_geodesic

    def short(params, init, affine_span, **kw):
        if kw.get("n_samples") == 4000:          # the trapped run
            affine_span = 10.0
        return orig(params, init, affine_span, **kw)

    monkeypatch.setattr(cli, "integrate_geodesic", short)
    out = tmp_path / "o"
    assert main(["geodesic", "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    assert rep["metrics"]["trapped_departure"] == "span"
    assert rep["witnesses"] == [{"check": "trapped_departure", "termination": "span"}]


def test_task_exception_has_frames(tmp_path, monkeypatch):
    """A task that raises fails with its message, its type and its innermost
    three frames as basename:line:function."""
    def innermost():
        raise RuntimeError("boom")

    def task(cfg, rng, outdir):
        innermost()

    monkeypatch.setitem(cli.TASKS, "geodesic", task)
    out = tmp_path / "o"
    assert main(["geodesic", "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    [w] = rep["witnesses"]
    assert (w["error"], w["type"]) == ("boom", "RuntimeError")
    assert [f.split(":")[::2] for f in w["frames"]] == [
        ["cli.py", "run"], ["test_harness.py", "task"],
        ["test_harness.py", "innermost"]]
    assert all(f.split(":")[1].isdigit() for f in w["frames"])


def test_traced_names_resolve():
    """Every function and method the benchmark tracer wraps exists in mptrap,
    so a deletion that would break the traced benchmark fails here."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, name, _ in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"mptrap.{mod}"), name, None)):
            missing.append(f"{mod}.{name}")
    for mod, cls, meth, _ in tracer.METHODS:
        klass = getattr(importlib.import_module(f"mptrap.{mod}"), cls, None)
        if not callable(getattr(klass, meth, None)):
            missing.append(f"{mod}.{cls}.{meth}")
    for mod in tracer.MODULES:
        importlib.import_module(f"mptrap.{mod}")
    assert missing == []


@pytest.mark.parametrize("name", ["checks.py", "workloads.py"])
def test_perfbench_imports_resolve(name):
    """Every name the benchmark's checks and set-up import from mptrap exists,
    and so does every attribute they read off an imported mptrap module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / name
    tree = ast.parse(path.read_text())
    missing, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mptrap":
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(mod, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mptrap":
                    aliases[a.asname or a.name] = importlib.import_module(a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and not hasattr(aliases[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert missing == []
