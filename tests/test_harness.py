import ast
import copy
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mptrap import cli, geodesic, quadform, wavesolver
from mptrap.cli import main, run, validate_config, ConfigError
from mptrap.chart import ingoing_chart
from mptrap.params import (AssemblyError, BlackHoleParams, BoundaryFormFailure,
                           NoTrappedSphere, OracleFailure)
from mptrap.trapping import R_ab_oracle


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
    with pytest.raises(ConfigError):        # `task` is no config key: the CLI names it
        validate_config({"task": "geodesic"})
    with pytest.raises(ConfigError):
        validate_config({"bogus_key": 1})
    with pytest.raises(ConfigError):
        validate_config({"params": {"r_s": 1.0, "a": 1.2, "b": 0.4}})
    validate_config({"params": {"r_s": 1.0, "a": 0.1, "b": 0.1}})
    # the walker returns a filled copy and leaves the caller's dict as it was
    given = {"schw": {"r_s": 1}, "wave": {"data": {"width": 0.5}}}
    before = copy.deepcopy(given)
    full = validate_config(given)
    assert given == before
    assert full["schw"] == {"r_s": 1.0, "d": 1}
    assert full["wave"]["data"] == {"type": "bump", "center": 3.0, "width": 0.5,
                                    "amplitude": 1.0}
    # lengths are in units of r_s; every default is a constant, n_r's the
    # grid of spacing 0.05 on [0.9, 60]
    assert (full["wave"]["r_e"], full["wave"]["r_max"]) == (0.9, 60.0)
    assert full["wave"]["n_r"] == 1183 == int(round((60.0 - 0.9) / 0.05)) + 1
    assert (full["r_e"], full["convergence"]["r_max"]) == (0.95, 30.0)
    assert full["sos"]["eps0_scan"] == [0.0125, 0.025, 0.05]

    def defaults(table):
        for spec in table.values():
            yield from defaults(spec) if isinstance(spec, dict) else [spec[2]]

    assert not any(map(callable, defaults(cli.CONFIG)))
    assert full["sos"]["region"] == [1.35, 1.5, 0.3, math.pi / 2 - 0.3]
    assert full["wave"]["forcing"]["type"] == "none"
    assert full["geodesic"]["init"]["sign"] == 1
    # a filled config is itself valid and fills to itself
    assert validate_config(full) == full


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


def _mptrap_modules_after(tmp_path, task=None, cfg=None):
    """(exit code, sorted mptrap.* modules, plus numpy.ma when loaded) of a
    fresh interpreter that imports mptrap.cli and then, when task is given,
    runs it on cfg."""
    script = "import json, sys\nimport mptrap.cli\ncode = None\n"
    if task is not None:
        path = tmp_path / f"{task}.json"
        path.write_text(json.dumps(cfg))
        script += (f"code = mptrap.cli.main([{task!r}, '--config', {str(path)!r}, "
                   f"'--out', {str(tmp_path / task)!r}])\n")
    script += ("print(json.dumps([code, sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'mptrap' or m == 'numpy.ma')]))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)})
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_loads_only_task_modules(tmp_path):
    """Importing the CLI loads `params` and nothing else of mptrap, and each
    task imports only the modules it runs, on its first call; only the tasks
    that fork load `forked`.  multiplier-verify does not load numpy.ma, which
    np.unique would import."""
    _, mods = _mptrap_modules_after(tmp_path)
    assert mods == ["mptrap", "mptrap.cli", "mptrap.params"]
    code, mods = _mptrap_modules_after(tmp_path, "multiplier-verify",
                                       {"multiplier": {"n_grid": 200}})
    assert code == 0
    assert "numpy.ma" not in mods
    code, mods = _mptrap_modules_after(tmp_path, "trapped-scan",
                                       {"trapped_scan": {"n_samples": 20}})
    assert code == 0
    assert not {f"mptrap.{m}" for m in ("geodesic", "dop853", "quadform", "sos",
                                        "wavesolver", "forked")} & set(mods)
    code, mods = _mptrap_modules_after(tmp_path, "wave-evolve",
                                       {"wave": {"n_r": 50, "T": 0.5}})
    assert code == 0
    assert not {f"mptrap.{m}" for m in ("geodesic", "dop853", "trapping", "sos",
                                        "quadform", "multiplier", "forked")} & set(mods)
    code, mods = _mptrap_modules_after(tmp_path, "sos-verify",
                                       {"sos": {"n_samples": 50, "n_bracket": 200,
                                                "n_mu": 400}})
    assert code == 0
    assert "mptrap.forked" in mods
    assert not {f"mptrap.{m}" for m in ("wavesolver", "geodesic", "dop853",
                                        "quadform")} & set(mods)


@pytest.mark.parametrize("block,key,value", [
    ("wave", "n_r", 3),
    ("wave", "T", -1),
    ("trapped_scan", "n_samples", 0),
    ("mult", "alpha_cap", 5),
    ("mult", "alpha_cap", 0),
    pytest.param("mult", "N", 1024, id="mult-N"),
    ("mult", "eps", 0),
    ("mult", "eps_match", -1),
    pytest.param("wave", "data", {"type": "ring", "center": 3.0, "width": 0.8},
                 id="wave-data-type-ring"),
    pytest.param("wave", "forcing", {"type": "ring", "center": 3.0, "width": 0.8},
                 id="wave-forcing-type-ring"),
    ("convergence", "levels", 1),
    ("convergence", "levels", 2),
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
    # lengths are in units of r_s
    ("params", "r_s", 2.0),
    ("schw", "r_s", 0.5),
    ("trapped_scan", "cone", -1),
    ("trapped_scan", "cone", 0),
    ("trapped_scan", "cone", float("inf")),
    pytest.param("trapped_scan", "cone", 10 ** 400, id="trapped_scan-cone-int-past-float"),
    pytest.param("sos", "eps0_scan", [], id="sos-eps0_scan-empty"),
    pytest.param("sos", "eps0_scan", [0.0125, -0.025, 0.05], id="sos-eps0_scan-negative"),
    pytest.param("sos", "eps0_scan", 0.05, id="sos-eps0_scan-not-a-list"),
    pytest.param("sos", "eps0_scan", [10 ** 400, 0.05], id="sos-eps0_scan-int-past-float"),
    pytest.param("wave", "data", {"width": 0}, id="wave-data-width-0"),
    pytest.param("wave", "forcing", {"type": "bump", "center": 4.0, "width": -1.0},
                 id="wave-forcing-width-negative"),
    pytest.param("wave", "forcing", {"type": "bump", "width": 1.0},
                 id="wave-forcing-bump-no-center"),
    pytest.param("wave", "forcing", {"type": "bump", "center": 4.0},
                 id="wave-forcing-bump-no-width"),
    ("convergence", "width", 0),
    ("convergence", "width", -0.8),
    ("convergence", "center", float("nan")),
    ("convergence", "center", float("inf")),
    pytest.param("wave", "forcing", {"type": "bump", "center": 4.0, "width": 1.0,
                                     "t_width": 0}, id="wave-forcing-t_width-0"),
    pytest.param("wave", "forcing", {"type": "bump", "center": 4.0, "width": 1.0,
                                     "t_center": float("nan")},
                 id="wave-forcing-t_center-nan"),
    pytest.param("wave", "forcing", {"type": "bump", "center": float("nan"),
                                     "width": 1.0}, id="wave-forcing-center-nan"),
    pytest.param("wave", "data", {"center": float("nan")}, id="wave-data-center-nan"),
    pytest.param("wave", "data", {"amplitude": 0}, id="wave-data-amplitude-0"),
    # unknown keys inside blocks, at any depth
    ("geodesic", "spann", 3),
    ("wave", "cfll", 5),
    pytest.param("wave", "data", {"centre": 3.0}, id="wave-data-centre"),
    pytest.param("geodesic", "init", {"x": 3.0, "theta": 1.0, "tau": -1.0, "Theta": 0.2,
                                      "Phi": 0.1, "Psi": -0.05, "X": 1.0},
                 id="geodesic-init-X"),
    # keys that are constants now, two of which loosened an acceptance gate
    ("multiplier", "C_energy", float("nan")),
    pytest.param("convergence", "order_band", [0.0, 10.0], id="convergence-order_band"),
    ("geodesic", "drift_tol", 1.0),
    # keys deleted so that each setting has one: the grid is set by n_r and
    # the spins by eps0_scan, so a dr or an eps0 beside them is unknown
    ("wave", "dr", 0),
    ("sos", "eps0", 0),
    pytest.param("wave", None, {"dr": 0.1, "n_r": 100}, id="wave-dr-beside-n_r"),
    pytest.param("sos", None, {"eps0": 0.05, "eps0_scan": [0.0125, 0.025, 0.05]},
                 id="sos-eps0-beside-eps0_scan"),
    pytest.param("sos", "region", [1.35, 1.5], id="sos-region-length-2"),
    # calibration regions inside the horizon, or through the pole theta = 0
    pytest.param("sos", "region", [0.5, 0.6, 0.3, 1.2], id="sos-region-inside-horizon"),
    pytest.param("sos", "region", [1.35, 1.5, -1.0, 0.0], id="sos-region-through-pole"),
    ("mult", "delta", 0),
    ("mult", "delta", -0.03),
    ("mult", "delta1", 0),
    ("mult", "delta1", -0.005),
    ("wave", "snapshots", "yes"),
    ("geodesic", "trapped", 0),
    # initial bumps that miss their grid (a key of None gives the whole block)
    pytest.param("wave", None, {"n_r": 200, "T": 1, "data": {"center": 100}},
                 id="wave-data-off-grid"),
    pytest.param("convergence", None, {"n_r": 100, "T": 1, "center": 50},
                 id="convergence-bump-off-grid"),
    pytest.param("wave", "data", {"center": 3.01, "width": 0.001},
                 id="wave-data-width-below-dr"),
    # geodesic starts at a pole or not outside the horizon x_+ = 1
    pytest.param("geodesic", "init", {"theta": 0}, id="geodesic-init-theta-0"),
    pytest.param("geodesic", "init", {"theta": math.pi / 2}, id="geodesic-init-theta-pi/2"),
    pytest.param("geodesic", "init", {"x": 1.0}, id="geodesic-init-x-horizon"),
    pytest.param("geodesic", "init", {"x": 0.5}, id="geodesic-init-x-inside"),
    # a start on which no real covector solves the null constraint
    pytest.param("geodesic", "init", {"tau": -0.1, "Theta": 10.0, "Phi": 0.0, "Psi": 0.0},
                 id="geodesic-init-no-null-Xi"),
])
def test_config_range_exit_code(tmp_path, block, key, value):
    """Out-of-range values are configuration errors: exit 2, nothing run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: value if key is None else {key: value}}))
    task = {"wave": "wave-evolve", "mult": "multiplier-verify", "sos": "sos-verify",
            "convergence": "convergence", "geodesic": "geodesic",
            "multiplier": "multiplier-verify"}.get(block, "trapped-scan")
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv,seed", [
    ([], -1), ([], "abc"), ([], 1.5), ([], True), (["--seed", "-1"], 0)],
    ids=["config--1", "config-abc", "config-1.5", "config-true", "argv--1"])
def test_seed_exit_code(tmp_path, argv, seed):
    """A seed that is not a non-negative integer, from --seed or from the
    config, is a configuration error: exit 2, no output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": seed, "trapped_scan": {"n_samples": 20}}))
    out = tmp_path / "o"
    assert main(["trapped-scan", "--config", str(path), "--out", str(out), *argv]) == 2
    assert not out.exists()


@pytest.mark.parametrize("given", [{}, {"params": {"a": 0.05},
                                        "trapped_scan": {"n_samples": 20}}])
def test_run_fills_table_defaults(tmp_path, monkeypatch, given):
    """run() takes a raw, partial config, as the benchmark's set-up passes
    it: the task sees the table's defaults filled in, and the report echoes
    the config as given."""
    seen = []

    def task(cfg, rng, outdir):
        seen.append(cfg)
        return {}

    monkeypatch.setitem(cli.TASKS, "trapped-scan", task)
    before = copy.deepcopy(given)
    rep = run("trapped-scan", given, str(tmp_path / "o"), seed=3)
    [full] = seen
    assert full == validate_config(given)
    assert full["params"] == {"r_s": 1.0, "a": given.get("params", {}).get("a", 0.0),
                              "b": 0.0}
    assert full["trapped_scan"] == {
        "n_samples": given.get("trapped_scan", {}).get("n_samples", 400), "cone": 0.25}
    assert (full["seed"], full["out"], full["schw"]) == (0, None, {"r_s": 1.0, "d": 1})
    assert rep["config_echo"] is given and given == before
    assert rep["seed"] == 3


def _table_keys(table, path="—"):
    """(block, key) of each key of a config table; "—" is the top level."""
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from _table_keys(spec, key if path == "—" else f"{path}.{key}")
        else:
            yield path, key


def test_readme_config_table_matches_config():
    """README's configuration table names every key of cli.CONFIG once, and
    no key the table lacks."""
    lines = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| block | key | default | allowed |") + 2
    readme = []
    for row in lines[start:]:
        if not row.startswith("|"):
            break
        readme.append(tuple(cell.strip().strip("`") for cell in row.split("|")[1:3]))
    assert sorted(readme) == sorted(_table_keys(cli.CONFIG))


@pytest.mark.parametrize("data", [{"width": 0.5}, {"center": 3.5},
                                  {"type": "bump", "amplitude": 2.0}])
def test_partial_wave_data_takes_defaults(tmp_path, data):
    """A wave.data block with keys left out takes the defaults (centre 3.0,
    width 0.8, amplitude 1.0): it runs as the full block does."""
    full = {"type": "bump", "center": 3.0, "width": 0.8, "amplitude": 1.0, **data}
    runs = []
    for tag, blk in (("full", full), ("partial", data)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"wave": {"n_r": 200, "T": 2.0, "data": blk}}))
        out = tmp_path / tag
        assert main(["wave-evolve", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "report.json") as fh:
            metrics = json.load(fh)["metrics"]
        runs.append((metrics, (out / "energy.csv").read_text(),
                     (out / "norms.json").read_text()))
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("task,init,code", [("all", {"x": 0.5}, 2),
                                            ("geodesic", {"theta": -1.0}, 0)])
def test_geodesic_start_rule(tmp_path, task, init, code):
    """A start x = 0.5 inside the horizon x_+ = 1 is a configuration error
    for `all` too, before any task runs (geodesic alone:
    test_config_range_exit_code's geodesic-init-x-inside).  theta = -1 is
    off both poles and runs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geodesic": {"init": init, "trapped": False, "span": 20.0}}))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == code
    assert out.exists() == (code != 2)


@pytest.mark.parametrize("block,value", [("params", 2.0), ("schw", 0.5)])
@pytest.mark.parametrize("task", list(cli.TASKS) + ["all"])
def test_r_s_other_than_one_exits_2(tmp_path, task, block, value):
    """Lengths are in units of r_s, so an r_s other than 1 in either block
    is a configuration error for every task and for `all`: exit 2, no
    output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {"r_s": value}}))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("task,trapped,code", [
    ("geodesic", True, 2), ("all", True, 2), ("geodesic", False, 0)])
def test_trapped_orbit_spin_rule(tmp_path, task, trapped, code):
    """The trapped orbit is solved only for max(|a|, |b|) <= 0.3: a larger
    spin with geodesic.trapped set is a configuration error for geodesic and
    for `all`, while the untrapped geodesic runs at it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"a": 0.35}, "geodesic": {"trapped": trapped}}))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == code
    assert out.exists() == (code != 2)


def test_forced_wave_builds_bump_once(tmp_path, monkeypatch):
    """A forced run evaluates the spatial bump twice, once for the data and
    once for the forcing, not once per RK4 stage."""
    calls = []
    orig = wavesolver.gaussian_bump

    def counted(*args, **kw):
        calls.append(args[1:])
        return orig(*args, **kw)

    monkeypatch.setattr(wavesolver, "gaussian_bump", counted)
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
    # a bump that is nonzero on its grid only far out in its tail carries an
    # initial energy that underflows to 0
    ("wave-evolve", {"wave": {"n_r": 200, "T": 1,
                              "data": {"center": 3.969769246231156, "width": 0.1}}},
     "E_initial_positive", lambda w: w == {"check": "E_initial_positive",
                                          "E_initial": 0.0, "bound": 0.0}),
    # a coarse, short run fits a field order outside the band; the witness
    # carries the errors it fitted and their pairwise orders
    ("convergence", {"convergence": {"n_r": 300, "T": 8}}, "field_order",
     lambda w: w["band"] == [1.8, 2.2]
     and not 1.8 <= w["field_order_fit"] <= 2.2
     and len(w["field_errors"]) == 3
     and w["field_orders"] == pytest.approx(
         [math.log2(a / b) for a, b in zip(w["field_errors"], w["field_errors"][1:])])),
    # the one sample drawn on this rotating hole does not converge: the
    # witness carries the counts, and the extremes are null
    ("trapped-scan", {"seed": 46, "params": {"a": 0.3, "b": 0.2},
                      "trapped_scan": {"n_samples": 1, "cone": 3.0}}, "all_converged",
     lambda w: w == {"check": "all_converged", "n_converged": 0, "n_samples": 1}),
    # a loose integrator tolerance lets the Hamiltonian drift
    ("geodesic", {"geodesic": {"tol": 1e-3, "trapped": False}}, "p_drift",
     lambda w: w["bound"] == 1e-8 and w["p_drift"] >= 1e-8),
    # a tiny delta leaves the saturation integral above delta / 2
    ("multiplier-verify", {"mult": {"delta": 1e-6}}, "smallness",
     lambda w: w["bound"] == 0.5e-6 and w["smallness_integral"] >= 0.5e-6),
    # a spin scan from 0.01 to 0.5 grows the envelope by far more than 4
    ("sos-verify", {"sos": {"eps0_scan": [0.01, 0.5], "n_samples": 200,
                            "n_bracket": 200, "n_mu": 500}}, "envelope_doubling",
     lambda w: w["band"] == [1.0, 4.0] and w["envelope_doubling_ratios"][0] > 4.0),
], ids=["wave-evolve", "wave-evolve-underflow", "convergence", "trapped-scan-none-converged",
        "geodesic-p_drift", "multiplier-verify-smallness", "sos-verify-envelope_doubling"])
def test_physics_failure_has_witness(tmp_path, task, cfg, check, failed):
    """A failed gate exits 1 and names itself and the values it compared;
    informational rows (multiplier-verify's pinned boundary clause) may add
    witnesses of their own."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    gates = [w for w in rep["witnesses"]
             if cli.CHECKS[task][w["check"]].label != cli.INFORMATIONAL]
    assert [w["check"] for w in gates] == [check]
    assert failed(gates[0])


def test_trapped_scan_without_convergence_reports_null(tmp_path):
    """With no converged sample the scan's extremes are null and its table
    has no rows."""
    rep = run("trapped-scan", {"params": {"a": 0.3, "b": 0.2},
                               "trapped_scan": {"n_samples": 1, "cone": 3.0}},
              str(tmp_path), seed=72)
    assert rep["status"] == "fail"
    m = rep["metrics"]
    assert (m["n_converged"], m["r_trapped_min"], m["r_trapped_max"], m["dR_dr_abs_min"]) \
        == (0, None, None, None)
    assert (tmp_path / "trapped_scan.csv").read_text() == \
        "a,b,tau,Phi,Psi,r_trapped,dR_dr,newton_iters\n"


@pytest.mark.parametrize("task, cfg, failure", [
    # a cap this close to 5 with this delta1 leaves n(r) negative near r_s
    ("multiplier-verify", {"mult": {"alpha_cap": 4.9, "delta1": 0.5}},
     "RedshiftBudgetFailure"),
    # a spin bound this large empties the calibration band of C
    ("sos-verify", {"sos": {"eps0_scan": [0.175, 0.35, 0.7], "n_samples": 200,
                            "n_bracket": 200, "n_mu": 500}}, "CBandEmpty"),
    # a larger eps puts the saturation transition on-grid (eps * W = -1.16 at r = 1)
    ("multiplier-verify", {"mult": {"eps": 0.03}}, "ProfileConstructionFailure"),
    # a bump this narrow is unresolved on the coarse levels: the field errors
    # grow from level to level
    ("convergence", {"convergence": {"width": 0.05, "levels": 3, "n_r": 100, "T": 2}},
     "InconclusiveConvergence"),
    # the one calibration sample, next to the horizon at a = b = 0.3, has no
    # trapped radius on its second frequency branch: no sample is admissible
    ("sos-verify", {"sos": {"eps0_scan": [0.5], "n_samples": 200, "n_bracket": 200,
                            "n_mu": 1, "region": [1.001, 1.001, 0.3, 1.27]}},
     "LowerBoundViolation"),
], ids=["RedshiftBudgetFailure", "CBandEmpty", "ProfileConstructionFailure",
        "InconclusiveConvergence", "LowerBoundViolation"])
def test_failure_class_has_witness(tmp_path, task, cfg, failure):
    """A failure class raised by a task exits 1 with one witness that names
    its type and message."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([task, "--config", str(path), "--out", str(out)]) == 1
    with open(out / "report.json") as fh:
        [w] = json.load(fh)["witnesses"]
    assert w["type"] == failure and w["error"]


@pytest.mark.parametrize("call, failure, message", [
    # a chart out to r = 10 under a solver domain out to 30
    (lambda sp: wavesolver.assemble_mode(sp, ingoing_chart(sp, 0.9, 10.0),
                                         wavesolver.SolverDomain(0.9, 30.0, 100, 0, 1.0)),
     AssemblyError, "chart does not cover the solver domain"),
    # at x = 1e-8 the oracle's stencil r +- 2h, h = 1e-4, reaches below r = 0
    (lambda sp: R_ab_oracle(BlackHoleParams(a=0.1, b=0.1), 1e-8, -1.0, 0.1, -0.05),
     OracleFailure, "finite-difference stencil leaves r > 0"),
    # at a = 0.3 the quartic's root for Phi_hat = 100 lies at r = 5.65, past
    # the (0.5, 3) that trapped_radius_vec searches
    (lambda sp: geodesic.trapped_sphere(BlackHoleParams(a=0.3, b=0.0), 100.0, 0.0),
     NoTrappedSphere, "no trapped root"),
], ids=["AssemblyError", "OracleFailure", "NoTrappedSphere"])
def test_failure_class_has_tripping_input(sp, call, failure, message):
    """A failure class that no task row above trips is raised, with its
    message, by a real input to the function that raises it."""
    with pytest.raises(failure, match=message):
        call(sp)


def test_trapped_departure_can_fail(tmp_path, monkeypatch):
    """A trapped orbit cut off before it departs ends at "span", which fails
    trapped_departure: the check accepts only the horizon or escape."""
    orig = geodesic.integrate_geodesic

    def short(params, init, affine_span, **kw):
        if kw.get("n_samples") == 4000:          # the trapped run
            affine_span = 10.0
        return orig(params, init, affine_span, **kw)

    monkeypatch.setattr(geodesic, "integrate_geodesic", short)
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


SMALL = {"wave": {"n_r": 50, "T": 0.5}, "trapped_scan": {"n_samples": 20},
         "sos": {"n_samples": 50, "n_bracket": 200, "n_mu": 400},
         "multiplier": {"n_grid": 200},
         "convergence": {"n_r": 100, "T": 2.0, "levels": 3}}

# the keys of each CHECKS row's witness besides "check": the values it
# compared and its bound or band
WITNESS_KEYS = {
    "geodesic": {"p_drift": {"p_drift", "bound"}, "K_drift": {"K_drift", "bound"},
                 "separated_residual": {"separated_residual", "bound"},
                 "trapped_persistence": {"trapped_deviation_window", "trapped_window",
                                         "bound"},
                 "trapped_departure": {"termination"}},
    "trapped-scan": {"all_converged": {"n_converged", "n_samples"},
                     "static_photon_sphere": {"static_deviation", "bound"}},
    "multiplier-verify": {"F_prime_positive": {"F_prime_min", "bound"},
                          "lF_positive": {"lF_min", "bound"},
                          "n_positive": {"n_min", "bound"},
                          "c_star_positive": {"c_star", "bound"},
                          "c_star_grid_stability": {"c_star_grid_stability", "bound"},
                          "smallness": {"smallness_integral", "bound"},
                          "boundary_feasible": {"slice_min_eig", "lateral_min_eig", "bound"},
                          "pinned_boundary_targets": {"kappa", "lateral_min_eig"}},
    "sos-verify": {"schw_residual": {"schw_residual_max", "bound"},
                   "nu_positive": {"nu_min", "bound"}, "nu_below_one": {"nu_max", "bound"},
                   "lambda_identity": {"lambda_identity_max_err", "bound"},
                   "bracket_nonnegative": {"bracket_min", "bound"},
                   "alpha2_positive": {"alpha2_min", "bound"},
                   "beta2_positive": {"beta2_min", "bound"},
                   "kappa_positive": {"kappa", "bound"},
                   "envelope_doubling": {"envelope_doubling_ratios", "band"}},
    "wave-evolve": {"E_initial_positive": {"E_initial", "bound"}, "LE1_finite": {"LE1_sq"},
                    "lateral_flux_nonnegative": {"lateral_min_integrand"},
                    "energy_bounded": {"sup_E", "E_initial", "bound"}},
    "convergence": {"field_order": {"field_order_fit", "field_orders", "field_errors",
                                    "band"}},
}


def test_checks_table_shape():
    """The table holds the 28 verdict checks plus the informational
    pinned_boundary_targets; exactly three rows cannot fail, and each of
    those, and only those, gives its reason."""
    assert {t: set(rows) for t, rows in cli.CHECKS.items()} == \
        {t: set(keys) for t, keys in WITNESS_KEYS.items()}
    labels = [(name, row.label) for rows in cli.CHECKS.values() for name, row in rows.items()]
    assert len(labels) == 29
    assert [n for n, label in labels if label == cli.INFORMATIONAL] == \
        ["pinned_boundary_targets"]
    assert sorted(n for n, label in labels if label == cli.BY_CONSTRUCTION) == \
        ["c_star_grid_stability", "kappa_positive", "lateral_flux_nonnegative"]
    for rows in cli.CHECKS.values():
        for row in rows.values():
            assert row.label in (cli.GATE, cli.INFORMATIONAL, cli.BY_CONSTRUCTION)
            assert bool(row.reason and row.reason.strip()) == (row.label == cli.BY_CONSTRUCTION)


@pytest.mark.parametrize("task,cfg,skipped", [
    ("geodesic", {}, []),
    ("geodesic", {"geodesic": {"trapped": False}},
     ["trapped_persistence", "trapped_departure"]),
    ("trapped-scan", SMALL, []),
    ("trapped-scan", {**SMALL, "params": {"a": 0.05}}, ["static_photon_sphere"]),
    ("multiplier-verify", SMALL, []),
    ("sos-verify", SMALL, []),
    ("wave-evolve", SMALL, []),
    ("convergence", SMALL, []),
], ids=["geodesic", "geodesic-untrapped", "trapped-scan", "trapped-scan-rotating",
        "multiplier-verify", "sos-verify", "wave-evolve", "convergence"])
def test_every_check_is_a_table_row(tmp_path, monkeypatch, task, cfg, skipped):
    """With every CHECKS row's comparison forced to fail, the witnesses are
    exactly the task's rows, less those whose metric the run does not
    produce, in table order; each names its check, the values it compared
    and the row's bound or band, and so no check is decided anywhere else."""
    rows = cli.CHECKS[task]
    monkeypatch.setitem(cli.CHECKS, task, {name: row._replace(test=lambda *a: False)
                                           for name, row in rows.items()})
    rep = run(task, cfg, str(tmp_path), seed=3)
    assert rep["status"] == "fail"
    assert [w["check"] for w in rep["witnesses"]] == [n for n in rows if n not in skipped]
    full = validate_config(cfg)
    for w in rep["witnesses"]:
        row = rows[w["check"]]
        assert set(w) - {"check"} == WITNESS_KEYS[task][w["check"]]
        bound = row.bound(rep["metrics"], full) if callable(row.bound) else row.bound
        assert w.get("bound", w.get("band")) == bound


def test_infeasible_boundary_fails_its_check(tmp_path, monkeypatch):
    """A BoundaryFormFailure from the feasible-parameter search fails
    boundary_feasible with its message and type; the rest still runs."""
    def infeasible(triple):
        raise BoundaryFormFailure("lateral form not positive")

    monkeypatch.setattr(quadform, "demo_boundary_parameters", infeasible)
    rep = run("multiplier-verify", SMALL, str(tmp_path), seed=0)
    error = {"error": "lateral form not positive", "type": "BoundaryFormFailure"}
    assert rep["status"] == "fail"
    assert rep["metrics"]["boundary_feasible"] == error
    assert rep["witnesses"] == [
        {"check": "boundary_feasible", **error},
        {"check": "pinned_boundary_targets",
         **{k: rep["metrics"]["boundary_at_pinned"][k] for k in ("kappa", "lateral_min_eig")}}]


def test_boundary_search_bug_is_a_task_error(tmp_path, monkeypatch):
    """Any other exception from the feasible-parameter search is a bug, not
    an infeasible boundary: it fails the task with its type and frames."""
    def broken(triple):
        raise TypeError("bug")

    monkeypatch.setattr(quadform, "demo_boundary_parameters", broken)
    rep = run("multiplier-verify", SMALL, str(tmp_path), seed=0)
    [w] = rep["witnesses"]
    assert (rep["status"], rep["metrics"], w["error"], w["type"]) == \
        ("fail", {}, "bug", "TypeError")
    assert w["frames"][-1].split(":")[::2] == ["test_harness.py", "broken"]


def test_traced_names_resolve(sp):
    """Every function and method the benchmark tracer wraps exists in mptrap,
    and the tracer's step counter reads a real evolve run's steps, so a
    deletion that would break the traced benchmark fails here."""
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
    from mptrap.chart import ingoing_chart
    dom = wavesolver.SolverDomain(r_e=0.9, r_max=30.0, n_r=60, l=0, T=2.0)
    op = wavesolver.assemble_mode(sp, ingoing_chart(sp, 0.9, 30.0), dom)
    args = (op, wavesolver.gaussian_bump(op.r, 3.0, 0.8), np.zeros(dom.n_r))
    hist = wavesolver.evolve(*args, observe=lambda t, v, W: None)
    [steps] = [c for mod, name, c in tracer.FUNCTIONS if (mod, name) == ("wavesolver", "evolve")]
    assert steps(args, hist, None) == {"steps": op.n_steps}


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


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("fmt", ["%.16e", "%.10e"])
def test_write_csv_is_savetxt(tmp_path, fmt, newline):
    """write_csv writes the bytes np.savetxt writes, special values included."""
    from mptrap.csvtable import write_csv
    rng = np.random.default_rng(5)
    table = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4))
    table[0] = [math.nan, math.inf, -math.inf, -0.0]
    table[1] = [5e-324, -2.2250738585072014e-309, 0.0, 1.0]
    header = "a,b,c,d"
    write_csv(tmp_path / "ours.csv", header, table, fmt, newline)
    np.savetxt(tmp_path / "ref.csv", table, fmt=fmt, delimiter=",", newline=newline,
               header=header, comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_csv(tmp_path / "ours.csv", header, table[:0], fmt, newline)
    np.savetxt(tmp_path / "ref.csv", table[:0], fmt=fmt, delimiter=",", newline=newline,
               header=header, comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
