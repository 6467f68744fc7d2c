"""`forked.beside` and its two callers, `convergence_study` and `sos-verify`:
the results are a serial run's, a failure raises here in serial order with
its own frames, a fork that fails falls back to the serial run, and no child
outlives a call."""

import errno
import os
import traceback

import numpy as np
import pytest

from mptrap import cli, forked, sos
from mptrap.chart import ingoing_chart
from mptrap.wavesolver import SolverDomain, convergence_study


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def inline(first, second):
    return first(), second()


def test_beside_equals_inline():
    """The pair from the child and this process is what a serial run returns."""
    def first():
        return {"x": 0.1 + 0.2, "v": np.linspace(0.0, 1.0, 7)}

    def second():
        return [1e-300, "text"]

    there, here = forked.beside(first, second)
    assert_no_child_left()
    ref_there, ref_here = inline(first, second)
    assert here == ref_here
    assert there["x"] == ref_there["x"]
    assert there["v"].tobytes() == ref_there["v"].tobytes()


def test_beside_runs_first_in_one_other_process():
    there, here = forked.beside(os.getpid, os.getpid)
    assert here == os.getpid() != there
    assert_no_child_left()


@pytest.mark.parametrize("failing", [("first",), ("second",), ("first", "second")],
                         ids=["first", "second", "both"])
def test_beside_failure_raises_here_in_serial_order(failing):
    """A failing part raises in this process with its own message and
    innermost frame, and when both fail, first()'s exception is raised."""
    def part(name):
        def failing_part():
            if name in failing:
                raise ValueError(f"{name} in process {os.getpid()}")
            return name
        return failing_part

    with pytest.raises(ValueError) as info:
        forked.beside(part("first"), part("second"))
    assert str(info.value) == f"{failing[0]} in process {os.getpid()}"
    assert traceback.extract_tb(info.value.__traceback__)[-1].name == "failing_part"
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_move_off_leaves_every_cpu_allowed():
    """The child's move off its parent's CPU ends with the affinity it began
    with."""
    before = os.sched_getaffinity(0)
    forked._move_off(forked._cpu())
    assert os.sched_getaffinity(0) == before


# a small three-level study and a small rotating sos-verify
STUDY_BASE = SolverDomain(r_e=0.9, r_max=30.0, n_r=60, l=0, T=2.0)
SOS_CFG = {"params": {"r_s": 1.0, "a": 0.05, "b": 0.03},
           "sos": {"n_samples": 50, "n_bracket": 400, "n_mu": 400}}


def study(sp, tmp_path):
    return convergence_study(sp, ingoing_chart(sp, 0.9, 30.0), STUDY_BASE, 3.0, 0.9,
                             levels=3)


def sos_artifacts(sp, tmp_path):
    """{file name: bytes} of one sos-verify run, report.json without its
    wall time."""
    out = tmp_path / f"sos{len(list(tmp_path.iterdir()))}"
    rep = cli.run("sos-verify", SOS_CFG, str(out), 3)
    assert rep["status"] == "pass"
    del rep["wall_time_s"]
    cli.emit(rep, str(out))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("caller", [study, sos_artifacts], ids=["convergence", "sos-verify"])
def test_failed_fork_runs_serially(sp, tmp_path, monkeypatch, caller):
    """When os.fork fails, both parts run here: the caller's result is the
    forked run's, and the pipe's two descriptors are closed."""
    forked_result = caller(sp, tmp_path)
    assert_no_child_left()

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    before = open_fds()
    assert caller(sp, tmp_path) == forked_result
    assert open_fds() == before


def test_sos_verify_forked_equals_inline(sp, tmp_path, monkeypatch):
    """sos-verify with its bracket scan in a forked child writes exactly the
    artifacts it writes with the scan run inline."""
    forked_run = sos_artifacts(sp, tmp_path)
    assert_no_child_left()
    assert sorted(forked_run) == ["bracket_scan.csv", "report.json"]
    monkeypatch.setattr(forked, "beside", inline)
    assert sos_artifacts(sp, tmp_path) == forked_run


@pytest.mark.parametrize("failing", [("mp_bracket_scan",), ("schw_sos_scan",),
                                     ("mp_bracket_scan", "schw_sos_scan")],
                         ids=["bracket", "static", "both"])
def test_sos_verify_failure_raises_here_in_serial_order(tmp_path, monkeypatch, failing):
    """A scan that raises fails the report with its type, message and
    innermost frame, raised in this process; the bracket scan comes first
    in the serial order, and bracket_scan.csv exists exactly when it ran."""
    def patch(name):
        def failing_scan(*args):
            raise FloatingPointError(f"{name} in process {os.getpid()}")
        monkeypatch.setattr(sos, name, failing_scan)

    for name in failing:
        patch(name)
    out = tmp_path / "o"
    rep = cli.run("sos-verify", SOS_CFG, str(out), 3)
    assert_no_child_left()
    [w] = rep["witnesses"]
    assert (rep["status"], w["type"]) == ("fail", "FloatingPointError")
    assert w["error"] == f"{failing[0]} in process {os.getpid()}"
    assert w["frames"][-1].endswith(":failing_scan")
    assert (out / "bracket_scan.csv").exists() == ("mp_bracket_scan" not in failing)
