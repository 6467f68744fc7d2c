import numpy as np
import pytest

from mptrap.params import SchwParams, BlackHoleParams
from mptrap.multiplier import build_profiles
from mptrap.chart import ingoing_chart
from mptrap.quadform import MultiplierTriple
from mptrap.sos import SchwSos
from mptrap.wavesolver import SliceDiagnostics, diagnostics


@pytest.fixture(scope="session")
def sp():
    return SchwParams(1.0, 1)


@pytest.fixture(scope="session")
def profile(sp):
    return build_profiles(sp)


@pytest.fixture(scope="session")
def chart(sp):
    return ingoing_chart(sp, 0.95, 60.0)


@pytest.fixture(scope="session")
def triple(profile, chart):
    return MultiplierTriple(profile=profile, chart=chart)


@pytest.fixture(scope="session")
def sos(profile):
    return SchwSos(profile=profile)


@pytest.fixture(scope="session")
def bh_small():
    return BlackHoleParams(1.0, 0.05, 0.03)


@pytest.fixture(scope="session")
def bh_static():
    return BlackHoleParams(1.0, 0.0, 0.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


class Recording:
    """An evolve observer that stores a copy of every sampled slice, so a
    test reads the samples back after the run, independently of the
    streamed diagnostics."""

    def __init__(self):
        self.times, self.v, self.W = [], [], []

    def __call__(self, t, v, W):
        self.times.append(t)
        self.v.append(v.copy())
        self.W.append(W.copy())

    def replay(self, op):
        """A fresh SliceDiagnostics fed the stored copies in order."""
        acc = SliceDiagnostics(op)
        for t, v, W in zip(self.times, self.v, self.W):
            acc(t, v, W)
        return acc

    def diagnostics(self, op, hist):
        """The run's report, from the stored copies replayed."""
        return diagnostics(self.replay(op), hist)


@pytest.fixture()
def recording():
    """Recording, to be called once per evolve run."""
    return Recording
