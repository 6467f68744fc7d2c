"""Spans and counters around the public functions of mptrap's modules.

The tracer replaces each traced function with a wrapper wherever a caller
looks it up: in its defining module, in every mptrap module that bound it by
name at import (``cli`` does ``from .sos import mu_scan``), in ``cli.TASKS``
for the task functions, and on the class for methods.  Patching only the
defining module would miss the calls made through those other names.

Spans (name, parent, start, end) and counters are kept in memory per phase
(the set-up, then one phase per round) and written out when the run ends.
Low-level helpers called hundreds of thousands of times per round
(``jet_mul``, ``smoothstep``, ``R_ab``) are not wrapped: a span costs about
a microsecond, which would swamp them.
"""

import csv
import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np


def _size(a):
    return int(np.size(a))


def _trapped_counts(args, out, phase):
    return {"points": _size(out[0]), "newton_iters": int(np.sum(out[1]))}


def _f_jet_counts(args, out, phase):
    r = np.atleast_1d(np.asarray(args[1], dtype=float))
    phase.radii.append(r.ravel().copy())
    return {"points": r.size}


# (module, function, counters); counters(args, result, phase) -> {key: n}
FUNCTIONS = [
    ("params", "horizons", None),
    ("geometry", "inverse_metric_components", None),
    ("chart", "ingoing_chart", None),
    ("geodesic", "integrate_geodesic", None),
    ("geodesic", "trapped_sphere", None),
    ("trapping", "trapped_radius_vec", _trapped_counts),
    ("trapping", "tau_roots_vec", lambda a, o, ph: {"points": _size(a[1])}),
    ("trapping", "measure_cone_constant", None),
    ("smooth", "mollify", lambda a, o, ph: {"points": _size(a[1])}),
    ("multiplier", "build_profiles", None),
    ("quadform", "check_positivity",
     lambda a, o, ph: {"grid_points": int(o["grid_points"])}),
    ("quadform", "build_redshift", None),
    ("quadform", "boundary_forms", None),
    ("sos", "schw_sos_scan", None),
    ("sos", "mp_bracket_scan", None),
    ("sos", "mu_scan", None),
    ("sos", "mu_lower_bound", None),
    ("wavesolver", "assemble_mode", None),
    ("wavesolver", "evolve", lambda a, o, ph: {"steps": len(o.lateral_times) - 1}),
    ("wavesolver", "spatial_operator", None),
    ("wavesolver", "diagnostics", None),
    ("wavesolver", "convergence_study", None),
    ("cli", "emit", None),
]

# (module, class, method, counters); args[0] is the instance
METHODS = [
    ("multiplier", "MultiplierProfile", "f_jet", _f_jet_counts),
    ("multiplier", "MultiplierProfile", "F_jet",
     lambda a, o, ph: {"points": _size(a[1])}),
]

MODULES = ("params", "geometry", "chart", "geodesic", "trapping", "smooth",
           "multiplier", "quadform", "sos", "wavesolver", "cli")


class Phase:
    def __init__(self, label):
        self.label = label
        self.spans = []                   # (name, parent index, start, end)
        self.counts = defaultdict(int)
        self.radii = []                   # f_jet inputs, for distinct_frac


class Tracer:
    def __init__(self):
        self.phases = []
        self.phase = None
        self._stack = []
        self.names = []

    def begin(self, label):
        self.phase = Phase(label)
        self.phases.append(self.phase)

    def count(self, key, n):
        self.phase.counts[key] += n

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ph = tracer.phase
            sid = len(ph.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            ph.spans.append(None)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                ph.spans[sid] = (name, parent, t0, t1)
            if counter is not None:
                for key, n in counter(args, out, ph).items():
                    ph.counts[f"{name}.{key}"] += n
            return out

        self.names.append(name)
        return traced

    def install(self):
        """Wrap every traced function where its callers look it up."""
        mods = {m: importlib.import_module(f"mptrap.{m}") for m in MODULES}
        for mod, attr, counter in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            wrapped = self._wrap(f"{mod}.{attr}", orig, counter)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        for mod, cls, meth, counter in METHODS:
            klass = getattr(mods[mod], cls)
            setattr(klass, meth, self._wrap(f"{mod}.{meth}", getattr(klass, meth), counter))
        tasks = mods["cli"].TASKS
        for task, fn in list(tasks.items()):
            tasks[task] = self._wrap(f"cli.{task}", fn, None)

    # -- aggregation ---------------------------------------------------------
    @staticmethod
    def summarize(phase):
        """{name: {"calls", "s", "self_s"}} plus the phase's counters.

        "s" is inclusive time of the outermost span of each name (a name
        nested inside itself is not counted twice); "self_s" subtracts the
        time covered by direct child spans.
        """
        spans = phase.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, parent, t0, t1) in enumerate(spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child[sid]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                rec["s"] += t1 - t0
        return dict(out), dict(phase.counts)

    def layer_values(self):
        """Per-layer numbers for one set-up plus one round.

        Counts come from the set-up phase plus the first round (rounds repeat
        the same inputs, so their counts are equal); times are the set-up's
        plus the median over rounds.
        """
        setup, rounds = self.phases[0], self.phases[1:]
        s_sum, s_cnt = self.summarize(setup)
        r_sums = [self.summarize(ph) for ph in rounds]
        values = {}
        for name in self.names:
            base = s_sum.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            per = [rs[0].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                   for rs in r_sums]
            values[f"{name}.calls"] = base["calls"] + per[0]["calls"]
            for key in ("s", "self_s"):
                values[f"{name}.{key}"] = base[key] + statistics.median(
                    p[key] for p in per)
        keys = set(s_cnt) | set(r_sums[0][1])
        for key in keys:
            values[key] = s_cnt.get(key, 0) + r_sums[0][1].get(key, 0)
        radii = setup.radii + rounds[0].radii
        total = sum(r.size for r in radii)
        distinct = np.unique(np.concatenate(radii)).size if total else 0
        values["multiplier.f_jet.distinct_frac"] = distinct / total if total else 0.0
        values["multiplier.f_jet.distinct_points"] = distinct
        return values

    def write_spans(self, path):
        """Spans of the set-up and the first round (later rounds repeat it)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["phase", "id", "parent", "name", "start", "end"])
            for ph in self.phases[:2]:
                for sid, (name, parent, t0, t1) in enumerate(ph.spans):
                    w.writerow([ph.label, sid, parent, name, f"{t0:.9f}", f"{t1:.9f}"])
