"""The three workloads: the task calls of one round and the set-up objects.

Everything a workload feeds the program is drawn from the workload seed, so
the same seed gives the same inputs.  The program receives only the
generated config and ``--seed``.
"""

import random

WORKLOADS = ("sos-window", "mode-evolution", "certify")

R_S = 1.0
# sample counts of the sos-verify task; the shipped defaults are
# 10000 / 100000 / 20000, which makes one call take ~26 s on two cores
SOS_SIZES = {"n_samples": 2000, "n_bracket": 16000, "n_mu": 4000}
WAVE = {"r_e": 0.9, "r_max": 60.0, "n_r": 1200, "T": 40.0}
CONVERGENCE = {"r_e": 0.9, "r_max": 30.0, "n_r": 400, "T": 12.0, "levels": 4}
BUMP_WIDTH = 0.8


def _spins(rng):
    """Two unequal small spins: a in [0.04, 0.06], b in [0.015, 0.035]."""
    return rng.uniform(0.04, 0.06), rng.uniform(0.015, 0.035)


def inputs(workload, seed):
    """Seed-drawn inputs: spins for the rotating workloads, the pulse centre
    for the mode evolution."""
    rng = random.Random(seed)
    if workload == "mode-evolution":
        return {"center": rng.uniform(2.7, 3.3)}
    a, b = _spins(rng)
    return {"a": a, "b": b}


def operations(workload, seed):
    """[(operation name, cli task, config)] for one round."""
    inp = inputs(workload, seed)
    if workload == "sos-window":
        params = {"r_s": R_S, "a": inp["a"], "b": inp["b"]}
        return [("sos-verify", "sos-verify", {"params": params, "sos": dict(SOS_SIZES)})]
    if workload == "mode-evolution":
        data = {"type": "bump", "center": inp["center"], "width": BUMP_WIDTH,
                "amplitude": 1.0}
        ops = [(f"wave-l{l}", "wave-evolve",
                {"schw": {"r_s": R_S, "d": 1}, "wave": dict(WAVE, l=l, data=data)})
               for l in (0, 1, 2)]
        ops.append(("convergence", "convergence",
                    {"schw": {"r_s": R_S, "d": 1},
                     "convergence": dict(CONVERGENCE, l=0, center=inp["center"],
                                         width=BUMP_WIDTH)}))
        return ops
    if workload == "certify":
        params = {"r_s": R_S, "a": inp["a"], "b": inp["b"]}
        return [("geodesic", "geodesic", {"params": params}),
                ("trapped-scan", "trapped-scan",
                 {"params": params, "trapped_scan": {"n_samples": 400}}),
                ("multiplier-verify", "multiplier-verify",
                 {"params": params, "multiplier": {"n_grid": 2000}})]
    raise ValueError(f"unknown workload {workload!r}")


def build_setup(workload, seed):
    """The workload's parameter, chart and multiplier-profile objects, built
    through the public constructors with the values the tasks use."""
    from mptrap.params import BlackHoleParams, SchwParams
    from mptrap.chart import ingoing_chart
    from mptrap.multiplier import build_profiles

    sp = SchwParams(r_s=R_S, d=1)
    objs = {"sp": sp, "profile": build_profiles(sp)}
    if workload == "mode-evolution":
        objs["chart"] = ingoing_chart(sp, WAVE["r_e"], WAVE["r_max"])
    else:
        inp = inputs(workload, seed)
        objs["params"] = BlackHoleParams(r_s=R_S, a=inp["a"], b=inp["b"])
        objs["chart"] = ingoing_chart(sp, 0.95 * R_S, 60.0 * R_S)
    return objs
