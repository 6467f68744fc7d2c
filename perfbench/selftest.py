#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [--seed 1]

Runs one round of each workload, expects every check to pass on the
artifacts, then perturbs one value per check in a copy of the artifacts and
expects that check to fail.  Exits 0 when every check behaves as expected.
"""

import argparse
import csv
import json
import os
import shutil
import sys
from types import SimpleNamespace

from run import OUT, SRC, run_worker


def edit_csv(path, column, row, fn):
    """Replace one cell: fn(column values, row index) -> new value."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    vals = [float(r[j]) for r in rows[1:]]
    i = row % len(vals)
    rows[i + 1][j] = f"{fn(vals, i):.16e}"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_report(path, fn):
    with open(path) as fh:
        rep = json.load(fh)
    fn(rep)
    with open(path, "w") as fh:
        json.dump(rep, fh, indent=1, sort_keys=True)


def _envelope_jump(rep):
    scan = rep["metrics"]["envelope_scan"]
    scan[max(scan, key=float)] *= 2.5


# (check expected to fail, operation, file, edit)
PERTURBATIONS = {
    "sos-window": [
        ("sos.bracket_fd", "sos-verify", "bracket_scan.csv",
         lambda p: edit_csv(p, "bracket", 0, lambda v, i: v[i] * (1 + 1e-4))),
        ("sos.r_trap_oracle", "sos-verify", "bracket_scan.csv",
         lambda p: edit_csv(p, "r_trap", 0, lambda v, i: v[i] + 1e-6)),
        ("sos.alpha_beta_positive", "sos-verify", "bracket_scan.csv",
         lambda p: edit_csv(p, "beta2", 5, lambda v, i: -abs(v[i]))),
        ("sos.nu_range", "sos-verify", "report.json",
         lambda p: edit_report(p, lambda r: r["metrics"]["nu_range"].__setitem__(1, 1.0 + 1e-9))),
        ("sos.kappa", "sos-verify", "report.json",
         lambda p: edit_report(p, lambda r: r["metrics"]["mu"].__setitem__(
             "kappa", -r["metrics"]["mu"]["kappa"]))),
        ("sos.envelope_ratios", "sos-verify", "report.json",
         lambda p: edit_report(p, _envelope_jump)),
    ],
    "mode-evolution": [
        ("wave.convergence_order", "convergence", "report.json",
         lambda p: edit_report(p, lambda r: r["metrics"]["field_errors"].__setitem__(
             -1, 0.5 * r["metrics"]["field_errors"][-1]))),
        ("wave.lateral_flux", "wave-l1", "energy.csv",
         lambda p: edit_csv(p, "E_lateral_cum", -1, lambda v, i: 0.9 * v[i])),
        ("wave.energy_bounded", "wave-l2", "energy.csv",
         lambda p: edit_csv(p, "E_slice", 10, lambda v, i: 1.05 * v[0])),
    ],
    "certify": [
        ("geodesic.null_condition", "geodesic", "trajectory.csv",
         lambda p: edit_csv(p, "tau", 10, lambda v, i: v[i] * 1.001)),
        ("trapped.static_limit", "static-trapped-scan", "trapped_scan.csv",
         lambda p: edit_csv(p, "r_trapped", 3, lambda v, i: v[i] + 1e-9)),
        ("multiplier.c_star", "multiplier-verify", "report.json",
         lambda p: edit_report(p, lambda r: r["metrics"].__setitem__(
             "c_star_refined", 1.02 * r["metrics"]["c_star"]))),
        ("multiplier.F_increasing", "multiplier-verify", "profiles.csv",
         lambda p: edit_csv(p, "F", 400, lambda v, i: v[i - 1] - 1e-3)),
        ("multiplier.pinned_witness", "multiplier-verify", "report.json",
         lambda p: edit_report(p, lambda r: r["witnesses"].append(
             {"check": "boundary_feasible", "error": "injected"}))),
    ],
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    import checks
    import workloads

    root = os.path.join(OUT, "selftest")
    shutil.rmtree(root, ignore_errors=True)
    bad = 0
    for workload in workloads.WORKLOADS:
        base = os.path.join(root, workload)
        res = run_worker(SimpleNamespace(workload=workload, seed=args.seed),
                         os.path.join(base, "run"), "--rounds", "1")
        configs = {n: c for n, _, c in workloads.operations(workload, args.seed)}
        ctx = checks.Context(res["dirs"], configs, args.seed)
        checks.prepare(workload, ctx, base)
        for name, ok, detail in checks.run_checks(workload, ctx):
            print(f"{'ok  ' if ok else 'BAD '} {workload} unperturbed {name}: {detail}")
            bad += not ok
        for check, op, fname, edit in PERTURBATIONS[workload]:
            copy = os.path.join(root, f"{workload}-{check}")
            shutil.copytree(ctx.dirs[op], copy)
            edit(os.path.join(copy, fname))
            pctx = checks.Context(dict(ctx.dirs, **{op: copy}), configs, args.seed)
            [(_, ok, detail)] = checks.run_checks(workload, pctx, only={check})
            print(f"{'BAD ' if ok else 'ok  '} {workload} perturbed {op}/{fname} "
                  f"-> {check} {'passed' if ok else 'failed'}: {detail}")
            bad += ok
    print(f"selftest: {'FAILED' if bad else 'passed'} ({bad} unexpected)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
