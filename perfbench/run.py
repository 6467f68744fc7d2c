#!/usr/bin/env python3
"""mptrap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sos-window --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload runs in fresh Python
processes (``worker.py``) with ``src`` on PYTHONPATH and one BLAS/OpenMP
thread; their artifacts are then checked (``checks.py``).  The last line of
standard output is one strict-JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROCESSES = 2          # set-up-only processes; the workload's own makes three
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, outdir, *extra):
    """Run worker.py to completion and return its result dict."""
    os.makedirs(outdir, exist_ok=True)
    result = os.path.join(outdir, "worker_result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", outdir, "--result", result, *extra]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "mptrap", "cli.py")) or not os.path.isfile(bench_path):
        print(f"no mptrap sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    sys.path.insert(0, SRC)
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    seconds = ["--seconds", str(args.seconds)]

    if args.trace == 0:
        setups = [run_worker(args, os.path.join(outdir, f"setup{i}"), "--setup-only")["setup_s"]
                  for i in range(SETUP_PROCESSES)]
        res = run_worker(args, os.path.join(outdir, "run"), *seconds)
        setups.append(res["setup_s"])
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(res["round_walls"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = bench["end_to_end"]
        trace_checks = []
    else:
        base = run_worker(args, os.path.join(outdir, "untraced"), "--rounds", "1")
        res = run_worker(args, os.path.join(outdir, "traced"), "--trace", "1", *seconds)
        values = dict(res["layers"])
        values["trace.overhead_s"] = statistics.median(res["round_walls"]) - base["round_walls"][0]
        wanted = bench["per_layer"]
        same = base["fingerprint"] == res["fingerprint"]
        trace_checks = [("trace.reports_equal", same,
                     "traced artifacts and reports (wall_time_s excluded) "
                     + ("equal" if same else "DIFFER from") + " the untraced run's")]

    configs = {name: cfg for name, _, cfg in workloads.operations(args.workload, args.seed)}
    ctx = checks.Context(res["dirs"], configs, args.seed)
    checks.prepare(args.workload, ctx, outdir)
    results = checks.run_checks(args.workload, ctx) + trace_checks
    results.append(("rounds.deterministic", res["deterministic"],
                    f"{len(res['round_walls'])} rounds with identical artifacts"))
    for err in res["errors"]:
        print(f"operation error: {err}", file=sys.stderr)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            base_name = name.rsplit(".", 1)[0]
            if base_name not in res.get("span_names", ()):
                raise KeyError(f"metric {name} names no traced function")
            values[name] = 0       # traced, but not called on this workload
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    out = {"correct": all(ok for _, ok, _ in results),
           "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"result": out, "checks": results, "round_walls": res["round_walls"],
                   "all_layers": values if args.trace else None}, fh, indent=1,
                  allow_nan=False)
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
