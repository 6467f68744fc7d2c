"""One benchmark process: set-up, then whole rounds of the workload's tasks.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.
Each operation is one ``mptrap.cli.main`` call (config file, ``--out``,
``--seed``), so a round goes through the same entry point as the command
line, report and artifact writing included.  The result is written as JSON
to ``--result``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads


def fingerprint(opdir):
    """Digest of every file an operation wrote, with report.json's
    ``wall_time_s`` left out."""
    digests = {}
    for fname in sorted(os.listdir(opdir)):
        path = os.path.join(opdir, fname)
        if fname == "report.json":
            with open(path) as fh:
                rep = json.load(fh)
            rep.pop("wall_time_s", None)
            data = json.dumps(rep, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        digests[fname] = hashlib.sha256(data).hexdigest()
    return digests


def dir_bytes(opdir):
    return sum(os.path.getsize(os.path.join(opdir, f)) for f in os.listdir(opdir))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0, help="stop after this many rounds (0: no limit)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import mptrap.cli as cli
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin("setup")
    workloads.build_setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}

    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        ops = workloads.operations(args.workload, args.seed)
        cfg_dir = os.path.join(args.out, "config")
        os.makedirs(cfg_dir, exist_ok=True)
        dirs, cfg_paths = {}, {}
        for name, _, cfg in ops:
            cfg_paths[name] = os.path.join(cfg_dir, f"{name}.json")
            with open(cfg_paths[name], "w") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            dirs[name] = os.path.join(args.out, name)

        walls, errors = [], []
        attempted = failed = 0
        first_fp, deterministic = None, True
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.begin(f"round{len(walls)}")
            t = time.perf_counter()
            codes = []
            for name, task, _ in ops:
                argv = [task, "--config", cfg_paths[name], "--out", dirs[name],
                        "--seed", str(args.seed)]
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes.append(cli.main(argv))
                except Exception as exc:  # one failed operation, keep going
                    codes.append(-1)
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                if tracer:
                    tracer.count("cli.artifact_bytes", dir_bytes(dirs[name]))
            walls.append(time.perf_counter() - t)
            attempted += len(codes)
            failed += sum(1 for c in codes if c != 0)
            fp = {name: fingerprint(d) for name, d in dirs.items() if os.path.isdir(d)}
            if first_fp is None:
                first_fp = fp
            elif fp != first_fp:
                deterministic = False
            if args.rounds and len(walls) >= args.rounds:
                break
            if time.perf_counter() - start >= args.seconds:
                break
        result.update(round_walls=walls, attempted=attempted, failed=failed,
                      errors=errors, deterministic=deterministic,
                      fingerprint=first_fp, dirs=dirs)
        if tracer:
            result["layers"] = tracer.layer_values()
            result["span_names"] = tracer.names
            tracer.write_spans(os.path.join(args.out, "trace_spans.csv"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
