"""Benchmark of onewaysim: five workloads, each checked against answers
computed apart from the package.

    python3 perfbench/run.py --workload adaptive_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # all five workloads in turn

A workload run is a closed loop with one caller.  It makes whole rounds of
its points for about ``--seconds``, checks every answer outside the timed
span, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced (``--trace 1``).
See README.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()

import os

# Idle OpenBLAS threads spin and double the CPU time of small matrix work;
# one thread must be fixed before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("adaptive_sweep", "cnot15_sweep", "oracle_check", "rsp_sweep", "correlation_sweep")
MIN_ROUNDS = 3  # op_s.best takes at least three times of each point
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
MAX_ERRORS_SHOWN = 5


def _load():
    """Import the workloads from the checkout's own sources, never from an
    installed copy."""
    if not (SRC / "onewaysim" / "__init__.py").is_file():
        sys.exit(f"run.py: no onewaysim sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    return workloads


def _setup_sample(args) -> float:
    """The set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    workloads = _load()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.op(wl.points[0])  # warm-up, part of set-up
    setup = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    t0 = time.perf_counter()
    expected = [wl.reference(p) for p in wl.points]
    reference_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()

    # The fresh set-ups are spread over the run, so that their median sees
    # the host at the same moments as the operations do.  A traced run
    # reports no set-up time.
    setups = [setup]
    fresh = 0 if tracer else wl.SETUPS - 1
    fresh_due = [(j + 0.5) * args.seconds / fresh for j in range(fresh)]
    durations, errors = [], []
    best = [math.inf] * len(wl.points)  # fastest time of each point in the run
    attempted = failed = wrong = rounds = 0
    measured = 0.0  # time in the loop, set-ups left out
    # Whole rounds of the same points, so that every run makes the same mix
    # of operations; the run stops at the round count nearest --seconds.
    while rounds < MIN_ROUNDS or measured + 0.5 * measured / rounds < args.seconds:
        start = time.perf_counter()
        for i, (point, exp) in enumerate(zip(wl.points, expected)):
            if tracer:
                tracer.recording = True
            problem = None
            t0 = time.perf_counter()
            try:
                result = wl.op(point)
            except Exception:  # the run goes on; the operation counts as failed
                problem = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if tracer:
                tracer.recording = False
            attempted += 1
            durations.append(t1 - t0)
            best[i] = min(best[i], t1 - t0)
            if problem is None:
                problem = wl.check(point, result, exp)
                wrong += problem is not None
            if problem is not None:
                failed += 1
                if len(errors) < MAX_ERRORS_SHOWN:
                    errors.append(f"{point[:2]}: {problem}")
        rounds += 1
        measured += time.perf_counter() - start
        while fresh_due and fresh_due[0] <= measured:
            fresh_due.pop(0)
            setups.append(_setup_sample(args))
    setups += [_setup_sample(args) for _ in fresh_due]
    completed, timed = attempted - failed, sum(durations)
    op_best = statistics.fmean(best)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# threads " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"# rounds {rounds} x {len(wl.points)} points in {measured:.1f} s, "
          f"attempted {attempted}, failed {failed}")
    print(f"# setup samples {' '.join(f'{s:.4f}' for s in setups)} s; reference {reference_s:.3f} s")
    print(f"# ops_per_s {completed / timed:.4f} 1/s; op_s.p50 {statistics.median(durations):.6f} s")
    if attempted >= P90_MIN_OPS:
        print(f"# op_s.p90 {statistics.quantiles(durations, n=10)[-1]:.6f} s over {attempted} operations")
    if tracer is not None:
        print(f"# traced op_s.best {op_best:.6f} s")
    for err in errors:
        print(f"# FAILED {err}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s.best": (op_best, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values = tracer.metrics(attempted)
        metrics = {name: (values[name], unit) for name, unit in tracing.metric_names()}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "operations": attempted})
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}")
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        results[name] = res
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, failed {res['failed']}")
        for line in lines[:-1]:
            print(f"  {line}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:44s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
