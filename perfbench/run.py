"""ccnet benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload probe --seed 0 --seconds 30 --trace 0

The workload's task list (see bench_workloads.py) is built from --seed,
then run in whole rounds until --seconds have passed.  Each task's output
is checked (bench_checks.py); a task fails if it raises or its check
fails.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken with wrappers installed (bench_trace.py), and the spans are
written to .perfbench_out/.  Everything runs in this one process with one
BLAS thread.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_ccnet():
    """Import ccnet from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ccnet", "__init__.py")):
        raise SystemExit(f"ccnet sources not found under {src}")
    sys.path.insert(0, src)
    import ccnet
    import ccnet.library  # noqa: F401 - the workloads use it

    if not os.path.abspath(ccnet.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported ccnet from {ccnet.__file__}, not from {src}")
    return ccnet


def run_round(tasks, failures: list) -> list[float]:
    """One pass over the task list; returns each task's time.

    The heap is collected before each task, untimed, so that garbage left
    by earlier tasks does not decide when a task's own collections run.
    """
    times = []
    for task in tasks:
        gc.collect()
        dt = None
        t0 = time.perf_counter()
        try:
            result = task.run()
            dt = time.perf_counter() - t0
            task.check(result)
        except Exception:  # a task that raises or fails its check counts as failed
            if dt is None:
                dt = time.perf_counter() - t0
            failures.append(f"{task.name}: {traceback.format_exc()}")
        times.append(dt)
    return times


def best_of_rounds(rounds: list[list[float]]) -> list[float]:
    """Each task's fastest time over the rounds.  The tasks repeat the same
    work every round, so a slower round measures the host, not ccnet: on a
    shared machine the same pure-Python loop runs up to 60% slower for
    stretches of seconds to minutes."""
    return [min(ts) for ts in zip(*rounds)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ccnet = _import_ccnet()
    sys.path.insert(0, HERE)
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(bench_workloads.WORKLOADS)}")
    build = bench_workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import bench_trace
        tracer = bench_trace.Tracer(ccnet)
        tracer.install()
    tasks = build(ccnet, args.seed)
    setup_s = time.perf_counter() - T_START

    failures: list[str] = []
    rounds: list[list[float]] = []
    untraced: list[list[float]] = []
    if tracer is not None:
        setup_spans = len(tracer.rec.spans)
        tracer.uninstall()
        tracer.evals = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            # alternate untraced and traced rounds; their difference is
            # the tracing overhead
            untraced.append(run_round(tasks, failures))
            tracer.install()
        rounds.append(run_round(tasks, failures))
        if tracer is not None:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break

    attempted = len(tasks) * (len(rounds) + len(untraced))
    failed = len(failures)
    for msg in failures:
        print("FAILED", msg, file=sys.stderr)

    best = best_of_rounds(rounds)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(best), "s"),
            "task_s": (statistics.median(best), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        overhead = sum(best) - sum(best_of_rounds(untraced))
        layer = bench_trace.per_layer(tracer.rec, setup_spans, len(rounds),
                                      tracer.evals / len(rounds), overhead)
        metrics = {k: (v, bench_trace.PER_LAYER_UNITS[k]) for k, v in layer.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.rec.write(path)
        print(f"spans written to {path}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
