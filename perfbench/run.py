"""Benchmark of parataur: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A run builds its inputs from the seed (set-up), then times whole
rounds of the same queries in a closed loop on one thread, with the
program's caches emptied before each round, until the timed section has
cost S kernel-normalized seconds, and checks every answer.  Each
query's CPU time is divided by the mean of the reference kernel runs just
before and just after it and multiplied by the kernel's nominal time.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the program's public functions
are wrapped, exactly one round is timed, and the metrics are per layer.
A query that raises counts as failed; one whose answer disagrees with its
check counts as failed and makes ``correct`` false.  Details go to
standard error.  See README.md.
"""

import os
import sys

HASH_SEED = "0"

# Dict and set order must not follow a per-process hash seed; re-execute
# once with it pinned unless the caller pinned one.
if not os.environ.get("PYTHONHASHSEED", "").isdigit():
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("explore_budget", "synth_exact", "lu_regions")
# Kernel runs this close in wall time to a query also normalize it.
WINDOW_S = 0.3
# Set-up is normalized by the median of this many kernel runs just before
# it and as many just after, following one warm-up run.
SETUP_KERNEL_RUNS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def clear_program_caches() -> None:
    """Empty parataur's memo caches, so that no round profits from the one
    before."""
    for name, module in list(sys.modules.items()):
        if name.startswith("parataur."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def make_workload(name: str, seed: int, model_dir: str):
    import workloads
    if name == "explore_budget":
        return workloads.ExploreBudget(seed)
    if name == "synth_exact":
        return workloads.SynthExact(seed)
    os.makedirs(model_dir)
    return workloads.LuRegions(seed, model_dir)


def tail_value(values: list[float]) -> float:
    """The highest percentile that leaves at least ten values above it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def kernel_batch(kernel, spent: float) -> list[tuple[float, float]]:
    """Kernel runs after a query, (CPU seconds, wall time when done): one,
    or after a long query enough to fill a tenth of its time, so that its
    normalization rests on many."""
    runs = [(kernel.run(), time.perf_counter())]
    budget = min(spent / 10, WINDOW_S)
    while sum(k for k, _ in runs) < budget:
        runs.append((kernel.run(), time.perf_counter()))
    return runs


def factors_for(batches, spans, nominal: float) -> list[float]:
    """Each query's factor: the kernel's nominal time over the mean of the
    kernel runs just before and just after the query, and of any others
    within WINDOW_S of it."""
    runs = [k for batch in batches for k, _ in batch]
    times = [t for batch in batches for _, t in batch]
    offsets = [0]
    for batch in batches:
        offsets.append(offsets[-1] + len(batch))
    factors = []
    for i, (start, end, _) in enumerate(spans):
        lo = min(offsets[i], bisect.bisect_left(times, start - WINDOW_S))
        hi = max(offsets[i + 2], bisect.bisect_right(times, end + WINDOW_S))
        factors.append(nominal / statistics.fmean(runs[lo:hi]))
    return factors


def time_round(queries, kernel, tracer, first_query: int) -> dict:
    """Run the queries in order, kernel runs after each; check each answer
    after its kernel runs, outside the timed span, and drop it."""
    batches = [kernel_batch(kernel, 0.0)]
    spans = []
    failed = wrong = 0
    check_cpu = 0.0
    for offset, q in enumerate(queries):
        if tracer is not None:
            tracer.current_query = first_query + offset
        start, cpu = time.perf_counter(), time.process_time()
        try:
            answer, error = q.run(), None
        except Exception as ex:  # a failed query, counted below
            answer, error = None, ex
        spent = time.process_time() - cpu
        spans.append((start, time.perf_counter(), spent))
        if tracer is not None:
            tracer.current_query = -1
        batches.append(kernel_batch(kernel, spent))
        cpu = time.process_time()
        if error is not None:
            failed += 1
            print(f"failed: {q.label}:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        else:
            try:
                message = q.check(answer)
            except Exception as ex:  # a malformed answer
                message = f"check raised {ex!r}"
            if message is not None:
                failed += 1
                wrong += 1
                print(f"wrong: {q.label}: {message}", file=sys.stderr)
        del answer
        check_cpu += time.process_time() - cpu
    factors = factors_for(batches, spans, kernel.NOMINAL_S)
    return {"labels": [q.label for q in queries],
            "costs": [spent * f for (_, _, spent), f in zip(spans, factors)],
            "raw": [spent for _, _, spent in spans],
            "raw_wall": [end - start for start, end, _ in spans],
            "factors": factors, "kernel": [k for batch in batches for k, _ in batch],
            "failed": failed, "wrong": wrong,
            "check_cpu": check_cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if not os.path.isfile(os.path.join(SRC, "parataur", "__init__.py")):
        print(f"error: no parataur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kernel
    kernel.run()
    setup_kernel = [kernel.run() for _ in range(SETUP_KERNEL_RUNS)]
    # Set-up starts here: the interpreter's start-up, and the re-execution
    # that pins the hash seed, are not the program's.
    setup_start = time.process_time()
    try:
        import parataur
        import workloads  # noqa: F401
    except ImportError as ex:
        print(f"error: cannot import the program: {ex}", file=sys.stderr)
        return 2
    if not os.path.abspath(parataur.__file__).startswith(SRC + os.sep):
        print(f"error: parataur imported from {parataur.__file__}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    model_dir = os.path.join(OUT, f"models-{os.getpid()}")
    try:
        return measure(args, kernel, model_dir, setup_start, setup_kernel)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)


def measure(args, kernel, model_dir, setup_start, setup_kernel) -> int:
    # Set-up: importing the program, plus building the first round's inputs.
    workload = make_workload(args.workload, args.seed, model_dir)
    first_round = workload.round()
    setup_cpu = time.process_time() - setup_start
    setup_kernel += [kernel.run() for _ in range(SETUP_KERNEL_RUNS)]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install("parataur")

    totals: dict = {"labels": [], "costs": [], "raw": [], "raw_wall": [],
                    "factors": [], "kernel": [], "failed": 0, "wrong": 0,
                    "check_cpu": 0.0}
    wall0 = time.perf_counter()
    n_rounds = 0
    try:
        while True:
            queries = workload.round() if n_rounds else first_round
            clear_program_caches()
            result = time_round(queries, kernel, tracer, len(totals["labels"]))
            n_rounds += 1
            for key, value in result.items():
                totals[key] += value
            if tracer is not None or sum(totals["costs"]) >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - wall0
    labels, costs = totals["labels"], totals["costs"]
    cost_s = sum(costs) / n_rounds
    print(f"{args.workload} seed={args.seed} rounds={n_rounds} "
          f"queries={len(labels)} cost_s={cost_s:.4f} "
          f"raw_query_cpu_s={sum(totals['raw']) / n_rounds:.4f} "
          f"raw_query_wall_s={sum(totals['raw_wall']) / n_rounds:.4f} "
          f"loop_wall_s={wall:.4f} setup_cpu_s={setup_cpu:.4f} "
          f"check_cpu_s={totals['check_cpu']:.4f}", file=sys.stderr)
    for key, value in getattr(workload, "tally", {}).items():
        print(f"{key}={value}", file=sys.stderr)

    if tracer is None:
        per_query: dict[str, list[float]] = {}
        for label, c in zip(labels, costs):
            per_query.setdefault(label, []).append(c)
        medians = [statistics.median(v) for v in per_query.values()]
        metrics = {
            "cost_s": (cost_s, "s"),
            "query_p50_ms": (statistics.median(medians) * 1000, "ms"),
            "query_tail_ms": (tail_value(medians) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "setup_s": (setup_cpu * kernel.NOMINAL_S
                        / statistics.median(setup_kernel), "s"),
        }
    else:
        import tracing
        summary = tracer.summary(dict(enumerate(totals["factors"])))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
        units = {"_s": "s", "share": "ratio", "per_stored": "ratio"}
        metrics = {}
        for name, value in tracing.layer_metrics(summary).items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)),
                        "count")
            metrics[name] = (value, unit)
    print(json.dumps({
        "correct": totals["wrong"] == 0,
        "attempted": len(labels),
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
