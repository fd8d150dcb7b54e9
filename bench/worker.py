"""Runs one benchmark workload in this process and prints a JSON summary as
the last line of its standard output.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts it in a fresh process with PYTHONPATH set to the checkout's
src/ and the BLAS thread pools pinned to one thread.  setup_s is measured
from the first statement of this file (before numpy, scipy and wlift are
imported) to the end of the workload's input generation.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import wlift  # noqa: E402
from wlift import transport  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
MIN_ITERATIONS = 2  # passes of a measured run; a traced run makes >= 1 (untraced, traced) pair
HARD_LIMIT_S = 140.0  # never start an iteration expected to end later than this


def run_iteration(tasks, inputs, tmp):
    """Runs every task once; returns outputs and per-task seconds.  An
    unexpected exception becomes the task's output and fails its check."""
    outputs, times = {}, {}
    clock = time.perf_counter
    for task in tasks:
        t = clock()
        try:
            out = task.run(inputs, tmp)
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            out = exc
        times[task.name] = clock() - t
        outputs[task.name] = out
    return outputs, times


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, tasks, inputs, outputs):
        for task in tasks:
            out = outputs[task.name]
            if isinstance(out, Exception):
                results = [("raised", False, repr(out))]
            else:
                try:
                    results = task.check(inputs, out)
                except Exception as exc:  # noqa: BLE001 - a broken output fails its check
                    results = [("check_raised", False, repr(exc))]
            for label, ok, detail in results:
                self.attempted += 1
                if not ok:
                    self.failures.append(f"{task.name}.{label}: {detail}")


def _keep_going(done, min_done, elapsed, per_iteration, seconds):
    if elapsed + per_iteration > HARD_LIMIT_S:
        return False
    return done < min_done or elapsed + per_iteration <= seconds


def _warm_up():
    """One tiny LP, so HiGHS's first-call set-up is not timed."""
    sp = wlift.euclidean(1)
    mu = wlift.make_measure(sp, [[0.0], [1.0]], [0.5, 0.5])
    nu = wlift.make_measure(sp, [[0.5], [2.0]], [0.25, 0.75])
    transport.optimal_coupling(mu, nu, 2.0)


def measure(wl, inputs, tmp, seconds, checks):
    walls, per_task = [], {t.name: [] for t in wl.tasks}
    start = time.perf_counter()
    while True:
        outputs, times = run_iteration(wl.tasks, inputs, tmp)
        checks.add(wl.tasks, inputs, outputs)
        walls.append(sum(times.values()))
        for name, t in times.items():
            per_task[name].append(t)
        if len(walls) == 1:
            # later passes can only add allocator fragmentation from earlier
            # ones, which made this peak differ by 7 % between identical runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not _keep_going(len(walls), MIN_ITERATIONS, time.perf_counter() - start,
                           statistics.median(walls), seconds):
            break
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "iterations": walls,
        "task_median_s": {k: statistics.median(v) for k, v in per_task.items()},
    }


def measure_traced(wl, inputs, tmp, seconds, checks, spans_path):
    """(untraced, traced) iteration pairs: layer counts come from the first
    traced iteration, layer times are medians over the traced ones."""
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        outputs, times = run_iteration(wl.tasks, inputs, tmp)
        checks.add(wl.tasks, inputs, outputs)
        untraced.append(sum(times.values()))
        tracer = tr.Tracer()
        with tracer.installed():
            outputs, times = run_iteration(wl.tasks, inputs, tmp)
        checks.add(wl.tasks, inputs, outputs)
        traced.append(sum(times.values()))
        tracers.append(tracer)
        if not _keep_going(len(traced), 1, time.perf_counter() - start,
                           statistics.median(untraced) + statistics.median(traced), seconds):
            break
    stats = [t.layer_stats(wall) for t, wall in zip(tracers, traced)]
    counts_repeat = all(
        s[m] == stats[0][m] for s in stats for m, unit, _ in tr.PER_LAYER if unit == "count")
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics = {}
    for m, unit, _ in tr.PER_LAYER:
        if m == "trace.untraced_wall_s":
            value = u
        elif m == "trace.traced_wall_s":
            value = t
        elif m == "trace.overhead_frac":
            value = t / u - 1.0
        elif unit == "count":
            value = stats[0].get(m, 0)
        else:
            value = statistics.median(s.get(m, 0.0) for s in stats)
        metrics[m] = {"value": value, "unit": unit}
    tr.save_spans(spans_path, tracers)
    return {"metrics": metrics, "counts_repeat": counts_repeat, "pairs": len(traced)}


def _threads():
    env = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    try:
        with open("/proc/self/status") as fh:
            env["process_threads"] = next(
                int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = BENCH.parent / "src"
    if not Path(wlift.__file__).resolve().is_relative_to(src.resolve()):
        print(f"wlift imported from {wlift.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - _T0
    summary = {"setup_s": setup_s}
    if not args.setup_only:
        OUT.mkdir(exist_ok=True)
        checks = Checks()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            _warm_up()
            if args.trace:
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
                summary.update(measure_traced(wl, inputs, tmp, args.seconds, checks, spans))
            else:
                summary.update(measure(wl, inputs, tmp, args.seconds, checks))
        summary.update(
            attempted=checks.attempted,
            failed=len(checks.failures),
            failures=checks.failures[:20],
            threads=_threads(),
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
