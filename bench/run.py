"""wlift benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # table of all four

Run from the root of a checkout; the library is imported from its src/.
Each workload runs in a fresh single-threaded worker process (worker.py).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics: setup_s (median over several fresh set-up processes), wall_s
(median iteration time of the workload's task list), peak_rss_mb
(through the first pass over the task list) and check_pass_frac.  With
--trace 1 it holds the per-layer metrics of the traced run.  Diagnostics go
to stderr.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# the keys of workloads.WORKLOADS, repeated so that this process never imports
# numpy or wlift and can refuse a directory without src/ at once
WORKLOADS = ("curve_norms", "lift_build", "compat_lp", "path_functionals")
SETUP_PROBES = 2  # set-up-only processes started before the measured one
DEADLINE_S = 170.0
# every BLAS / OpenMP pool numpy or scipy may start is pinned to one thread
PINNED_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _worker(args, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    out = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(out["setup_s"])
    for line in out["failures"]:
        print(f"[{workload}] check failed: {line}", file=sys.stderr)
    attempted, failed = out["attempted"], out["failed"]
    if trace:
        metrics = out["metrics"]
        extra = f"pairs={out['pairs']} counts_repeat={out['counts_repeat']}"
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": out["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
            "check_pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        extra = (f"setups={[round(s, 3) for s in setups]} "
                 f"iterations={[round(s, 3) for s in out['iterations']]} "
                 f"tasks={ {k: round(v, 3) for k, v in out['task_median_s'].items()} }")
    print(f"[{workload}] seed={seed} check_fail_frac={failed / attempted:.6g} "
          f"({failed}/{attempted}) threads={out['threads']} {extra}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "wlift" / "__init__.py").is_file():
        print(f"no wlift sources under {ROOT / 'src'}; run from a wlift checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if not args.trace:
        print(f"{'workload':18} {'setup_s':>8} {'wall_s':>8} {'peak_rss_mb':>11} "
              f"{'check_fail_frac':>15}")
        for name, r in results.items():
            m = r["metrics"]
            print(f"{name:18} {m['setup_s']['value']:8.3f} {m['wall_s']['value']:8.3f} "
                  f"{m['peak_rss_mb']['value']:11.1f} {r['failed'] / r['attempted']:15.6g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
