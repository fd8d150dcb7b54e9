"""Self-test of the benchmark; not part of the library's test suite.

    python3 -m pytest bench/test_bench.py -q

It runs every workload through run.py several times (about five minutes on
two cores): the reference checks pass on two seeds, traced runs on two seeds
report identical counts, BENCHMARK.json lists exactly what the runs report,
and the benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload, seed, trace):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_two_seeds(workload):
    for seed in (1, 2):
        r = _result(workload, seed, 0)
        assert r["failed"] == 0 and r["correct"], r
        assert r["attempted"] > 0
        assert r["metrics"]["check_pass_frac"]["value"] == 1.0
        assert sorted(r["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    # different seeds: the work, and so every count, must not depend on the seed
    a, b = (_result(workload, seed, 1) for seed in (3, 4))
    assert sorted(a["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {m: a["metrics"][m]["value"] for m in counts} == \
        {m: b["metrics"][m]["value"] for m in counts}
    assert a["failed"] == 0 and b["failed"] == 0


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 1, 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
