"""The benchmark's own check of the program: one short traced run of each
workload of perfbench/run.py ends with "correct": true.  A traced run
checks every report against values computed without minkval, that the
untraced, traced and tracemalloc passes give the same reports, and that
the tracer reached every traced function (perfbench/NOTES.md)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sections", "motions", "analytic"])
def test_benchmark_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
