"""The benchmark harness (perfbench/run.py) on short runs: its answers
and, traced, its per-layer metrics. Each run works on a copy of
perfbench/, src/ and BENCHMARK.json, so it leaves nothing in the
checkout."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, workload, trace, env=None):
    """The detail and the result, the last two stdout lines, of a
    one-second perfbench run of workload from seed 1 on a copy of the
    benchmark's files in tmp_path."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300,
                         env={**os.environ, **(env or {})})
    assert res.returncode == 0, res.stderr
    return map(json.loads, res.stdout.splitlines()[-2:])


@pytest.mark.ci
def test_a_traced_queries_run_reports_every_layer(tmp_path):
    # a traced run reads package names no command calls (m_n,
    # monomial_row, monomial_reduction_witness, ...): it must answer
    # correctly and report every per-layer metric, none missing. The
    # package resolves its names lazily, so the harness must still find
    # and wrap every layer. Measured 5 s (2 cores, Python 3.11.7)
    detail, result = _run(tmp_path, "queries", trace=1)
    missing = detail["detail"]["missing"]
    assert not missing, missing
    assert result["correct"] is True


@pytest.mark.ci
@pytest.mark.parametrize("optimize", ["", "1"], ids=["plain", "O"])
def test_sweep_reports_equal_the_expected_ones(tmp_path, optimize):
    # the law battery's reports, not only its exit code: the sweep
    # workload compares verify all --max 250 and --max 100 with
    # perfbench/expected/fixed.json. Once more under -O (children inherit
    # PYTHONOPTIMIZE): no check rests on assert. Measured 1 s each (2 cores,
    # Python 3.11.7)
    _, result = _run(tmp_path, "sweep", trace=0, env={"PYTHONOPTIMIZE": optimize})
    assert result["correct"] is True
