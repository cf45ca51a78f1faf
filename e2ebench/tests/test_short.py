"""A short mode of every workload completes and prints the full result."""

import json
import os
import subprocess
import sys

import pytest

from e2ebench.spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "e2ebench", "run.py")


def _run(*args):
    done = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_metric(workload, trace):
    lines = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    host = json.loads(lines[-2])["host"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {name: unit for name, unit, *_ in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert {"nproc", "python", "numpy", "cffi", "commit", "clients", "ops"} <= set(host)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "suite":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = ("propagate", "analyze", "decide", "backtrack", "reduce", "other")
        accounted = sum(m[f"solver.{p}_s"] for p in parts)
        assert abs(accounted - m["solver.solve_s"]) <= 1e-6 * m["solver.solve_s"] + 1e-6


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == benchmark_json()


def test_a_bare_directory_fails_without_a_result(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "e2ebench")):
        if name.endswith(".py"):
            (bench / name).write_text(
                open(os.path.join(ROOT, "e2ebench", name)).read()
            )
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""
