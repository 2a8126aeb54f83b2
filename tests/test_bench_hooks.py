"""The benchmark keeps working on the current program: one short traced run
per workload, at tiny scale, reports every per-layer metric that
BENCHMARK.json declares, and one untraced round of the full-scale
``reduce`` operations runs, all with no failed operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(*args):
    """The rounds of one worker run, asserting that no operation failed."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    for result in out["rounds"]:
        assert result["failed"] == 0, result["messages"]
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_worker_reports_every_layer(workload):
    out = worker(
        "--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "1",
        "--scale", "tiny",
    )
    assert {metric["name"] for metric in SPEC["per_layer"]} <= set(out["layers"])


def test_full_scale_reduce_round_has_no_failed_operation():
    # every measured reduction op, at the size the benchmark runs it
    out = worker("--workload", "reduce", "--seed", "1", "--seconds", "0", "--scale", "full")
    [result] = out["rounds"]
    assert result["attempted"] == len(out["kinds"]) > 0
