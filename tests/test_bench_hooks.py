"""The benchmark's trace mode keeps working on the current program: one
short traced run per workload, at tiny scale, reports every per-layer
metric that BENCHMARK.json declares."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_worker_reports_every_layer(workload):
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", "1", "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    layers = json.loads(run.stdout)["layers"]
    assert {metric["name"] for metric in SPEC["per_layer"]} <= set(layers)
