"""qreliab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload large-db --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

The workload runs in its own process (``worker.py``), single-threaded, in a
closed loop over whole rounds of its operation batch.  Several more
processes only set up, to measure set-up time.  With ``--trace 0`` the last
line of output is the end-to-end metrics, with ``--trace 1`` the per-layer
metrics, as one JSON object.  Full results go to ``perfbench/results/``.
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

import program

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("large-db", "count", "reduce")
SETUP_PROBES = 8  # set-up-only processes per run, besides the workload's own
SLACK = 140  # seconds a run may take beyond --seconds: set-up probes, last round


def units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def worker_env() -> dict[str, str]:
    """The same interpreter settings for every run: set iteration order (and
    with it the order of masks and support facts) is fixed, and no
    caller's cap override changes which operations run or fail."""
    env = dict(os.environ)
    env.pop("QRELIAB_BRUTE_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker; return (perf_counter at start, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + seconds + SLACK
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []  # scaled like the operation times, see worker.calibrate
    for _ in range(SETUP_PROBES):
        start, probe = run_worker(
            [*common, "--seconds", "0", "--setup-only"], deadline - time.perf_counter()
        )
        setups.append((probe["ready"] - start) * probe["setup_scale"])
    start, result = run_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace)],
        deadline - time.perf_counter(),
    )
    setups.append((result["ready"] - start) * result["setup_scale"])

    rounds = result["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    result["setup_seconds"] = setups
    unit = units()
    metrics = {}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        total = lambda rs: statistics.median(sum(r["times"].values()) * r["scale"] for r in rs)  # noqa: E731
        result["trace_overhead"] = total(traced) / total(untraced) - 1
        metrics = result["layers"]
    else:
        # per kind, the sum over operations of each one's median over the
        # rounds of its scaled time: a slow spell in one round moves few
        # operations' medians
        for kind in ("ur", "pqe"):
            metrics[f"{kind}_s"] = sum(
                statistics.median(
                    r["times"][name] * r["scale"] for r in untraced if name in r["times"]
                )
                for name, k in result["kinds"].items()
                if k == kind and any(name in r["times"] for r in untraced)
            )
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    result["summary"] = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in metrics.items()
        },
    }
    return result


def self_check() -> int:
    """Every workload's operations and checkers at tiny sizes, traced and
    untraced, in a few seconds."""
    bad = 0
    for workload in WORKLOADS:
        _, result = run_worker(
            ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1",
             "--scale", "tiny"],
            SLACK,
        )
        rounds = result["rounds"]
        failed = sum(r["failed"] for r in rounds)
        messages = [m for r in rounds for m in r["messages"]]
        print(f"{workload}: {sum(r['attempted'] for r in rounds)} operations, "
              f"{failed} failed, backend={result['backend']}")
        for message in messages:
            print(f"  {message}")
        bad += failed
    print("self-check", "passed" if bad == 0 else "FAILED")
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny sizes and exit")
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.self_check:
            return self_check()
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = result["summary"]
    for message in [m for r in result["rounds"] for m in r["messages"]][:10]:
        print(f"failed: {message}", file=sys.stderr)
    if args.trace:
        print(f"trace overhead: {result['trace_overhead']:+.1%} of untraced operation time",
              file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
