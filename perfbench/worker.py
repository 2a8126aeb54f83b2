"""One workload process: set up, then run whole rounds of the workload's
operation batch until the run time is used up.

One thread, closed loop: each operation starts when the previous one has
returned.  Only the call into the program is timed; its answer is checked
afterwards.  Prints one JSON object with the raw figures; ``run.py`` turns
them into metrics.

    python3 perfbench/worker.py --workload count --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import program
import tracing
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
CALIBRATION_STEPS = 100_000
REFERENCE_S = 0.010  # the calibration loop's time at reference speed
SETUP_CALIBRATIONS = 5


def calibrate() -> float:
    """Time a fixed pure-Python loop: how fast the interpreter runs now.

    The machine's speed drifts by up to a fifth within a minute, and the
    operations drift with it; times are scaled by REFERENCE_S / (this
    loop's time) to take out most of that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_round(ops, tracer=None) -> dict:
    """Issue every operation once, in order; time, check and count each.
    One calibration loop runs, untimed, before each operation; ``scale``
    is REFERENCE_S over the round's median loop time."""
    times: dict[str, float] = {}
    calibrations: list[float] = []
    answers: dict = {}
    failed = wrong = 0
    messages: list[str] = []
    layers: dict[str, float] = defaultdict(float)
    sweep = {metric: defaultdict(float) for metric in tracing.SLOPE_FUNCTIONS}
    for op in ops:
        calibrations.append(calibrate())
        try:
            if tracer is None:
                start = time.perf_counter()
                answer = op.call()
                elapsed = time.perf_counter() - start
            else:
                answer, elapsed, stats = tracer.profile(op.call)
        except Exception as exc:  # an error from the program fails this operation only
            failed += 1
            messages.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        times[op.name] = elapsed
        try:
            op.check(answer, answers)
        except CheckFailed as exc:
            failed += 1
            wrong += 1
            messages.append(f"{op.name}: wrong answer: {exc}")
            continue
        answers[op.name] = answer
        if tracer is not None:
            for layer, value in tracer.self_times(stats).items():
                layers[layer] += value
            if op.size:
                for metric, (layer, name) in tracing.SLOPE_FUNCTIONS.items():
                    sweep[metric][op.size] += tracer.cumulative(stats, layer, name)
    result = {
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "messages": messages,
        "times": times,
        "calibrations": calibrations,
        "scale": REFERENCE_S / statistics.median(calibrations),
    }
    if tracer is not None:
        result["layers"] = dict(layers)
        result["sweep"] = {m: dict(points) for m, points in sweep.items()}
    return result


def run(ops, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed.  With a tracer, untraced
    and traced rounds alternate, starting untraced, at least one of each."""
    deadline = time.perf_counter() + seconds
    rounds: list[dict] = []
    while True:
        if tracer is not None and len(rounds) % 2 == 1:
            with tracer.counting():
                result = run_round(ops, tracer)
            result["counts"] = dict(tracer.counts)
            result["traced"] = True
        else:
            result = run_round(ops)
            result["traced"] = False
        rounds.append(result)
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            return rounds


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced rounds, times scaled."""
    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            r["layers"].get(layer, 0.0) * r["scale"] for r in traced
        )
    for metric in traced[0]["sweep"]:
        metrics[metric] = statistics.median(tracing.slope(r["sweep"][metric]) for r in traced)
    for counter in traced[0]["counts"]:
        metrics[counter] = statistics.median(r["counts"][counter] for r in traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first timed call would start")
    args = parser.parse_args(argv)

    try:
        qreliab = program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir), args.scale)
        ready = time.perf_counter()
        setup_scale = REFERENCE_S / statistics.median(
            calibrate() for _ in range(SETUP_CALIBRATIONS)
        )
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        rounds = run(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "ready": ready,
        "setup_scale": setup_scale,
        "backend": qreliab.BACKEND,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kinds": {op.name: op.kind for op in ops},
        "rounds": rounds,
    }
    if args.trace:
        out["layers"] = layer_metrics(rounds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
