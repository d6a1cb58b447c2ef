"""One workload run in its own process; started by ``run.py``, not by hand.

Set-up (interpreter start, imports, input generation, relation warm-up) is
timed from the moment the parent spawned this process.  Then the workload's
batch runs in closed-loop rounds, one op after the other: one warm-up
round, then timed rounds until ``--seconds`` have passed and at least
``min_rounds`` are done.  Every output is checked outside its timed call.
Between ops, after every ``CAL_EVERY`` seconds of ops, a ``calibrate``
sample is timed; each op's time is scaled to reference seconds by the
samples nearest to it, so that the host's drift cancels.
With ``--trace 1`` untraced and traced rounds alternate, so the tracing
overhead is the difference between the two.  The last line of standard
output is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import calibrate
import reference
from tracing import Tracer
from workloads import WORKLOADS, Failed

CAL_EVERY = 0.02  # seconds of ops between two calibration samples
CAL_WINDOW = 2  # an op is scaled by this many samples on each side of it
SETUP_CAL_SAMPLES = 20  # calibration samples timed just after set-up
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile that leaves at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if math.floor(n_samples * (100.0 - pct) / 100.0) >= 10:
            return pct
    return TAIL_LADDER[-1]


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def run_round(wl, round_no: int, tracer, errors: list[str]) -> tuple[list[float], list[float], int, int]:
    """One batch: returns (op durations, their speed factors, ops attempted, ops failed).

    The op durations are as measured; each times its speed factor is in
    reference seconds.
    """
    ops = wl.ops(round_no)
    durations = []
    after = []  # per op, the index of the first calibration sample after it
    samples = [calibrate.sample() for _ in range(CAL_WINDOW)]
    since = 0.0
    failed = 0
    perf = time.perf_counter
    for i, fn in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            out = fn()
        except Exception as exc:  # a failed op is counted, the run goes on
            out = Failed(exc)
        durations.append(perf() - t0)
        since += durations[-1]
        if isinstance(out, Failed) and len(errors) < 5:
            errors.append(f"op {i}: {type(out.exc).__name__}: {out.exc}")
        failed += wl.check(i, out)
        after.append(len(samples))
        if since >= CAL_EVERY:
            samples.append(calibrate.sample())
            since = 0.0
    samples += [calibrate.sample() for _ in range(CAL_WINDOW)]
    factors = [calibrate.speed(samples[j - CAL_WINDOW:j + CAL_WINDOW]) for j in after]
    return durations, factors, len(ops), failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](
        args.seed, args.scale, reference.References(args.reference), args.work
    )
    setup_s = time.monotonic() - args.spawned_at
    setup_speed = calibrate.speed([calibrate.sample() for _ in range(SETUP_CAL_SAMPLES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    tracer = Tracer() if args.trace else None
    min_rounds = max(wl.min_rounds, 2 if args.trace else 1)
    errors: list[str] = []
    rounds: list[tuple[int, list[float]]] = []  # (round number, op durations in reference seconds)
    raw_walls, speeds = [], []
    traced_walls, layer_rounds, tables = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    # Round 0 warms up (its outputs are checked, its times are not kept);
    # with tracing, untraced and traced rounds alternate after it.
    while round_no <= min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and round_no % 2 == 0 and round_no > 0
        if traced:
            tracer.install()
        try:
            durs, factors, n, bad = run_round(wl, round_no, tracer if traced else None, errors)
            scaled = [f * d for f, d in zip(factors, durs)]
        finally:
            if traced:
                tracer.uninstall()
        attempted += n
        failed += bad
        if traced:
            traced_walls.append((round_no, sum(scaled), sum(durs)))
            metrics, table = tracer.drain()
            layer_rounds.append(metrics)
            tables.append(table)
        elif round_no > 0:
            rounds.append((round_no, scaled))
            raw_walls.append(sum(durs))
            speeds.append(sum(scaled) / sum(durs))
        round_no += 1

    # Every round repeats the same ops on the same inputs, so an op's latency
    # is the median of its repetitions, each in reference seconds.
    per_op = [statistics.median(col) for col in zip(*(durs for _, durs in rounds))]
    latencies = sorted(per_op)
    pct = tail_percentile(len(latencies))
    tail, beyond = nearest_rank(latencies, pct)
    summary = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "attempted": attempted,
        "failed": failed,
        "rounds": round_no,
        "timed_rounds": len(rounds),
        "wall_s": sum(per_op),
        "raw_wall_s": statistics.median(raw_walls),
        "speed": statistics.median(speeds),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "ops": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "errors": errors,
    }
    if tracer is not None:
        layers = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        # Each traced round against the untraced round just before it.
        untraced = {n: sum(durs) for n, durs in rounds}
        ratios = [wall / untraced[n - 1] for n, wall, _ in traced_walls if n - 1 in untraced]
        layers["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
        summary["layers"] = layers
        summary["traced_rounds"] = len(traced_walls)
        summary["overhead_pairs"] = len(ratios)
        summary["table"] = {  # per-round means, so the columns add up
            name: [sum(t.get(name, (0, 0.0, 0.0))[col] for t in tables) / len(tables) for col in range(3)]
            for name in sorted(set().union(*tables))
        }
        # As measured, like the span times it is the base of.
        summary["traced_mean"] = statistics.fmean(raw for _, _, raw in traced_walls)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
