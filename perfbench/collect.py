#!/usr/bin/env python3
"""Run the benchmark over several seeds and record one trajectory point.

    python3 perfbench/collect.py --tag seed-a60a99a --seeds 1-10

For each of the four workloads, runs ``run.py`` once per seed untraced, and
once traced (on the first seed).  Prints, per end-to-end metric, the median,
the quartiles and the spread (interquartile distance over the median) next to
the metric's bound, and appends the point, with machine facts, the per-layer
values and each span's calls, self and inclusive time, to ``trajectory.json``.
Then compares each median with the previous point's, as a share of it.  A
workload run that fails or reports ``correct: false`` stops the collection.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return res, lines


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # the middle cut is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="name of the trajectory point, e.g. the commit")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    import numpy

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    point: dict = {
        "tag": args.tag,
        "date": datetime.date.today().isoformat(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, 0)[0] for seed in seeds]
        entry: dict = {"end_to_end": {}}
        for name in bounds:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = entry["end_to_end"][name]
            print(f"{workload:<10} {name:<12} median {s['median']:<10.5g} "
                  f"q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        traced, lines = run_once(workload, seeds[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        # {"round_s": mean traced round, "spans": {name: [calls, self_s, total_s]}}
        entry["spans"] = json.loads(next(ln for ln in lines if ln.startswith("spans: "))[7:])
        point["workloads"][workload] = entry
    path = HERE / "trajectory.json"
    points = json.loads(path.read_text()) if path.exists() else []
    if points:
        compare(points[-1], point, bounds)
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")
    print(f"appended point {args.tag!r} to {path}")
    return 0


def compare(before: dict, after: dict, bounds: dict[str, float]) -> None:
    """Print each median's change from the previous point, as a share of it."""
    print(f"median change from {before['tag']!r} to {after['tag']!r} (positive is worse):")
    for workload, entry in after["workloads"].items():
        old = before["workloads"].get(workload)
        if old is None:
            continue
        for name, s in entry["end_to_end"].items():
            m0 = old["end_to_end"][name]["median"]
            change = s["median"] / m0 - 1.0
            verdict = "within" if change <= bounds[name] else "OUTSIDE"
            print(f"{workload:<10} {name:<12} {m0:<10.5g} -> {s['median']:<10.5g} "
                  f"{change:+.3f} ({verdict} bound {bounds[name]})")


if __name__ == "__main__":
    sys.exit(main())
