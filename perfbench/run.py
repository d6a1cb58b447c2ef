#!/usr/bin/env python3
"""The hecke2 benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/hecke2``.  Each run starts
fresh single-threaded worker processes (``worker.py``) with their own
temporary ``HECKE2_CACHE_DIR`` under ``.perfbench_tmp/``: a few that only set
up, for the set-up time, and one that sets up and then runs the workload's
batch in closed-loop rounds for ``--seconds``.  Every output is checked
bit-exactly.  Times are reported in reference seconds (``calibrate.py``):
each set-up is scaled by calibration samples its worker times just after
it, each round by samples timed between its ops.  With ``--trace 0`` the end-to-end metrics are reported, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the JSON result; human-readable lines come before it.
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_RUNS = 8  # set-ups measured per run; their median is reported
TIME_LIMIT = 170.0  # seconds for the whole run, workers included
WORKLOADS = ("relations", "oracle", "queries", "sweep")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def worker_env(root: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["HECKE2_CACHE_DIR"] = str(work / "cache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(cmd: list[str], env: dict[str, str], cwd: Path, deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON summary line."""
    cmd = cmd + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, cwd=cwd, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the self-tests")
    ap.add_argument("--reference", type=Path, default=HERE / "reference", help="reference outputs directory")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT
    root = HERE.parent
    if not (root / "src" / "hecke2" / "__init__.py").is_file():
        print(f"error: no src/hecke2 under {root}; run from the root of a hecke2 checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    work = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = worker_env(root, work)
        base = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--scale", args.scale,
            "--reference", str(args.reference.resolve()), "--work", str(work),
        ]
        setup_runs = SETUP_RUNS if args.scale == "full" else 1
        setups = [run_worker(base + ["--setup-only"], env, root, deadline) for _ in range(setup_runs - 1)]
        res = run_worker(base, env, root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res)
    raw_setups = [r["setup_s"] for r in setups]
    setups = [r["setup_s"] * r["setup_speed"] for r in setups]

    attempted, failed = res["attempted"], res["failed"]
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={res['numpy']} platform={platform.platform()}")
    print(f"workload={args.workload} seed={args.seed} scale={args.scale} seconds={seconds} "
          f"trace={args.trace} rounds={res['rounds']}")
    print(f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    for err in res["errors"]:
        print(f"  failure: {err}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in units.items()}
        print(f"tracing overhead: {metrics['trace.overhead_ratio']['value']:+.1%}, the median over "
              f"{res['overhead_pairs']} traced rounds of each against the untraced round before it")
        mean = res["traced_mean"]
        print(f"per traced round (mean of {res['traced_rounds']}, as measured): {mean:.4f} s")
        print(f"{'span':<28} {'calls':>9} {'self_s':>9} {'share':>6} {'total_s':>9} {'share':>6}")
        table = sorted(res["table"].items(), key=lambda kv: -kv[1][1])
        for name, (calls, self_s, total_s) in table:
            print(f"{name:<28} {calls:>9.0f} {self_s:>9.4f} {self_s / mean:>6.1%} "
                  f"{total_s:>9.4f} {total_s / mean:>6.1%}")
        outside = mean - sum(row[1] for _, row in table)
        print(f"{'(outside traced calls)':<28} {'':>9} {outside:>9.4f} {outside / mean:>6.1%}")
        print("spans: " + json.dumps({"round_s": mean, "spans": res["table"]}))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": res["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{res['timed_rounds']} timed rounds: an op's latency is the median of its repetitions, "
              f"wall_s the sum of the latencies; op_tail_ms is p{res['tail_pct']:g} of {res['ops']} ops, "
              f"{res['tail_beyond']} beyond it; setup_s is the median of {len(setups)} set-ups")
        print(f"times in reference seconds; as measured, the median round took {res['raw_wall_s']:.6g} s "
              f"and the median set-up {statistics.median(raw_setups):.6g} s, the host running at "
              f"{res['speed']:.4g} of the reference speed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
