"""Self-tests of the benchmark: run them with ``python3 -m pytest perfbench/tests``.

They use the ``tiny`` scale, so every workload finishes in a second or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, *extra: str) -> dict:
    proc = run_bench("--workload", workload, "--scale", "tiny", "--seconds", "0.2", *extra)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(workload):
    res = tiny(workload)
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] > 0):
        raise AssertionError(f"{workload}: {res}")
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload}: end-to-end metrics {got} != {want}")
    if any(m["value"] <= 0 for m in res["metrics"].values()):
        raise AssertionError(f"{workload}: a metric is not positive: {res['metrics']}")


def _flip_one_coefficient(ref_dir: Path, p: int) -> None:
    """Drop the lowest exponent of the first nonzero s_r, keeping the file well-formed."""
    path = ref_dir / "fp" / f"fp_{p}.txt"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:-1], 1):
        head, body = line.split(":")
        exps = body.split()
        if exps != ["-"]:
            lines[i] = f"{head}: {' '.join(exps[:-1]) or '-'}"
            count = int(lines[-1].split()[1]) - 1
            lines[-1] = f"end {count}"
            path.write_text("\n".join(lines) + "\n")
            return
    raise AssertionError(f"fp_{p} has no nonzero coefficient")


@pytest.fixture
def corrupted_reference(tmp_path):
    ref_dir = tmp_path / "reference"
    shutil.copytree(BENCH / "reference", ref_dir)
    _flip_one_coefficient(ref_dir, 5)
    digests = json.loads((ref_dir / "sweep.json").read_text())
    digests["3"][0] = "0" * 16
    (ref_dir / "sweep.json").write_text(json.dumps(digests))
    return ref_dir


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_is_caught(workload, corrupted_reference):
    res = tiny(workload, "--reference", str(corrupted_reference))
    if res["correct"] or res["failed"] == 0:
        raise AssertionError(f"{workload}: a corrupted reference went unnoticed: {res}")


# The layer each workload is built to stress must show up in its trace.
STRESSED = {
    "relations": ("hecke.compute_charpoly.calls", "hecke.relation_residual.calls", "hecke.cache_io.bytes"),
    "oracle": ("deltapoly.to_series.calls", "hecke.charpoly_via_newton.calls"),
    "queries": ("hecke.stream.images", "nilpotence.apply_witness.calls", "nilpotence.g_general.calls"),
    "sweep": ("codes.dominant_exponent.calls", "codes.h_poly.calls", "structural.check_shift.calls"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    res = tiny(workload, "--trace", "1")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload}: per-layer metrics differ: {set(got) ^ set(want)}")
    idle = [name for name in STRESSED[workload] if not res["metrics"][name]["value"] > 0]
    if idle:
        raise AssertionError(f"{workload}: stressed layers recorded nothing: {idle}")


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--scale", "tiny", root=tmp_path)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"run without src/ did not fail cleanly: {proc.returncode} {proc.stdout}")
