#!/usr/bin/env python3
"""Regenerate and validate the benchmark's committed reference outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``reference/fp/fp_<p>.txt`` for every odd prime p <= 257 in the
program's cache format, and ``reference/sweep.json``, digests of the
``sweep`` steps for k < 12288, one per CHUNK consecutive images.  Before
writing, every relation is validated against its structural invariants, against the series residual to
q^(8(p+1)^2) and, for p <= NEWTON_PMAX, against the independent Newton
route.  The sweep digests are computed by ``reference.py`` from the validated
relations, with its own recurrence and code map, and must equal the digests
of the program's own stream and codes; the first images are also compared
with the q-expansion route.  Takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import reference as ref
from workloads import CHUNK

PMAX = 257
NEWTON_PMAX = 127
SWEEP_CHUNKS = 48  # digests cover k < 48 * CHUNK = 12288
NAIVE_KMAX = 200


def validate_relation(hk, p: int):
    cp = hk.compute_charpoly(p)
    bad = hk.structure_violations(cp)
    if bad:
        raise SystemExit(f"p={p}: structure violations {bad}")
    if not hk.relation_residual(cp, 8 * (p + 1) ** 2).is_zero():
        raise SystemExit(f"p={p}: residual does not vanish")
    if p <= NEWTON_PMAX and hk.charpoly_via_newton(p) != cp:
        raise SystemExit(f"p={p}: Newton route disagrees")
    return cp


def chunk_digests(steps) -> list[str]:
    """Digests of ``(image mask, dominant, h)`` steps, one per CHUNK steps."""
    out, records = [], []
    for img, dom, hp in steps:
        records.append(ref.sweep_record(img, dom, hp))
        if len(records) == CHUNK:
            out.append(ref.chunk_digest(records))
            records = []
    return out


def reference_steps(s: list[int], kmax: int):
    for img in ref.images(s, kmax):
        yield (img, ref.dominant(img), ref.h_of(img)) if img else (0, None, None)


def program_steps(hk, codes, p: int, kmax: int):
    for img in hk.iter_hecke_fast(hk.compute_charpoly(p), kmax):
        yield (img.mask, codes.dominant_exponent(img), codes.h_poly(img)) if img else (0, None, None)


def main() -> int:
    from hecke2 import codes, deltapoly
    from hecke2 import hecke as hk

    root = Path(__file__).resolve().parent / "reference"
    (root / "fp").mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for p in hk.odd_primes_up_to(PMAX):
        cp = validate_relation(hk, p)
        text = hk.charpoly_to_text(cp)
        if ref.parse_fp_text(text) != (p, [s.mask for s in cp.s]):
            raise SystemExit(f"p={p}: reference parser disagrees with the cache text")
        (root / "fp" / f"fp_{p}.txt").write_text(text)
        print(f"p={p} validated ({time.perf_counter() - t0:.1f} s)", flush=True)

    refs = ref.References(root)
    sweep: dict[str, list[str]] = {}
    kmax = SWEEP_CHUNKS * CHUNK - 1
    for p in (3, 5):
        s = refs.fp_masks(p)
        for k, img in enumerate(ref.images(s, NAIVE_KMAX)):
            if hk.hecke_naive(deltapoly.monomial(k), p).mask != img:
                raise SystemExit(f"p={p}, k={k}: reference stream disagrees with the naive route")
        ours = chunk_digests(reference_steps(s, kmax))
        if ours != chunk_digests(program_steps(hk, codes, p, kmax)):
            raise SystemExit(f"p={p}: program sweep disagrees with the reference")
        sweep[str(p)] = ours
        print(f"sweep p={p}: {len(ours)} chunks ({time.perf_counter() - t0:.1f} s)", flush=True)
    (root / "sweep.json").write_text(json.dumps(sweep, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
