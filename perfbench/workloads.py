"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` (part of set-up), hands out
one fixed batch of operations per round, and checks every output against
``reference`` routines that do not import the program.  Program functions
are looked up on their modules at call time, so the tracer's patches apply.

Why each workload exists, the layer it stresses and the ones it bypasses are
recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import reference as ref
from hecke2 import codes, hecke, nilpotence, structural
from hecke2.deltapoly import DeltaPoly

CHUNK = 256  # sweep images per reference digest
BLOCK = 32  # sweep images per op


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def odd_primes(n: int) -> list[int]:
    return [p for p in range(3, n + 1, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]


class Workload:
    """Base class: a fixed batch of ops per round and a check per output."""

    name = ""
    min_rounds = 1

    def ops(self, round_no: int) -> list:
        """The round's batch as a list of zero-argument callables."""
        raise NotImplementedError

    def check(self, index: int, out) -> int:
        """Number of failed ops settled by this output (usually 0 or 1)."""
        raise NotImplementedError


class Relations(Workload):
    """Cold build and verify of the F_p table, then the top-prime residual."""

    name = "relations"

    def __init__(self, seed: int, scale: str, refs: ref.References, work: Path) -> None:
        self.refs = refs
        self.work = work
        self.pmax = 181 if scale == "full" else 31
        self.min_rounds = 5 if scale == "full" else 1
        self.primes = odd_primes(self.pmax)
        for p in self.primes:
            refs.fp_masks(p)

    def ops(self, round_no: int) -> list:
        os.environ["HECKE2_CACHE_DIR"] = str(self.work / f"cache-{round_no}")
        read: dict[int, object] = {}

        def build(p: int):
            """Solve F_p, check its structure, write it to the cache and read it back."""
            cp = hecke.compute_charpoly(p)
            bad = hecke.structure_violations(cp)
            path = hecke.write_charpoly(cp)
            read[p] = hecke.read_charpoly(p)
            return cp, bad, path, read[p]

        top = self.primes[-1]
        self._prec = 8 * (top + 1) ** 2
        ops = [lambda p=p: build(p) for p in self.primes]
        ops.append(lambda: hecke.relation_residual(read[top], self._prec))
        return ops

    def check(self, index: int, out) -> int:
        if isinstance(out, Failed):
            return 1
        if index == len(self.primes):
            return int(out.precision != self._prec or out.bits != 0)
        p = self.primes[index]
        cp, bad, path, back = out
        want = self.refs.fp_masks(p)
        return int(
            bad != []
            or [s.mask for s in cp.s] != want
            or Path(path).read_text() != self.refs.fp_text(p)
            or [s.mask for s in back.s] != want
        )


GAP_PATTERN = (1,) * 8 + (2,) * 4 + (3, 3, 4, 5)  # geometric-like, like random bits


def _dense_form(rng: random.Random, degree: int) -> int:
    """Exponents down from ``degree`` by a seed-shuffled, fixed multiset of gaps.

    The cost of ``to_series`` depends on which gaps occur and how often, so
    fixing the multiset keeps the cost nearly the same for every seed.
    """
    gaps = list(GAP_PATTERN) * (degree // sum(GAP_PATTERN) + 1)
    rng.shuffle(gaps)
    mask, e = 0, degree
    for gap in gaps:
        if e < 0:
            break
        mask |= 1 << e
        e -= gap
    return mask


class Oracle(Workload):
    """The independent second route: q-expansion T_p and the Newton relations."""

    name = "oracle"

    def __init__(self, seed: int, scale: str, refs: ref.References, work: Path) -> None:
        self.refs = refs
        full = scale == "full"
        self.min_rounds = 6 if full else 1
        rng = random.Random(f"oracle-{seed}")
        degrees = (64, 128, 199, 256, 384, 512) if full else (32, 64)
        self.naive = [
            (p, DeltaPoly(_dense_form(rng, d)))
            for p in odd_primes(31 if full else 7)
            for d in degrees
        ]
        self.newton = odd_primes(61 if full else 13)
        self._expected: dict[int, int] = {}

    def ops(self, round_no: int) -> list:
        ops = [lambda p=p, f=f: hecke.hecke_naive(f, p) for p, f in self.naive]
        ops += [lambda p=p: hecke.charpoly_via_newton(p) for p in self.newton]
        return ops

    def check(self, index: int, out) -> int:
        if isinstance(out, Failed):
            return 1
        if index >= len(self.naive):
            p = self.newton[index - len(self.naive)]
            return int(out.p != p or [s.mask for s in out.s] != self.refs.fp_masks(p))
        want = self._expected.get(index)
        if want is None:
            p, f = self.naive[index]
            want = self._expected[index] = ref.hecke(self.refs.fp_masks(p), f.mask)
        return int(out.mask != want)


def _sparse_form(rng: random.Random, degree: int, terms: int) -> int:
    mask = 1 << degree
    for e in rng.sample(range(degree), terms - 1):
        mask |= 1 << e
    return mask


WITNESS_PARTS = 4  # 2-adic parts of a mixed witness form: valuations 0..3


def _witness_form(rng: random.Random, degree: int, terms: int, odd: bool) -> int:
    """A form whose 2-adic parts, their degrees and their dominant exponents are fixed.

    ``degree`` is 2^n - 1.  Part s (one part if ``odd``, else ``WITNESS_PARTS``)
    holds the anchor (2^(n-s) - 1) << s, whose part exponent 2^(n-s) - 1 has
    every digit set and so dominates every other exponent of the part.  The
    seeded terms lie below the anchors, so the seed changes the form but not
    the witness T3^a T5^b of any part, nor the degrees its tables reach.
    """
    parts = 1 if odd else WITNESS_PARTS
    anchors = {((degree + 1 >> s) - 1) << s for s in range(parts)}
    pool = [e for e in range(1, degree) if (e & -e) < 1 << parts and e not in anchors]
    mask = 0
    for e in itertools.chain(anchors, rng.sample(pool, terms - parts)):
        mask |= 1 << e
    return mask


class Queries(Workload):
    """One-shot ``hecke`` and ``g`` requests on sparse high-degree forms."""

    name = "queries"

    def __init__(self, seed: int, scale: str, refs: ref.References, work: Path) -> None:
        self.refs = refs
        full = scale == "full"
        self.min_rounds = 6 if full else 1
        rng = random.Random(f"queries-{seed}")
        primes = odd_primes(31) if full else [3, 5]
        fast_degs, wit_degs = ((2500, 5000, 10000), (1023, 2047, 4095)) if full else ((300,), (255,))
        self.fast = [
            (p, DeltaPoly(_sparse_form(rng, d, 24))) for p in primes for d in fast_degs
        ]
        n = len(self.fast) // 2
        forms = [_witness_form(rng, wit_degs[i % len(wit_degs)], 24, odd=True) for i in range(n)]
        forms += [_witness_form(rng, wit_degs[i % len(wit_degs)], 24, odd=False) for i in range(n)]
        self.witness = [
            (DeltaPoly(m), [DeltaPoly(part) for part in ref.odd_components(m).values()])
            for m in forms
        ]
        for p in primes:  # relations are warmed in set-up
            hecke.cached_charpoly(p)
            refs.fp_masks(p)
        self._expected: dict[int, int] = {}

    def ops(self, round_no: int) -> list:
        def witness(f, parts):
            report = nilpotence.g_general(f)
            return report.g, [nilpotence.apply_witness(part) for part in parts]

        ops = [lambda p=p, f=f: hecke.hecke_fast(f, hecke.cached_charpoly(p)) for p, f in self.fast]
        ops += [lambda f=f, parts=parts: witness(f, parts) for f, parts in self.witness]
        return ops

    def check(self, index: int, out) -> int:
        if isinstance(out, Failed):
            return 1
        want = self._expected.get(index)
        if index < len(self.fast):
            if want is None:
                p, f = self.fast[index]
                want = self._expected[index] = ref.hecke(self.refs.fp_masks(p), f.mask)
            return int(out.mask != want)
        f, parts = self.witness[index - len(self.fast)]
        if want is None:
            want = self._expected[index] = ref.nilpotence_order(f.mask)
        g, results = out
        return int(g != want or len(results) != len(parts) or any(r.mask != 2 for r in results))


class Sweep(Workload):
    """Dense use of the stream: codes of every image, then the shift identities."""

    name = "sweep"

    def __init__(self, seed: int, scale: str, refs: ref.References, work: Path) -> None:
        full = scale == "full"
        self.min_rounds = 6 if full else 1
        self.kmax = 4095 if full else 511  # whole digest chunks: (kmax + 1) % CHUNK == 0
        self.shift_n, self.shift_k = (5, 300) if full else (2, 20)
        self.digests = refs.sweep_digests()
        self.cps = {p: hecke.cached_charpoly(p) for p in (3, 5)}
        self.table_len = 2 * 4**self.shift_n + self.shift_k + 5

    def ops(self, round_no: int) -> list:
        ops: list = []
        self._expect: list = []
        for p, cp in self.cps.items():
            stream: list = []
            table: list = []

            def block(cp=cp, stream=stream, table=table):
                if not stream:
                    stream.append(hecke.iter_hecke_fast(cp, self.kmax))
                steps = []
                for img in itertools.islice(stream[0], BLOCK):
                    if len(table) < self.table_len:
                        table.append(img)
                    if img:
                        steps.append((img, codes.dominant_exponent(img), codes.h_poly(img)))
                    else:
                        steps.append((img, None, None))
                return steps

            blocks = (self.kmax + 1) // BLOCK
            ops += [block] * blocks
            self._expect += [("images", p, b) for b in range(blocks)]
            check = structural.check_shift3 if p == 3 else structural.check_shift5

            def shifts(n, check=check, cp=cp, table=table):
                return all(check(n, k, cp, table) for k in range(self.shift_k + 1))

            ops += [lambda n=n, f=shifts: f(n) for n in range(self.shift_n + 1)]
            self._expect += [("shift", p, n) for n in range(self.shift_n + 1)]
        self._records: list[bytes] = []
        return ops

    def check(self, index: int, out) -> int:
        kind, p, b = self._expect[index]
        if kind == "shift":
            return int(out is not True)
        if isinstance(out, Failed) or len(out) != BLOCK:
            self._records.append(b"failed")
        else:
            self._records += [ref.sweep_record(img.mask, dom, hp) for img, dom, hp in out]
        if (b + 1) % (CHUNK // BLOCK):
            return 0
        records, self._records = self._records, []
        ok = ref.chunk_digest(records) == self.digests[str(p)][(b * BLOCK) // CHUNK]
        return 0 if ok else CHUNK // BLOCK


WORKLOADS = {w.name: w for w in (Relations, Oracle, Queries, Sweep)}
