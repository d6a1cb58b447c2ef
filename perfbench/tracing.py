"""In-memory spans around the public functions of each ``hecke2`` module.

``Tracer.install`` replaces each traced function with a wrapper, in every
loaded ``hecke2`` module that holds it (``hecke.clmul`` and
``deltapoly.clmul`` as well as ``gf2series.clmul``), and ``uninstall`` puts
the originals back, so untraced rounds run the program unchanged.  A span is
``(name, start, end, parent, op)``; a layer's self time is its spans'
duration minus the part covered by their child spans.  Only functions whose
calls take roughly 10 us or more are wrapped (``dominant_exponent``, not the
per-exponent ``h``), with ``clmul`` and ``spread_bits`` as the kernels.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name); several functions may share one span name.
# ``_solve_relation`` gets no span (None), only counts, so that the packed
# solve's time stays the self time of ``compute_charpoly``.
LAYERS = (
    ("gf2series", "clmul", "gf2series.clmul"),
    ("gf2series", "spread_bits", "gf2series.spread_bits"),
    ("deltapoly", "to_series", "deltapoly.to_series"),
    ("deltapoly", "from_series", "deltapoly.from_series"),
    ("hecke", "hecke_naive", "hecke.hecke_naive"),
    ("hecke", "hecke_naive_series", "hecke.hecke_naive_series"),
    ("hecke", "compute_charpoly", "hecke.compute_charpoly"),
    ("hecke", "_solve_relation", None),
    ("hecke", "relation_residual", "hecke.relation_residual"),
    ("hecke", "charpoly_via_newton", "hecke.charpoly_via_newton"),
    ("hecke", "hecke_fast", "hecke.hecke_fast"),
    ("hecke", "hecke_fast_range", "hecke.hecke_fast_range"),
    ("hecke", "iter_hecke_fast", "hecke.stream"),
    ("hecke", "write_charpoly", "hecke.cache_io"),
    ("hecke", "read_charpoly", "hecke.cache_io"),
    ("codes", "dominant_exponent", "codes.dominant_exponent"),
    ("codes", "h_poly", "codes.h_poly"),
    ("nilpotence", "g_general", "nilpotence.g_general"),
    ("nilpotence", "apply_witness", "nilpotence.apply_witness"),
    ("structural", "check_shift3", "structural.check_shift"),
    ("structural", "check_shift5", "structural.check_shift"),
)

# Span names reported with calls and self time (the stream reports images).
TIMED = (
    "gf2series.clmul",
    "gf2series.spread_bits",
    "deltapoly.to_series",
    "deltapoly.from_series",
    "hecke.hecke_naive_series",
    "hecke.compute_charpoly",
    "hecke.relation_residual",
    "hecke.charpoly_via_newton",
    "codes.dominant_exponent",
    "codes.h_poly",
    "nilpotence.g_general",
    "nilpotence.apply_witness",
    "structural.check_shift",
)


def _clmul_bytes(counters, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    if a.bit_count() > b.bit_count():
        a, b = b, a
    counters["gf2series.clmul.bytes"] += a.bit_count() * ((b.bit_length() + 7) // 8)


def _hecke_fast_terms(counters, args, kwargs, result) -> None:
    counters["hecke.hecke_fast.terms"] += args[0].mask.bit_count()


def _write_bytes(counters, args, kwargs, result) -> None:
    counters["hecke.cache_io.bytes"] += result.stat().st_size


def _read_bytes(counters, args, kwargs, result) -> None:
    from hecke2.hecke import cache_path

    path = args[1] if len(args) > 1 else kwargs.get("path")
    counters["hecke.cache_io.bytes"] += (path or cache_path(args[0])).stat().st_size


ACCOUNT = {
    "clmul": _clmul_bytes,
    "hecke_fast": _hecke_fast_terms,
    "write_charpoly": _write_bytes,
    "read_charpoly": _read_bytes,
}


class Tracer:
    """Collects spans for one round at a time and aggregates them per layer."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, account=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if account is not None:
                account(tracer.counters, args, kwargs, result)
            return result

        return traced

    def wrap_solve(self, fn):
        """``_solve_relation`` without a span: attempts and returns are counted."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters["hecke.solve.attempts"] += 1
            result = fn(*args, **kwargs)
            tracer.counters["hecke.solve.returned"] += 1
            return result

        return counted

    def wrap_stream(self, name: str, gen_fn):
        """One span per generator, timed only inside its ``next()`` calls.

        The span stays on the stack during each ``next()`` so that calls made
        there count as its children; consumer time between items is excluded.
        """
        tracer = self

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            stack, parent = tracer.stack, tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]  # end - start sums the next() calls
            idx = len(tracer.spans)
            tracer.spans.append(span)
            images = 0
            try:
                while True:
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        span[2] += perf_counter() - t0
                        stack.pop()
                    images += 1
                    yield item
            finally:
                tracer.counters["hecke.stream.images"] += images
                if parent >= 0 and tracer.spans[parent][0] == "hecke.hecke_fast":
                    tracer.counters["hecke.hecke_fast.images"] += images

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function in each ``hecke2`` module that holds it."""
        if self._patches:
            return
        mods = [m for k, m in sys.modules.items() if k == "hecke2" or k.startswith("hecke2.")]
        for modname, fname, span in LAYERS:
            home = sys.modules.get(f"hecke2.{modname}")
            if home is None:  # never imported, so never called
                continue
            orig = getattr(home, fname)
            if span is None:
                repl = self.wrap_solve(orig)
            elif fname == "iter_hecke_fast":
                repl = self.wrap_stream(span, orig)
            else:
                repl = self.wrap(span, orig, ACCOUNT.get(fname))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, repl)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def drain(self) -> tuple[dict[str, float], dict[str, tuple[int, float]]]:
        """Per-layer metrics of the spans recorded since the last drain.

        Also returns ``{span name: (calls, self seconds, total seconds)}``
        for every span name seen, the reported layers and their parents alike.
        A stream span covers one generator, so its calls count generators.
        """
        spans, self.spans = self.spans, []
        counters, self.counters = self.counters, defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        selft: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            selft[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = selft[name]
        out["gf2series.clmul.bytes"] = counters["gf2series.clmul.bytes"]
        attempts = counters["hecke.solve.attempts"]
        out["hecke.solve.attempts"] = attempts
        out["hecke.solve.useful_ratio"] = (
            counters["hecke.solve.returned"] / attempts if attempts else 0.0
        )
        out["hecke.stream.images"] = counters["hecke.stream.images"]
        out["hecke.stream.self_s"] = selft["hecke.stream"]
        terms = counters["hecke.hecke_fast.terms"]
        streamed = counters["hecke.hecke_fast.images"]
        out["hecke.hecke_fast.terms"] = terms
        out["hecke.hecke_fast.useful_ratio"] = terms / streamed if streamed else 0.0
        out["hecke.cache_io.bytes"] = counters["hecke.cache_io.bytes"]
        out["hecke.cache_io.self_s"] = selft["hecke.cache_io"]
        return out, {name: (n, selft[name], total[name]) for name, n in calls.items() if n}
