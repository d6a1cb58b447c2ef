"""A fixed piece of work that tracks the host's speed.

On a shared host the speed of a core drifts by tens of percent for seconds
or minutes at a time (other tenants, frequency changes), and the drift moves
the program's times and this sample's times together.  ``sample()`` times
one run of a fixed mix of the kinds of work the program does: shifts and
xors of big integers (the ``clmul`` kernel), interpreted loops over dicts
and small ints (the stream and ``codes``) and small numpy bit arrays
(``spread_bits``).  It does not import the program, so no change to the
program moves it.

A time ``t`` measured while the sample takes ``c`` seconds is reported as
``t * REFERENCE_S / c``: seconds on a host that runs the sample in
``REFERENCE_S`` seconds.  ``REFERENCE_S`` is fixed; it was the sample's
median on the calm 2-core x86-64 VM the benchmark was built on.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0013

_rng = random.Random(20241119)
_DENSE = _rng.getrandbits(8000)
_SPARSE = sum(1 << e for e in _rng.sample(range(8000), 120))
_BYTES = np.frombuffer(_rng.getrandbits(8000).to_bytes(1000, "little"), np.uint8)


def _bigint() -> int:
    acc, m = 0, _SPARSE
    while m:
        low = m & -m
        acc ^= _DENSE << (low.bit_length() - 1)
        m ^= low
    return acc


def _interpreted() -> int:
    counts: dict[int, int] = {}
    s = 0
    for i in range(2000):
        s = (s * 31 + i) & 0xFFFF
        counts[s & 255] = counts.get(s & 255, 0) + 1
    return s


def _numpy() -> int:
    idx = np.nonzero(np.unpackbits(_BYTES, bitorder="little"))[0]
    bits = np.zeros(int(idx[-1]) * 3 + 1, np.uint8)
    bits[idx * 3] = 1
    return len(np.packbits(bits, bitorder="little").tobytes())


def sample() -> float:
    """Seconds taken by one run of the fixed mix."""
    t0 = perf_counter()
    for _ in range(2):
        _bigint()
        _bigint()
        _interpreted()
        _numpy()
        _numpy()
        _numpy()
    return perf_counter() - t0


def speed(samples: list[float]) -> float:
    """The factor that turns times measured beside ``samples`` into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
