"""Timings of the dominant exponent: ``dominant_exponent``, ``h_poly`` and the
image-structure sweep's ``_image_codes``.  ``dominant_exponent`` alone times
the search; with ``h_poly`` after it on the same form it times the search
and the shared second read.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_codes.py

Each benchmark times one batch of calls, with its inputs built outside the
timed region, and checks the batch's results once afterwards against the
scalar digit walk.
"""

from hecke2.codes import code, dominant_exponent, domination_key, h, h_poly
from hecke2.fast import hecke_fast_range
from hecke2.relation import cached_charpoly
from hecke2.verify import _image_codes


def _sweep_images():
    # the inputs of the sweep workload: the nonzero images T_p(Delta^k) at
    # p = 3 and 5 for k <= 4095, about 16 terms each
    return [f for p in (3, 5) for f in hecke_fast_range(cached_charpoly(p), 4095) if f]


def test_dominant_exponent_of_sweep_images(benchmark):
    images = _sweep_images()
    out = benchmark(lambda: [dominant_exponent(f) for f in images])
    for f, e in zip(images, out):
        assert e == max(f.exponents(), key=domination_key)


def test_dominant_exponent_and_h_of_sweep_images(benchmark):
    images = _sweep_images()

    def dominant():
        return [(dominant_exponent(f), h_poly(f)) for f in images]

    out = benchmark(dominant)
    for f, (e, hf) in zip(images, out):
        assert e == max(f.exponents(), key=domination_key)
        assert hf == max(h(k) for k in f.exponents())


def test_image_codes_to_8191(benchmark):
    # one image-structure sweep at p = 3: the stream and the dominant code of
    # every image to k = 8191
    out = benchmark(lambda: list(_image_codes(3, 8191)))
    images = hecke_fast_range(cached_charpoly(3), 8191)
    assert [k for k, _, _ in out] == list(range(8192))
    for (k, ck, dom), f in zip(out, images):
        assert ck == code(k)
        assert dom == (code(max(f.exponents(), key=domination_key)) if f else None)
