"""Command-line surface.

Subcommands: relation cache management (`fp`), one-shot operator application
(`hecke`), nilpotence reports (`g`), the claim suites (`verify`), and solver
benchmarks (`bench`).  Exit codes: 0 success, 1 claim or verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .codes import _TABLE_CAP
from .deltapoly import DeltaPoly
from .errors import CacheFormatError, Hecke2Error
from .fast import hecke_fast
from .naive import hecke_naive
from .nilpotence import g_general, render_report
from .primes import MAX_PRIME, is_odd_prime, odd_primes_up_to
from .relation import (
    cache_path,
    cached_charpoly,
    charpoly_to_text,
    compute_charpoly,
    read_charpoly,
    relation_residual,
    structure_violations,
    write_charpoly,
)
from .verify import SUITES, VerifyConfig, run_suite

USAGE_ERROR = 2
# Largest exponent a form spec may hold, the domination key table's last:
# `hecke` runs its recurrence up to the largest odd part of an exponent (one
# odd image per step to 8(p+1) - 1, once per relation, then four per step),
# and every command packs the form into a bit mask.
MAX_FORM_DEGREE = _TABLE_CAP - 1
FORM_HELP = f"comma-separated distinct exponents, each at most {MAX_FORM_DEGREE}"
PRIME_HELP = f"odd prime, at most {MAX_PRIME}"
PMAX_HELP = f"largest prime covered, 3 to {MAX_PRIME}"
BENCH_PMAX_HELP = f"largest prime solved, 3 to {MAX_PRIME}"
# --kmax sizes the structure sweeps' numpy arrays and image stream, as a form's
# degree sizes `hecke`'s stream, so it shares that cap, the end of the key table
KMAX_HELP = f"top power of the image-structure sweeps, 1 to {MAX_FORM_DEGREE}; not with --long"


def parse_form(spec: str) -> DeltaPoly:
    """Comma-separated exponents; `0` is the constant term, `0x` the zero form.

    Exponents above MAX_FORM_DEGREE, and a repeated exponent, are rejected.
    """
    spec = spec.strip()
    if spec in ("", "0x"):
        return DeltaPoly(0)
    try:
        exponents = [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed form spec {spec!r}") from exc
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    if max(exponents) > MAX_FORM_DEGREE:
        raise ValueError(f"exponents must be at most {MAX_FORM_DEGREE}")
    seen = set()
    for e in exponents:
        if e in seen:  # over GF(2) the two terms would cancel
            raise ValueError(f"exponent {e} is repeated")
        seen.add(e)
    return DeltaPoly.from_exponents(exponents)


def _prime_error(p: int) -> str | None:
    """Why ``--p`` is unusable, or None; the cap is checked before primality."""
    if p > MAX_PRIME:
        return f"--p must be at most {MAX_PRIME}"
    if not is_odd_prime(p):
        return f"{p} is not an odd prime"
    return None


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _cmd_fp(args: argparse.Namespace) -> int:
    p = args.p
    bad = _prime_error(p)
    if bad:
        return _usage_error(bad)
    if args.action == "compute":
        cp = compute_charpoly(p)
        path = write_charpoly(cp)
        print(f"wrote {path}")
        return 0
    if args.action == "show":
        path = cache_path(p)
        cp = read_charpoly(p) if path.exists() else compute_charpoly(p)
        sys.stdout.write(charpoly_to_text(cp))
        print(f"F_{p}(X,Y) = {cp.render()}")
        return 0
    # verify: recheck every invariant of the cached relation
    path = cache_path(p)
    if not path.exists():
        print(f"error: no cache file at {path}", file=sys.stderr)
        return 1
    try:
        cp = read_charpoly(p)
    except CacheFormatError as exc:
        print(f"fail: cache format/checksum: {exc}", file=sys.stderr)
        return 1
    bad = structure_violations(cp)
    if bad:
        print(f"fail: {'; '.join(bad)}", file=sys.stderr)
        return 1
    precision = 8 * (p + 1) * (p + 1)
    if not relation_residual(cp, precision).is_zero():
        print(f"fail: series relation residual nonzero below q^{precision}", file=sys.stderr)
        return 1
    print(f"ok: p={p} symmetry, degree/congruence bounds, residual to q^{precision}")
    return 0


def _cmd_hecke(args: argparse.Namespace) -> int:
    bad = _prime_error(args.p)
    if bad:
        return _usage_error(bad)
    try:
        form = parse_form(args.form)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.both:
        fast = hecke_fast(form, cached_charpoly(args.p))
        naive = hecke_naive(form, args.p)
        print(fast.render())
        print(naive.render())
        print("agree" if fast == naive else "disagree")
        return 0 if fast == naive else 1
    if args.naive:
        print(hecke_naive(form, args.p).render())
    else:
        print(hecke_fast(form, cached_charpoly(args.p)).render())
    return 0


def _cmd_g(args: argparse.Namespace) -> int:
    try:
        form = parse_form(args.form)
    except ValueError as exc:
        return _usage_error(str(exc))
    print(render_report(g_general(form), kv=args.kv))
    return 0


def _pmax_error(pmax: int) -> str | None:
    """Why ``--pmax`` is unusable, or None; below 3 there is no odd prime."""
    if not 3 <= pmax <= MAX_PRIME:
        return f"--pmax must be between 3 and {MAX_PRIME}"
    return None


def _cmd_verify(args: argparse.Namespace) -> int:
    bad = _pmax_error(args.pmax)
    if bad:
        return _usage_error(bad)
    if args.kmax is not None and not 1 <= args.kmax <= MAX_FORM_DEGREE:
        return _usage_error(f"--kmax must be between 1 and {MAX_FORM_DEGREE}")
    cfg = VerifyConfig(kmax=args.kmax or VerifyConfig.kmax, pmax=args.pmax, long=args.long)
    if args.long and args.kmax is not None:
        return _usage_error(f"--long sweeps to k<={cfg.structure_kmax} and takes no --kmax")
    report = run_suite(args.suite, cfg)
    for line in report.lines():
        print(line)
    for claim in report.claims:
        if not claim.ok:
            print(f"# {claim.claim_id}: {claim.detail}", file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    bad = _pmax_error(args.pmax)
    if bad:
        return _usage_error(bad)
    total = 0.0
    print(f"{'p':>5} {'terms':>6} {'ms':>9}")
    for p in odd_primes_up_to(args.pmax):
        start = time.perf_counter()
        cp = compute_charpoly(p)
        ms = (time.perf_counter() - start) * 1000
        total += ms
        terms = sum(len(sr) for sr in cp.s)
        print(f"{p:>5} {terms:>6} {ms:>9.1f}")
    print(f"total {total / 1000:.2f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke2",
        description="Exact Hecke-operator computations on level-1 modular forms mod 2.",
        epilog="exit codes: 0 success, 1 claim or verification failure, "
        "2 usage error (an argument out of its stated range included)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fp", help="compute/show/verify cached bivariate relations")
    fp.add_argument("action", choices=("compute", "show", "verify"))
    fp.add_argument("--p", type=int, required=True, help=PRIME_HELP)
    fp.set_defaults(func=_cmd_fp)

    hk = sub.add_parser(
        "hecke",
        help="apply one operator to a form",
        description=(
            "Apply T_p to a form by the recurrence route unless --naive or --both. "
            "That route's cost is its tail octets times the terms of F_p: past the "
            "odd images below 8(p+1), kept once per relation, it takes (m >> 3) - p "
            "octet steps, m the largest odd part of an exponent, each of one shift "
            "per term of F_p (1262 terms at p = 257, 5261 at p = 499).  --form 65535 "
            "takes about 8 s at p = 257 and 27 s at p = 499 on a 2-core machine."
        ),
    )
    hk.add_argument("--p", type=int, required=True, help=PRIME_HELP)
    hk.add_argument("--form", required=True, help=FORM_HELP)
    mode = hk.add_mutually_exclusive_group()
    mode.add_argument("--naive", action="store_true", help="q-expansion route")
    mode.add_argument("--both", action="store_true", help="run both routes and compare")
    hk.set_defaults(func=_cmd_hecke)

    g = sub.add_parser("g", help="order-of-nilpotence report for a form")
    g.add_argument("--form", required=True, help=FORM_HELP)
    g.add_argument("--kv", action="store_true", help="key=value output")
    g.set_defaults(func=_cmd_g)

    ver = sub.add_parser("verify", help="run a claim suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--kmax", type=int, help=KMAX_HELP)
    ver.add_argument("--pmax", type=int, default=31, help=PMAX_HELP)
    ver.add_argument("--long", action="store_true", help="full-scale ranges")
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time the relation solver per prime")
    bench.add_argument("--pmax", type=int, default=31, help=BENCH_PMAX_HELP)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Hecke2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
