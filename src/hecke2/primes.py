"""The odd primes every route is indexed by, and the prime cap of the command line."""

from __future__ import annotations

from .errors import NotPrime


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


# Largest --p and --pmax of the command line, and the reach of the `verify
# --long` claims over every prime.  It bounds the residual check at
# `relation.residual_precision(499)` = 2,000,000 bits: about 0.4 s for the
# first call at p = 499 on a 2-core machine, 0.07 s for a later one in the
# same process.  It also keeps `is_odd_prime`'s trial division away from
# huge inputs.
MAX_PRIME = 500


def odd_primes_up_to(n: int) -> list[int]:
    if n < 3:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(3, n + 1, 2) if sieve[i]]


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
