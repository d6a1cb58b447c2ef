"""The power-sum (Newton) oracle: a second derivation of F_p from naive data.

The classical power-sum (Newton) identities give a derivation of the
relation independent of the packed solve.  It reads the naive images of the
odd powers only, squares them into the even power sums, imposes the odd
identities, which imply the even ones, and closes through the odd stream.
Those two readings, ``naive._naive_monomial_range`` and
``fast._packed_stream``, are the comparisons this route makes with the
others.  Both are read through their modules, so a test that corrupts
either where it is defined reaches this route as well, and so is its
elimination, ``gf2series._gf2_solve``, the packed solve's too: the closing
pass, not the elimination, checks this route's solution.
"""

from __future__ import annotations

from . import fast, gf2series, naive
from .errors import SingularSystem
from .gf2series import bit_positions, pack8, spread8, spread_bits
from .primes import _require_odd_prime
from .relation import CharPoly, _chosen_relation


def charpoly_via_newton(p: int) -> CharPoly:
    """Independent derivation of the relation from naive power-sum images.

    The power sums N_m are the naive images of the m-th powers, and mod 2
    the Newton identities read

        N_m + s_1 N_(m-1) + ... + s_(m-1) N_1 + [m odd, m <= p+1] s_m = 0,

    with s_i = 0 for i > p+1.  One elimination solves for the allowed
    monomial bits (degree and mod-8 class constraints) of every s_r at once,
    with the odd identities m = 1, 3, ..., 3(p+1) - 1 imposed coefficient by
    coefficient.  Only the odd sums are naive images: T_p(g^2) = T_p(g)^2
    mod 2, so N_2k = N_k^2, squared on the packed sums (bit a of class c goes
    to bit 2a + (c >> 2) of class 2c mod 8).

    The odd identities imply the even ones.  With S(t) = 1 + s_1 t + ... +
    s_(p+1) t^(p+1) and P(t) = sum_k N_k t^k, identities 1..M say that
    D = P S + S_o vanishes mod t^(M+1), where S_o is the odd part of S in t
    (t S' = S_o in characteristic 2).  Split P, S and D into even and odd
    parts: the odd part of D is O = P_e S_o + P_o S_e + S_o and the even
    part E = P_e S_e + P_o S_o.  If O = 0, then S_o (1 + P_e) = P_o S_e, so
    E (1 + P_e) = S_e (P_e + P_e^2 + P_o^2) = S_e (P_e + P^2) = 0, as the
    sums double: P_e = P^2.  1 + P_e is a unit (N_0 = 0), so E = 0.  This
    does not use s_0 = 1, so it holds for the homogeneous system too: the odd
    rows have the same solutions and the same column kernel as all rows, and
    the solve is unique, or raises on a dependent column or on an
    inconsistency, exactly where a solve over every identity would.  Since
    the even sums are squared packed, the doubling holds on the sums the
    solve reads even when ``pack8`` folds an off-class bit of an odd one.

    Identity m lies on the class c_m = p*m mod 8, as N_m and every
    s_i N_(m-i) do, so its row block (m-1)/2 holds it packed on that class:
    bit a stands for X^(8a + c_m), and a block of (3(p+1) >> 3) + 1 bits
    covers degree 3(p+1).  The entry of the unknown X^j of s_i in identity m
    is N_t X^j with t = m - i, which is packed N_t shifted by
    (j >> 3) + ((c_i + c_t) >> 3), in block (i >> 1) + (t >> 1); as m is
    odd, t and i have opposite parities.  So two streams per class c, over
    odd and over even t, each holding packed N_t shifted by (c + c_t) >> 3 in
    block t >> 1, give every column of s_i as the stream of the other parity
    for c = c_i moved up i >> 1 blocks (and cut at identity 3(p+1) - 1) and
    then j >> 3 bits, plus the lone s_i bit of identity i, in block i >> 1,
    at odd i.  The odd-t stream for c = 0 is the right-hand side.

    A closing pass runs the solution through ``_packed_stream``, the fast
    route's recurrence for the odd images, which the packed solve
    does not use.  By induction on odd m, each even sum below m being the
    square of a smaller one, identity m closes on the unpacked sums exactly
    when image m is packed N_m and N_m has no bit off its class (``pack8``
    folds one into its byte).  Every image is compared with the naive sums,
    so a faulty stream can only raise.  Raises SingularSystem if the
    identities leave a bit undetermined, are inconsistent, or one of them
    does not close.
    """
    _require_odd_prime(p)
    big = p + 1
    rmax = 3 * big
    odd = [s.mask for s in naive._naive_monomial_range(p, rmax - 1, step=2)]  # odd[i] is N_(2i+1)
    cls = [(p * m) % 8 for m in range(rmax)]
    packed = [0] * rmax
    for t in range(1, rmax):
        if t & 1:
            packed[t] = pack8(odd[t >> 1], cls[t])
        else:
            packed[t] = spread_bits(packed[t >> 1], 2) << (cls[t >> 1] >> 2)
    width = (rmax >> 3) + 1  # packed bits of one identity block
    full = (1 << ((rmax >> 1) * width)) - 1

    def stream(c: int, parity: int) -> int:
        acc = 0
        for t in range(rmax - 2 + parity, -1, -2):
            acc = (acc << width) ^ (packed[t] << ((c + cls[t]) >> 3))
        return acc

    streams = [[stream(c, parity) for c in range(8)] for parity in (0, 1)]
    # heads[i]: the column of X^(c_i), the lowest allowed bit of s_i; at odd i
    # its lone bit takes block 0 of the even-t stream, which holds N_0 = 0
    heads = {
        i: ((streams[~i & 1][cls[i]] | (i & 1)) << ((i >> 1) * width)) & full
        for i in range(1, big + 1)
    }
    bits = [(i, j) for i in range(1, big + 1) for j in range(cls[i], i + 1, 8)]
    chosen = gf2series._gf2_solve(
        (heads[i] << (j >> 3) for i, j in bits),
        streams[1][0],
        lambda idx: SingularSystem(
            f"power-sum identities leave s_{bits[idx][0]} underdetermined at p={p}"
        ),
        lambda: SingularSystem(f"power-sum identities are inconsistent at p={p}"),
    )
    cp = _chosen_relation(p, (bits[idx] for idx in bit_positions(chosen)))
    for m, image in zip(range(1, rmax, 2), fast._packed_stream(cp, rmax)):
        if not (image == packed[m] and spread8(packed[m], cls[m]) == odd[m >> 1]):
            raise SingularSystem(f"power-sum identity {m} does not close at p={p}")
    return cp
