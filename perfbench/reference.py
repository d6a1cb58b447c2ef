"""Independent reference routines the benchmark checks the program against.

Nothing here imports ``hecke2``.  The relations come from the committed
reference texts (``reference/fp/fp_<p>.txt``, the program's cache format),
and the Hecke images, codes and nilpotence orders are recomputed from them
with code written for the benchmark.  A check built from these routines
does not trust the code it measures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent / "reference"


def parse_fp_text(text: str) -> tuple[int, list[int]]:
    """Parse one cache-format text into ``(p, [mask of s_1, ..., s_(p+1)])``."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines[0].startswith("p "):
        raise ValueError("missing `p` header")
    p = int(lines[0][2:])
    masks = []
    count = 0
    for r in range(1, p + 2):
        head, _, body = lines[r].partition(":")
        if head != f"s{r}":
            raise ValueError(f"expected s{r}, got {head!r}")
        mask = 0
        for tok in body.split():
            if tok != "-":
                mask |= 1 << int(tok)
                count += 1
        masks.append(mask)
    if lines[p + 2] != f"end {count}":
        raise ValueError(f"bad checksum line for p={p}")
    return p, masks


class References:
    """The committed reference texts and sweep digests, loaded on demand."""

    def __init__(self, root: Path = DEFAULT_DIR) -> None:
        self.root = Path(root)
        self._masks: dict[int, list[int]] = {}

    def fp_text(self, p: int) -> str:
        return (self.root / "fp" / f"fp_{p}.txt").read_text()

    def fp_masks(self, p: int) -> list[int]:
        hit = self._masks.get(p)
        if hit is None:
            q, hit = parse_fp_text(self.fp_text(p))
            if q != p:
                raise ValueError(f"reference file for p={p} holds p={q}")
            self._masks[p] = hit
        return hit

    def sweep_digests(self) -> dict[str, list[str]]:
        """Prime -> digests of the sweep records, one per CHUNK images from k=0."""
        return json.loads((self.root / "sweep.json").read_text())


def _bits(x: int) -> list[int]:
    return [i for i, c in enumerate(reversed(bin(x)[2:])) if c == "1"] if x else []


def _mul(a: int, b: int) -> int:
    out = 0
    for e in _bits(a):
        out ^= b << e
    return out


def images(s: list[int], kmax: int):
    """Yield the images of Delta^0 .. Delta^kmax from the relation masks ``s``.

    The first p+2 values are the power sums rebuilt by the Newton identities
    (mod 2 the lone r*s_r term survives at odd r); the rest follow the
    order-(p+1) recurrence N_k = sum_r s_r N_(k-r).
    """
    big = len(s)
    hist: list[int] = [0]
    if kmax >= 0:
        yield 0
    terms = [(r, _bits(sr)) for r, sr in enumerate(s, 1) if sr]
    for k in range(1, kmax + 1):
        if k <= big:
            acc = s[k - 1] if k & 1 else 0
            for i in range(1, k):
                acc ^= _mul(s[i - 1], hist[k - i])
        else:
            acc = 0
            for r, exps in terms:
                prev = hist[k - r]
                for e in exps:
                    acc ^= prev << e
        hist.append(acc)
        if len(hist) > big + 1:
            hist[k - big - 1] = 0  # keep only the live window
        yield acc


def hecke(s: list[int], form: int) -> int:
    """T_p of the packed form, as the xor of the images of its monomials."""
    out = 0
    for k, img in enumerate(images(s, form.bit_length() - 1)):
        if (form >> k) & 1:
            out ^= img
    return out


def code(k: int) -> tuple[int, int]:
    """(n3, n5): the binary digits of k at odd positions, and at even ones >= 2."""
    digits = bin(k)[2:][::-1]
    odd = digits[1::2][::-1] or "0"
    even = digits[2::2][::-1] or "0"
    return int(odd, 2), int(even, 2)


def domination_key(k: int) -> tuple[int, int]:
    n3, n5 = code(k)
    return n3 + n5, n5


def dominant(mask: int) -> int:
    return max(_bits(mask), key=domination_key)


def h_of(mask: int) -> int:
    return max(sum(code(e)) for e in _bits(mask))


def odd_components(mask: int) -> dict[int, int]:
    """2-adic parts of a form: s -> packed {e >> s : v2(e) = s}, constant dropped."""
    parts: dict[int, int] = {}
    for e in _bits(mask & ~1):
        s = (e & -e).bit_length() - 1
        parts[s] = parts.get(s, 0) | (1 << (e >> s))
    return parts


def nilpotence_order(mask: int) -> int:
    """g(f): 1 + h of the dominant exponent, maxed over the 2-adic parts."""
    g = 1 if mask & 1 else 0
    for part in odd_components(mask).values():
        g = max(g, 1 + sum(code(dominant(part))))
    return g


def sweep_record(img: int, dom: int | None, hp: int | None) -> bytes:
    """The bytes one sweep step contributes to its chunk digest."""
    body = img.to_bytes((img.bit_length() + 7) // 8, "little")
    return body + f"|{dom}|{hp};".encode()


def chunk_digest(records: list[bytes]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec)
    return h.hexdigest()[:16]
