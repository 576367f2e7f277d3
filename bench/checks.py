"""Output checks that share no code with the package under test.

Everything here works from plain exponent-matrix entries (lists of ints)
with numpy, so a defect in ``qcgirth`` cannot hide itself by also
corrupting the reference it is compared against.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

INPUTS = Path(__file__).resolve().parent / "inputs"


def load_entries(name: str) -> list[list[int]]:
    """Entries of an exponent-matrix JSON file in ``inputs/``."""
    obj = json.loads((INPUTS / name).read_text(encoding="utf-8"))
    return [list(row) for row in obj["entries"]]


def expanded_supports(entries: list[list[int]], p: int) -> np.ndarray:
    """(J*P, L) column index of each one, rows in block-row-major order."""
    e = np.asarray(entries, dtype=np.int64) % p
    j, l = e.shape
    r = np.arange(p, dtype=np.int64)
    cols = np.arange(l, dtype=np.int64) * p
    return np.concatenate(
        [cols[None, :] + (r[:, None] + e[u][None, :]) % p for u in range(j)]
    )


def supports_match(entries: list[list[int]], p: int, row_supports) -> bool:
    """True when *row_supports* equals the expansion of (entries, P)."""
    want = np.sort(expanded_supports(entries, p), axis=1)
    if len(row_supports) != len(want):
        return False
    got = np.asarray([list(s) for s in row_supports], dtype=np.int64)
    return got.shape == want.shape and bool((got == want).all())


def gf2_rank_dense(entries: list[list[int]], p: int) -> int:
    """GF(2) rank of the expanded matrix by dense elimination on uint64 words."""
    sup = expanded_supports(entries, p)
    m, n = sup.shape[0], len(entries[0]) * p
    words = (n + 63) // 64
    a = np.zeros((m, words), dtype=np.uint64)
    rows = np.repeat(np.arange(m), sup.shape[1])
    flat = sup.ravel()
    np.bitwise_or.at(
        a, (rows, flat // 64), np.left_shift(np.uint64(1), (flat % 64).astype(np.uint64))
    )
    rank = 0
    for c in range(n):
        w, bit = c // 64, np.uint64(1) << np.uint64(c % 64)
        col = (a[rank:, w] & bit) != 0
        hits = np.flatnonzero(col)
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        below = rank + 1 + np.flatnonzero((a[rank + 1:, w] & bit) != 0)
        a[below] ^= a[rank]
        rank += 1
        if rank == m:
            break
    return rank


def syndrome_is_zero(entries: list[list[int]], p: int, word: np.ndarray) -> bool:
    """H * word == 0 over GF(2), with H given by (entries, P)."""
    bits = (np.asarray(word).astype(np.int64) & 1).reshape(len(entries[0]), p)
    for row in entries:
        acc = np.zeros(p, dtype=np.int64)
        for v, e in enumerate(row):
            acc ^= np.roll(bits[v], -(e % p))
        if acc.any():
            return False
    return True


def seed_facts(entries: list[list[int]]) -> dict:
    """Canonical form and the two ordering conditions of a (3,L) seed."""
    if len(entries) != 3:
        return {"canonical": False}
    row1, row2 = entries[1], entries[2]
    ordered = sorted(row2, reverse=True)
    second = ordered[1] if len(ordered) > 1 else ordered[0]
    return {
        "canonical": all(e == 0 for e in entries[0])
        and all(r[0] == 0 for r in entries)
        and all(e >= 0 for r in entries for e in r),
        "elementwise": all(a <= b for a, b in zip(row1, row2)),
        "gap": ordered[0] - second >= max(row1),
        "p2_max": ordered[0],
        "min_P": 2 * ordered[0] + 1,
    }


def channel_llr(n: int, rate: float, ebn0_db: float, seed: int, frame: int) -> np.ndarray:
    """All-zero BPSK/AWGN frame LLRs on the per-(seed, frame) noise stream."""
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    rng = np.random.default_rng([seed, frame])
    return 2.0 * (1.0 + rng.normal(0.0, math.sqrt(sigma2), n)) / sigma2


def fer_within(frames: int, frame_errors: int, ref_fer: float) -> bool:
    """Observed FER within 4 binomial sigmas of the reference, plus 0.03.

    The variance is floored at 1/frames so that a reference FER of 0 still
    allows the odd frame error in a short run.
    """
    if frames < 1:
        return False
    sigma = math.sqrt(max(ref_fer * (1.0 - ref_fer), 1.0 / frames) / frames)
    return abs(frame_errors / frames - ref_fer) <= 4.0 * sigma + 0.03
