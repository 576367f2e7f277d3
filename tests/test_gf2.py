from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcgirth import BudgetError, QcCode, SparseBinaryMatrix, expand, gf2_rank
from qcgirth.gf2 import MAX_RANK_BITS

from conftest import irregular_rows, qc_codes, random_canonical_matrix


def _identity(n: int) -> SparseBinaryMatrix:
    return SparseBinaryMatrix.from_rows(n, n, tuple((i,) for i in range(n)))


def _span_size_rank(matrix: SparseBinaryMatrix) -> int:
    """Independent rank oracle: log2 of the size of the GF(2) row span."""
    bitrows = []
    for support in matrix.row_supports:
        acc = 0
        for c in support:
            acc |= 1 << c
        bitrows.append(acc)
    span = {0}
    for row in bitrows:
        span |= {v ^ row for v in span}
    size = len(span)
    rank = size.bit_length() - 1
    assert 1 << rank == size
    return rank


def test_identity_full_rank():
    assert gf2_rank(_identity(3)) == 3


def test_duplicate_row_does_not_change_rank():
    base = SparseBinaryMatrix.from_rows(2, 4, ((0, 1), (1, 2)))
    doubled = SparseBinaryMatrix.from_rows(3, 4, ((0, 1), (1, 2), (1, 2)))
    assert gf2_rank(base) == gf2_rank(doubled) == 2


def test_empty_rows_contribute_nothing():
    m = SparseBinaryMatrix.from_rows(3, 4, ((0, 1), (), ()))
    assert gf2_rank(m) == 1


def test_matches_span_oracle_on_random_matrices():
    rng = random.Random(99)
    for _ in range(50):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 10)
        supports = tuple(
            tuple(sorted(rng.sample(range(n_cols), rng.randint(0, n_cols))))
            for _ in range(n_rows)
        )
        m = SparseBinaryMatrix.from_rows(n_rows, n_cols, supports)
        assert gf2_rank(m) == _span_size_rank(m)


def test_block_row_sums_force_rank_deficiency():
    # Each block-row of circulants sums to the all-ones pattern, so a J-row
    # canonical matrix loses at least J-1 from full row rank.
    rng = random.Random(7)
    for _ in range(10):
        j, l, p = rng.randint(2, 4), rng.randint(2, 5), rng.randint(3, 11)
        m = random_canonical_matrix(rng, j, l, p)
        h = expand(QcCode(m, p))
        assert gf2_rank(h) <= j * p - (j - 1)


def test_budget_refusal():
    at_budget = SparseBinaryMatrix.from_rows(1, MAX_RANK_BITS, ((),))
    assert gf2_rank(at_budget) == 0
    big = SparseBinaryMatrix.from_rows(1, MAX_RANK_BITS + 1, ((),))
    with pytest.raises(BudgetError, match="budget"):
        gf2_rank(big)


def test_peak_memory_is_order_of_the_ones():
    # Two ones in a 1 x MAX_RANK_BITS row: numbering bits over all columns
    # would build a 1.25 MB bitset, and a table per column tens of MB.
    m = SparseBinaryMatrix.from_rows(1, MAX_RANK_BITS, ((0, MAX_RANK_BITS - 1),))
    tracemalloc.start()
    try:
        assert gf2_rank(m) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def _dense_rank(matrix: SparseBinaryMatrix) -> int:
    """Independent rank oracle: dense elimination on packed uint64 words."""
    words = (matrix.n_cols + 63) // 64
    rows = np.zeros((matrix.n_rows, words), dtype=np.uint64)
    for r, support in enumerate(matrix.row_supports):
        for c in support:
            rows[r, c // 64] |= np.uint64(1) << np.uint64(c % 64)
    rank = 0
    for c in range(matrix.n_cols):
        word, bit = c // 64, np.uint64(1) << np.uint64(c % 64)
        hits = np.flatnonzero(rows[rank:, word] & bit) + rank
        if hits.size == 0:
            continue
        rows[[rank, hits[0]]] = rows[[hits[0], rank]]
        others = np.flatnonzero(rows[:, word] & bit)
        others = others[others != rank]
        rows[others] ^= rows[rank]
        rank += 1
    return rank


@settings(max_examples=120, deadline=None)
@given(code=qc_codes())
def test_qc_rank_matches_dense_elimination(code):
    h = expand(code)
    assert gf2_rank(h) == _dense_rank(h)


@settings(max_examples=60, deadline=None)
@given(code=qc_codes(), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_survives_row_shuffle_and_column_permutation(code, seed):
    h = expand(code)
    rng = random.Random(seed)
    perm = list(range(h.n_cols))
    rng.shuffle(perm)
    rows = [tuple(sorted(perm[c] for c in support)) for support in h.row_supports]
    rng.shuffle(rows)
    assert gf2_rank(SparseBinaryMatrix.from_rows(h.n_rows, h.n_cols, tuple(rows))) == gf2_rank(h)


@settings(max_examples=200, deadline=None)
@given(m=irregular_rows(max_rows=40, max_cols=200).map(
    lambda rows: SparseBinaryMatrix.from_rows(*rows)))
@example(m=SparseBinaryMatrix.from_rows(3, 200, ((), (), ())))
@example(m=SparseBinaryMatrix.from_rows(2, 200, ((0, 199), (0, 199))))
@example(m=SparseBinaryMatrix.from_rows(3, 5, ((4,), (3, 4), (0, 1, 2, 3, 4))))
def test_irregular_rank_matches_dense_elimination(m):
    # non-QC, with empty, repeated and all-empty rows; the pivot key is each
    # bitset's highest bit, over columns numbered downward
    assert gf2_rank(m) == _dense_rank(m)
    reversed_rows = SparseBinaryMatrix.from_rows(m.n_rows, m.n_cols, m.row_supports[::-1])
    assert gf2_rank(reversed_rows) == gf2_rank(m)


@settings(max_examples=150, deadline=None)
@given(rows=irregular_rows(), copies=st.integers(1, 3), gap=st.integers(0, 3))
@example(rows=(2, 3, ((0, 1, 2), (1, 2))), copies=3, gap=1)  # 15 ones, 12 columns
@example(rows=(1, 3, ((0, 2),)), copies=1, gap=3)  # 2 ones, 12 columns
def test_rank_ignores_empty_and_repeated_columns(rows, copies, gap):
    # column c becomes `copies` equal columns and then `gap` empty ones, on
    # both sides of the presence map (n_cols <= nnz) and the sort
    n_rows, n_cols, supports = rows
    stride = copies + gap
    spread = tuple(tuple(c * stride + t for c in s for t in range(copies)) for s in supports)
    m = SparseBinaryMatrix.from_rows(n_rows, n_cols * stride, spread)
    assert gf2_rank(m) == _dense_rank(SparseBinaryMatrix.from_rows(*rows))
