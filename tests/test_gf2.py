from __future__ import annotations

import random

import pytest

from qcgirth import BudgetError, QcCode, SparseBinaryMatrix, expand, gf2_rank
from qcgirth.gf2 import MAX_RANK_BITS

from conftest import random_canonical_matrix


def _identity(n: int) -> SparseBinaryMatrix:
    return SparseBinaryMatrix(n, n, tuple((i,) for i in range(n)))


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
    base = SparseBinaryMatrix(2, 4, ((0, 1), (1, 2)))
    doubled = SparseBinaryMatrix(3, 4, ((0, 1), (1, 2), (1, 2)))
    assert gf2_rank(base) == gf2_rank(doubled) == 2


def test_empty_rows_contribute_nothing():
    m = SparseBinaryMatrix(3, 4, ((0, 1), (), ()))
    assert gf2_rank(m) == 1


def test_matches_span_oracle_on_random_matrices():
    rng = random.Random(99)
    for _ in range(50):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 10)
        supports = tuple(
            tuple(sorted(rng.sample(range(n_cols), rng.randint(0, n_cols))))
            for _ in range(n_rows)
        )
        m = SparseBinaryMatrix(n_rows, n_cols, supports)
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
    at_budget = SparseBinaryMatrix(1, MAX_RANK_BITS, ((),))
    assert gf2_rank(at_budget) == 0
    big = SparseBinaryMatrix(1, MAX_RANK_BITS + 1, ((),))
    with pytest.raises(BudgetError, match="budget"):
        gf2_rank(big)
