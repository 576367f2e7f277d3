"""GF(2) rank via Gaussian elimination on int bitsets."""

from __future__ import annotations

from .errors import BudgetError
from .matrices import SparseBinaryMatrix

MAX_RANK_BITS = 10_000_000


def gf2_rank(matrix: SparseBinaryMatrix) -> int:
    """Rank of *matrix* over GF(2); code dimension is k = n_cols - rank.

    Rows are Python int bitsets reduced against a pivot table keyed by the
    lowest set bit.  Refuses inputs whose dense size n_rows * n_cols exceeds
    MAX_RANK_BITS (desk-scale bound, predictable memory).
    """
    total_bits = matrix.n_rows * matrix.n_cols
    if total_bits > MAX_RANK_BITS:
        raise BudgetError(
            f"rank computation refused: {total_bits} bits exceeds the "
            f"{MAX_RANK_BITS}-bit budget"
        )
    pivots: dict[int, int] = {}
    rank = 0
    for support in matrix.row_supports:
        acc = 0
        for c in support:
            acc |= 1 << c
        while acc:
            low = (acc & -acc).bit_length() - 1
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = acc
                rank += 1
                break
            acc ^= pivot
    return rank
