"""GF(2) rank via Gaussian elimination on int bitsets."""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .matrices import SparseBinaryMatrix

MAX_RANK_BITS = 10_000_000


def gf2_rank(matrix: SparseBinaryMatrix) -> int:
    """Rank of *matrix* over GF(2); code dimension is k = n_cols - rank.

    Rows are Python int bitsets reduced against a pivot table indexed by the
    highest set bit, which ``int.bit_length`` reads in O(1).  Only the d
    distinct columns get bits, numbered downward from d - 1 in the order a
    row-major sweep first meets them (a column permutation keeps the rank),
    so the table is a list of d + 1 slots and every allocation is O(nnz).
    A presence map finds the distinct columns when there are no more columns
    than ones, as in a QC expansion; a sort of the ones does otherwise.
    A canonical QC expansion starts [I I ... I], so the bitsets stay banded:
    on the shipped (3,6) seed the row XORs drop from 131,138 to 8,820 at
    P = 449 and from 364,806 to 10,596 at P = 745.  Random non-canonical
    (3,6) matrices at P = 503 take 0.6-1.6x the XORs of the natural order.
    Refuses inputs whose dense size n_rows * n_cols exceeds MAX_RANK_BITS.
    """
    total_bits = matrix.n_rows * matrix.n_cols
    if total_bits > MAX_RANK_BITS:
        raise BudgetError(
            f"rank computation refused: {total_bits} bits exceeds the "
            f"{MAX_RANK_BITS}-bit budget"
        )
    if matrix.n_cols <= matrix.indices.size:  # ids in ascending column order, as from the sort
        present = np.bincount(matrix.indices, minlength=matrix.n_cols) > 0
        column = np.cumsum(present)[matrix.indices] - 1
    else:
        column = np.unique(matrix.indices, return_inverse=True)[1]
    d, nnz = int(column.max(initial=-1)) + 1, column.size
    first = np.empty(d, np.int64)
    first[column[::-1]] = np.arange(nnz - 1, -1, -1)  # the last write, the first meet, stays
    met = np.zeros(nnz, bool)
    met[first] = True
    bit = np.empty(d, np.int64)
    bit[column[met]] = np.arange(d - 1, -1, -1)
    bits, bounds = bit[column].tolist(), matrix.indptr.tolist()
    pivots = [0] * (d + 1)
    for a, b in zip(bounds, bounds[1:]):
        acc = 0
        for c in bits[a:b]:
            acc |= 1 << c
        while acc:
            top = acc.bit_length()
            pivot = pivots[top]
            if not pivot:
                pivots[top] = acc
                break
            acc ^= pivot
    return len(pivots) - pivots.count(0)
