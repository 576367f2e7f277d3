"""Seed-condition checking and girth-12 family extension.

The paper's conditions on a canonical (3,L) seed are girth 12 at some size
Q, p1[v] <= p2[v] column-wise, and a row-2 gap (largest minus second largest)
of at least the row-1 maximum; it claims girth 12 at every P >= 2·p2_max + 1.
That formula appears to rest on an implicit hypothesis, the row-1 maximum in
the row-2 argmax column: [[0,0,0],[0,8,9],[0,39,25]] passes all three at
Q = 43, yet a 10-cycle closes at P = 79.  So min_P is the exact bound
:meth:`CycleSpectrum.bound`, max|S| + 1 over the exponent sums S (P divides
a nonzero S only if P <= |S|); under that hypothesis it equals the formula.
:class:`QcFamily` states the family rule once: it refuses a size below min_P.

"Second largest" is read over the multiset of row-2 values: a repeated
maximum makes the gap zero, which fails the condition for any nontrivial
row 1 (the conservative reading).

Girth questions go to :func:`girth_fast`, which states the girth-12 rule
(see :mod:`qcgirth.girth`) and reads the seed's one spectrum,
:attr:`ExponentMatrix.spectrum`, scanning each cycle table at most once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .girth import CycleWitness, girth_fast
from .matrices import (MAX_VALUE, ExponentMatrix, QcCode, canonical_check, check_ints,
                       check_size, matrix_to_json)

MAX_FAMILY_MEMBERS = 1_000_000  # largest P window one extend_family call accepts


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three seed conditions plus the seed's family bound."""

    cond1_girth12: bool
    cond2_elementwise: bool
    cond3_gap: bool
    p2_max: int
    p2_second: int
    p1_max: int
    min_p: int | None  # CycleSpectrum.bound() of the seed; None when no P is girth 12

    @property
    def failures(self) -> tuple[str, ...]:
        """Names of the failed conditions, in condition order."""
        return tuple(
            name
            for name, ok in (
                ("girth-12 at Q", self.cond1_girth12),
                ("element-wise row order", self.cond2_elementwise),
                ("row-2 gap", self.cond3_gap),
            )
            if not ok
        )

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "cond1_girth12": self.cond1_girth12,
            "cond2_elementwise": self.cond2_elementwise,
            "cond3_gap": self.cond3_gap,
            "p2_max": self.p2_max,
            "p2_second": self.p2_second,
            "p1_max": self.p1_max,
            "min_P": self.min_p,
        }


def _row_extremes(matrix: ExponentMatrix) -> tuple[int, int, int]:
    """(p1_max, p2_max, p2_second); second largest over the multiset."""
    row1, row2 = matrix.entries[1], matrix.entries[2]
    ordered = sorted(row2, reverse=True)
    p2_second = ordered[1] if len(ordered) >= 2 else ordered[0]
    return max(row1), ordered[0], p2_second


def _check_seed(matrix: ExponentMatrix) -> None:
    """Raise ValueError unless *matrix* is a canonical (3,L) seed."""
    if matrix.rows != 3:
        raise ValueError(f"seed conditions apply to (3,L) matrices only, got {matrix.rows} rows")
    report = canonical_check(matrix)
    if not report.passed:
        raise ValueError(f"seed not canonical: {', '.join(report.failures)}")


def _min_p(seed: ExponentMatrix) -> int:
    """The seed's bound min_P, :meth:`CycleSpectrum.bound`; ValueError when it has none."""
    min_p = seed.spectrum.bound()
    if min_p is None:
        raise ValueError("no min_P: no P0 makes every P >= P0 girth 12 (the shape lacks "
                         "12-cycles at some P, or an exponent sum is zero)")
    return min_p


def check_seed_conditions(matrix: ExponentMatrix, q: int) -> ConditionReport:
    """Evaluate the three extension conditions for a seed at size Q, and its min_P.

    Requires a canonical (3,L) matrix (the guarantee is specific to column
    weight three), a Q that passes :func:`check_size`, and all entries < Q.
    """
    _check_seed(matrix)
    check_size(q, "Q")
    if matrix.max_entry >= q:
        raise ValueError(f"entry {matrix.max_entry} is >= Q={q}")

    p1_max, p2_max, p2_second = _row_extremes(matrix)
    cond1 = girth_fast(matrix, q).girth == 12
    cond2 = all(a <= b for a, b in zip(matrix.entries[1], matrix.entries[2]))
    cond3 = (p2_max - p2_second) >= p1_max
    return ConditionReport(
        cond1_girth12=cond1,
        cond2_elementwise=cond2,
        cond3_gap=cond3,
        p2_max=p2_max,
        p2_second=p2_second,
        p1_max=p1_max,
        min_p=matrix.spectrum.bound(),
    )


@dataclass(frozen=True)
class QcFamily(Sequence[QcCode]):
    """The girth-12 members of one seed's family, one per size in *sizes*.

    A seed with no bound min_P, or a size below it, raises ValueError.  A
    member is built only when it is read, a slice is the family over the
    sliced range, and ``in``, :meth:`index` and :meth:`count` read *sizes* alone.
    """

    seed: ExponentMatrix
    sizes: range

    def __post_init__(self):
        if not isinstance(self.sizes, range):
            raise TypeError(f"family sizes must be a range, got {type(self.sizes).__name__}")
        up = self.sizes if self.sizes.step > 0 else self.sizes[::-1]
        if not up:
            return
        min_p = _min_p(self.seed)
        if up[0] < min_p:
            raise ValueError("P range starts below the certified extension bound: "
                             f"{up[0]} < min_P={min_p}")
        if up[-1] > MAX_VALUE:  # raises for the first size past it
            check_size(up[max(0, (MAX_VALUE - up[0]) // up.step + 1)], "circulant size")

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return QcFamily(self.seed, self.sizes[index])
        return QcCode(self.seed, self.sizes[index])

    def __contains__(self, code) -> bool:
        return (isinstance(code, QcCode) and code.exponents == self.seed
                and code.circulant_size in self.sizes)

    def index(self, code, start: int = 0, stop: int | None = None) -> int:
        """The position of *code*, searched in ``[start:stop]`` as ``list.index`` does."""
        if code in self[start:stop]:
            return self.sizes.index(code.circulant_size)
        raise ValueError(f"{code!r} is not in the family")

    def count(self, code) -> int:
        """1 if *code* is a member, else 0: the sizes of a range are distinct."""
        return int(code in self)


def extend_family(matrix: ExponentMatrix, q: int, p_lo: int, p_hi: int) -> QcFamily:
    """The family of one code per circulant size in [p_lo, p_hi], all girth 12.

    The seed must pass :func:`check_seed_conditions` at Q, and the window
    must be non-empty; :class:`QcFamily` refuses a p_lo below min_P and a
    window past MAX_VALUE.  Windows of more than MAX_FAMILY_MEMBERS sizes
    raise BudgetError before any work starts, and a p_lo or p_hi that is not
    a Python int (or is a bool) raises ValueError before any other check.  No
    member is built here.
    """
    check_ints(p_lo=p_lo, p_hi=p_hi)
    if p_hi - p_lo + 1 > MAX_FAMILY_MEMBERS:
        raise BudgetError(f"P window {p_lo}..{p_hi} holds {p_hi - p_lo + 1} members, "
                          f"over the cap of {MAX_FAMILY_MEMBERS}")
    report = check_seed_conditions(matrix, q)
    if not report.all_pass:
        raise ValueError("seed fails the extension conditions: " + ", ".join(report.failures))
    if p_hi < p_lo:
        raise ValueError(f"empty range: {p_hi} < {p_lo}")
    return QcFamily(matrix, range(p_lo, p_hi + 1))


def tightness_witness(matrix: ExponentMatrix) -> CycleWitness:
    """The shortest cycle at P = min_P - 1, showing the family bound is tight.

    At P = max|S| the largest exponent-sum magnitude is a multiple of P, so
    :func:`girth_fast` finds a cycle of length at most 10 there.  A seed that
    is not canonical (3,L), or has no bound, raises the ValueError that
    :func:`check_seed_conditions` or :class:`QcFamily` would.
    """
    _check_seed(matrix)
    return girth_fast(matrix, _min_p(matrix) - 1).witness


def family_columns(family: QcFamily) -> np.ndarray:
    """The (P, N, girth) rows of *family*'s members, in the order of its sizes.

    :class:`QcFamily` certifies every member girth 12, so no size is tested.
    N is L·P, exact in int64 because the cycle tables stop at L = 12.
    """
    sizes = family.sizes
    ps = np.arange(sizes.start, sizes.stop, sizes.step, dtype=np.int64)
    return np.column_stack([ps, family.seed.cols * ps, np.full(ps.size, 12, dtype=np.int64)])


def family_manifest(family: QcFamily, q: int) -> dict:
    """JSON-ready manifest: seed, Q, bound and one :func:`family_columns` entry per member."""
    return {
        "seed": matrix_to_json(family.seed),
        "Q": q,
        "min_P": family.seed.spectrum.bound(),
        "members": [{"P": p, "N": n, "girth": girth}
                    for p, n, girth in family_columns(family).tolist()],
    }
