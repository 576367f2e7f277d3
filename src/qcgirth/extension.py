"""Seed-condition checking and girth-12 family extension.

A (3,L) seed that is girth-12 at some circulant size Q, has p1[v] <= p2[v]
column-wise, and whose row-2 value gap (largest minus second largest)
dominates the row-1 maximum, stays girth-12 at every circulant size
P >= 2 * p2_max + 1.  That bound is tight: at P = 2 * p2_max the columns
0 and argmax(row 2) close an 8-cycle between block-rows 0 and 2.

"Second largest" is read over the multiset of row-2 values: a repeated
maximum makes the gap zero, which fails the condition for any nontrivial
row 1.  This is the conservative reading; it keeps the extension guarantee
airtight for every pair of distinct column choices.

Girth questions go through one :class:`CycleSpectrum` of the seed: a (3,L)
matrix with L >= 2 always has 12-cycles (two columns and the three rows, or
three columns and two rows, telescope to a zero sum), so its girth at P is
the shortest length through 10 whose exponent sums P divides, else 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, FamilyVerificationError
from .girth import CycleSpectrum, CycleWitness, find_cycle
from .matrices import ExponentMatrix, QcCode, canonical_check, matrix_to_json

MAX_FAMILY_MEMBERS = 1_000_000  # largest P window one extend_family call builds


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three seed conditions plus the derived bound."""

    cond1_girth12: bool
    cond2_elementwise: bool
    cond3_gap: bool
    p2_max: int
    p2_second: int
    p1_max: int
    min_p: int

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


def _member_girth(spectrum: CycleSpectrum, p: int) -> int:
    """Girth at size *p* of a (3,L) matrix with L >= 2 (see module notes)."""
    return spectrum.shortest_cycle(p) or 12


def check_seed_conditions(
    matrix: ExponentMatrix, q: int, *, spectrum: CycleSpectrum | None = None
) -> ConditionReport:
    """Evaluate the three extension conditions for a seed at size Q.

    Requires a canonical (3,L) matrix with all entries < Q; the guarantee
    this report certifies is specific to column weight three.  Pass the
    seed's *spectrum* to share its table scans with later calls.
    """
    if matrix.rows != 3:
        raise ValueError(
            f"seed conditions apply to (3,L) matrices only, got {matrix.rows} rows"
        )
    report = canonical_check(matrix)
    if not report.passed:
        raise ValueError(f"seed not canonical: {', '.join(report.failures)}")
    if q < 2:
        raise ValueError(f"Q must be >= 2, got {q}")
    if matrix.max_entry >= q:
        raise ValueError(f"entry {matrix.max_entry} is >= Q={q}")

    return _condition_report(matrix, q, spectrum or CycleSpectrum(matrix))


def _condition_report(
    matrix: ExponentMatrix, q: int, spectrum: CycleSpectrum
) -> ConditionReport:
    """The three conditions for a (3,L) matrix at size Q, without validation."""
    p1_max, p2_max, p2_second = _row_extremes(matrix)
    # A single column is acyclic, not girth 12.
    cond1 = matrix.cols >= 2 and spectrum.shortest_cycle(q) is None
    cond2 = all(a <= b for a, b in zip(matrix.entries[1], matrix.entries[2]))
    cond3 = (p2_max - p2_second) >= p1_max
    return ConditionReport(
        cond1_girth12=cond1,
        cond2_elementwise=cond2,
        cond3_gap=cond3,
        p2_max=p2_max,
        p2_second=p2_second,
        p1_max=p1_max,
        min_p=2 * p2_max + 1,
    )


def extend_family(
    matrix: ExponentMatrix,
    q: int,
    p_lo: int,
    p_hi: int,
    verify: bool = True,
    *,
    spectrum: CycleSpectrum | None = None,
) -> list[QcCode]:
    """One code per circulant size in [p_lo, p_hi], all girth 12.

    The seed must pass :func:`check_seed_conditions` at Q and p_lo must be
    at or above the certified bound.  With *verify* every member's girth is
    re-derived from the seed's exponent-sum spectrum (a divisor test per
    member, no table scan); a member that is not girth 12 aborts with its P.
    Pass the seed's *spectrum* to share its table scans with later calls.
    Windows of more than MAX_FAMILY_MEMBERS sizes raise BudgetError before
    any work starts.
    """
    if p_hi - p_lo + 1 > MAX_FAMILY_MEMBERS:
        raise BudgetError(
            f"P window {p_lo}..{p_hi} holds {p_hi - p_lo + 1} members, over the "
            f"cap of {MAX_FAMILY_MEMBERS}"
        )
    spectrum = spectrum or CycleSpectrum(matrix)
    report = check_seed_conditions(matrix, q, spectrum=spectrum)
    if not report.all_pass:
        raise ValueError(
            "seed fails the extension conditions: " + ", ".join(report.failures)
        )
    if p_lo < report.min_p:
        raise ValueError(
            f"P range starts below the certified extension bound: "
            f"{p_lo} < min_P={report.min_p}"
        )
    if p_hi < p_lo:
        raise ValueError(f"empty range: {p_hi} < {p_lo}")

    sizes = range(p_lo, p_hi + 1)
    if verify:
        for p in sizes:
            girth = _member_girth(spectrum, p)
            if girth != 12:
                raise FamilyVerificationError(p, girth)

    return [QcCode(matrix, p) for p in sizes]


def tightness_witness(matrix: ExponentMatrix) -> CycleWitness:
    """The 8-cycle showing the extension bound is tight at P = 2 * p2_max.

    With a unique row-2 maximum at column x != 0, block-rows 0 and 2 and
    columns 0 and x close an 8-cycle whose exponent sum is exactly
    2 * p2_max.  Without a unique off-zero maximum that construction is
    undefined, so the generic length-8 search takes over at the same
    modulus.
    """
    if matrix.rows != 3:
        raise ValueError("tightness witness applies to (3,L) matrices only")
    if not canonical_check(matrix).passed:
        raise ValueError("matrix must be canonical")
    row2 = matrix.entries[2]
    p2_max = max(row2)
    modulus = 2 * p2_max
    if modulus < 2:
        raise ValueError("row 2 is all zero; no tightness modulus exists")
    max_cols = [v for v, e in enumerate(row2) if e == p2_max]
    if len(max_cols) == 1 and max_cols[0] != 0:
        x = max_cols[0]
        return CycleWitness(8, (0, 2, 0, 2), (0, x, 0, x), modulus)
    witness = find_cycle(matrix, modulus, 8)
    if witness is None:
        raise ValueError(
            f"no 8-cycle found at P={modulus}; the direct construction needs a "
            "unique row-2 maximum away from column 0"
        )
    return witness


def family_manifest(
    matrix: ExponentMatrix,
    q: int,
    codes: list[QcCode],
    *,
    label: str | None = None,
    spectrum: CycleSpectrum | None = None,
) -> dict:
    """JSON-ready manifest: seed, Q, bound and one entry per member.

    Each member's girth is computed from the seed's exponent-sum spectrum;
    pass the *spectrum* :func:`extend_family` used to avoid scanning again.
    """
    spectrum = spectrum or CycleSpectrum(matrix)
    p2_max = _row_extremes(matrix)[1]
    return {
        "seed": matrix_to_json(matrix, label),
        "Q": q,
        "min_P": 2 * p2_max + 1,
        "members": [
            {
                "P": code.circulant_size,
                "N": code.block_length,
                "girth": _member_girth(spectrum, code.circulant_size),
            }
            for code in codes
        ],
    }
