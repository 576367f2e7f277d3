"""Exponent matrices for quasi-cyclic codes and their circulant expansion.

An exponent matrix is a J x L grid of non-negative cyclic-shift amounts.
Together with a circulant size P it fully determines a sparse parity-check
matrix: entry p at block (u, v) becomes the P x P permutation matrix with a
one at column (r + p) mod P for each local row r.

Entries may exceed P: a seed matrix found at one circulant size is reused at
many sizes, and :func:`expand` reduces entries mod P.  All values here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

# Largest accepted exponent entry and circulant size.  A cycle's exponent
# sum adds at most six differences of entries, so |sum| <= 6 * 2**59 < 2**63
# and every sum is exact in int64.
MAX_VALUE = 2 ** 59


@dataclass(frozen=True)
class ExponentMatrix:
    """J x L grid of non-negative circulant shift exponents."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("exponent matrix needs at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged exponent matrix")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"exponent entries must be integers, got {e!r}")
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                if e > MAX_VALUE:
                    raise ValueError(f"exponent {e} exceeds the limit of {MAX_VALUE}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "ExponentMatrix":
        return cls(tuple(tuple(int(e) for e in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)


@dataclass(frozen=True)
class CanonicalReport:
    """Pass/fail report for the canonical form of an exponent matrix.

    Canonical form: first row all zeros, first column all zeros, every
    entry non-negative.
    """

    first_row_zero: bool
    first_col_zero: bool
    entries_nonnegative: bool

    @property
    def passed(self) -> bool:
        return self.first_row_zero and self.first_col_zero and self.entries_nonnegative

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.first_row_zero:
            out.append("first row not zero")
        if not self.first_col_zero:
            out.append("first column not zero")
        if not self.entries_nonnegative:
            out.append("negative entries")
        return tuple(out)


def canonical_check(matrix: ExponentMatrix) -> CanonicalReport:
    """Report (never raise) whether *matrix* is in canonical form."""
    return CanonicalReport(
        first_row_zero=all(e == 0 for e in matrix.entries[0]),
        first_col_zero=all(row[0] == 0 for row in matrix.entries),
        entries_nonnegative=all(e >= 0 for row in matrix.entries for e in row),
    )


@dataclass(frozen=True)
class QcCode:
    """An exponent matrix paired with a circulant size P >= 2."""

    exponents: ExponentMatrix
    circulant_size: int

    def __post_init__(self):
        p = self.circulant_size
        if not isinstance(p, int) or isinstance(p, bool) or not 2 <= p <= MAX_VALUE:
            raise ValueError(
                f"circulant size must be an integer in [2, {MAX_VALUE}], got {p!r}"
            )

    @property
    def block_length(self) -> int:
        """Code length N = L * P."""
        return self.exponents.cols * self.circulant_size

    @property
    def parity_rows(self) -> int:
        """Number of parity-check rows M = J * P."""
        return self.exponents.rows * self.circulant_size


@dataclass(frozen=True)
class SparseBinaryMatrix:
    """Binary matrix stored as per-row sorted column supports.

    Row-major supports are the primary representation (the decoder and the
    rank computation both iterate rows); column supports are derived on
    demand.
    """

    n_rows: int
    n_cols: int
    row_supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        if len(self.row_supports) != self.n_rows:
            raise ValueError("row_supports length does not match n_rows")
        for support in self.row_supports:
            prev = -1
            for c in support:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"column index must be an integer, got {c!r}")
                if c <= prev:
                    raise ValueError("column indices must be strictly increasing")
                if c >= self.n_cols:
                    raise ValueError(f"column index {c} out of range")
                prev = c

    @property
    def ones_count(self) -> int:
        return sum(len(s) for s in self.row_supports)

    def column_supports(self) -> list[list[int]]:
        """Per-column sorted row supports (computed, not stored)."""
        cols: list[list[int]] = [[] for _ in range(self.n_cols)]
        for r, support in enumerate(self.row_supports):
            for c in support:
                cols[c].append(r)
        return cols


def expand(code: QcCode) -> SparseBinaryMatrix:
    """Expand a QC code into its sparse parity-check matrix.

    The block at block-row u, block-col v is the circulant permutation with
    a one at column (r + p[u][v]) mod P for each local row r; exponents are
    reduced mod P before placement.  Deterministic: repeated calls yield
    identical supports.
    """
    m = code.exponents
    p = code.circulant_size
    shifts = [[e % p for e in row] for row in m.entries]
    supports: list[tuple[int, ...]] = []
    for u in range(m.rows):
        row_shifts = shifts[u]
        for r in range(p):
            supports.append(
                tuple(v * p + (r + row_shifts[v]) % p for v in range(m.cols))
            )
    return SparseBinaryMatrix(m.rows * p, m.cols * p, tuple(supports))


def matrix_to_json(matrix: ExponentMatrix, label: str | None = None) -> dict:
    """JSON-ready dict: {"rows", "cols", "entries"} plus optional "label"."""
    obj: dict = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [list(row) for row in matrix.entries],
    }
    if label is not None:
        obj["label"] = label
    return obj


def matrix_from_json(obj) -> ExponentMatrix:
    """Parse and validate the exponent-matrix JSON object format.

    Rejects missing keys, shape mismatches, ragged rows and negatives.
    """
    if not isinstance(obj, dict):
        raise ValueError("exponent matrix JSON must be an object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive integers")
    if "label" in obj and not isinstance(obj["label"], str):
        raise ValueError("label must be a string")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError("entries must be a list with exactly `rows` rows")
    grid: list[list[int]] = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError("ragged entries row")
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"entries must be non-negative integers, got {e!r}")
        grid.append(row)
    return ExponentMatrix.from_rows(grid)


def load_matrix(path: str | Path) -> ExponentMatrix:
    """Read an exponent matrix from a JSON file."""
    return matrix_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def save_matrix(path: str | Path, matrix: ExponentMatrix, label: str | None = None) -> None:
    """Write an exponent matrix to a JSON file."""
    Path(path).write_text(
        json.dumps(matrix_to_json(matrix, label), indent=2) + "\n", encoding="utf-8"
    )
