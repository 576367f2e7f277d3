"""Exponent matrices for quasi-cyclic codes and their circulant expansion.

An exponent matrix is a J x L grid of non-negative cyclic-shift amounts.
Together with a circulant size P it fully determines a sparse parity-check
matrix: entry p at block (u, v) becomes the P x P permutation matrix with a
one at column (r + p) mod P for each local row r.

Entries may exceed P: a seed matrix found at one circulant size is reused at
many sizes, and :func:`expand` reduces entries mod P.  Every expansion (the
sparse matrix, the decoder's edges, the BFS oracle's Tanner graph) comes from
the arrays of one numpy builder, :func:`qc_layout`.  All values here are
immutable after construction and safe to share across threads; the cached
``layout`` and ``spectrum`` are filled once on first use, and a race only
computes the same value twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BudgetError

# Largest accepted exponent entry and circulant size.  A cycle's exponent
# sum adds at most six differences of entries, so |sum| <= 6 * 2**59 < 2**63
# and every sum is exact in int64.
MAX_VALUE = 2 ** 59
MAX_LAYOUT_EDGES = 5_000_000  # J * L * P edges one qc_layout call lays out


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
        """Numpy integers become ints; the constructor rejects other non-ints."""
        return cls(tuple(tuple(int(e) if isinstance(e, np.integer) else e for e in row)
                         for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)

    @cached_property
    def spectrum(self) -> "CycleSpectrum":
        """The matrix's one :class:`~qcgirth.girth.CycleSpectrum`, built once."""
        from .girth import CycleSpectrum  # girth imports this module

        return CycleSpectrum(self)


@dataclass(frozen=True)
class CanonicalReport:
    """Pass/fail report for the canonical form of an exponent matrix.

    Canonical form: first row all zeros and first column all zeros (every
    :class:`ExponentMatrix` entry is non-negative by construction).
    """

    first_row_zero: bool
    first_col_zero: bool

    @property
    def passed(self) -> bool:
        return self.first_row_zero and self.first_col_zero

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.first_row_zero:
            out.append("first row not zero")
        if not self.first_col_zero:
            out.append("first column not zero")
        return tuple(out)


def canonical_check(matrix: ExponentMatrix) -> CanonicalReport:
    """Report (never raise) whether *matrix* is in canonical form."""
    return CanonicalReport(
        first_row_zero=all(e == 0 for e in matrix.entries[0]),
        first_col_zero=all(row[0] == 0 for row in matrix.entries),
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

    Row-major supports are the primary representation; the fixed-degree
    :attr:`layout` and the column supports are derived from them.
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

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (cols, gather), built once per instance.

        ``cols[k, r]`` (dc x M) is the column of row r's k-th one, n_cols past
        a short row's end; ``gather[k, c]`` (dv x N) is the flat index into
        ``cols`` of column c's k-th one, rows ascending, cols.size past a
        short column's end.
        """
        m, n = self.n_rows, self.n_cols
        padded = zip_longest(*self.row_supports, fillvalue=n)
        cols = np.array(list(padded), dtype=np.int64).reshape(-1, m)
        by_col = np.argsort((cols * m + np.arange(m)).ravel())
        col_deg = np.bincount(cols.ravel(), minlength=n + 1)[:n]
        slots = by_col[: int(col_deg.sum())]
        col = cols.ravel()[slots]
        gather = np.full((int(col_deg.max(initial=0)), n), cols.size, dtype=np.int64)
        gather[np.arange(slots.size) - (np.cumsum(col_deg) - col_deg)[col], col] = slots
        cols.flags.writeable = gather.flags.writeable = False
        return cols, gather

    def column_supports(self) -> list[list[int]]:
        """Per-column sorted row supports (computed, not stored)."""
        cols: list[list[int]] = [[] for _ in range(self.n_cols)]
        for r, support in enumerate(self.row_supports):
            for c in support:
                cols[c].append(r)
        return cols


def qc_layout(code: QcCode) -> tuple[np.ndarray, np.ndarray]:
    """The expansion's (cols, gather) layout, straight from the exponents.

    Check u*P + r meets column v*P + (r + E[u][v]) mod P: ``cols`` is L x M
    and ``gather`` J x N, as :attr:`SparseBinaryMatrix.layout` lays them out.
    Raises BudgetError, before allocating anything, for codes with more than
    MAX_LAYOUT_EDGES edges.
    """
    p, j, l = code.circulant_size, code.exponents.rows, code.exponents.cols
    if j * l * p > MAX_LAYOUT_EDGES:
        raise BudgetError(
            f"code has {j * l * p} edges, over the layout budget of {MAX_LAYOUT_EDGES}"
        )
    s = np.array([[e % p for e in row] for row in code.exponents.entries], dtype=np.int64)
    local, block = np.arange(p), np.arange(l)[:, None, None]
    cols = local + s.T[:, :, None]
    cols %= p  # in place: no second (L, J, P) temporary
    cols += block * p
    gather = local - s[:, :, None]
    gather %= p
    gather += np.arange(j)[:, None, None] * p + block.reshape(1, l, 1) * (j * p)
    return cols.reshape(l, j * p), gather.reshape(j, l * p)


def expand(code: QcCode) -> SparseBinaryMatrix:
    """Expand a QC code into its sparse parity-check matrix.

    The block at block-row u, block-col v is the circulant permutation with
    a one at column (r + p[u][v]) mod P for each local row r; exponents are
    reduced mod P before placement.  Deterministic: repeated calls yield
    identical supports, whose entries are Python ints.
    """
    rows = zip(*qc_layout(code)[0].tolist())  # cols.T; the arrays are freed here
    return SparseBinaryMatrix(code.parity_rows, code.block_length, tuple(rows))


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

    Rejects missing keys and shape mismatches; :class:`ExponentMatrix`
    rejects entries that are not non-negative integers up to MAX_VALUE.
    """
    if not isinstance(obj, dict):
        raise ValueError("exponent matrix JSON must be an object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in (rows, cols)):
        raise ValueError("rows and cols must be positive integers")
    if "label" in obj and not isinstance(obj["label"], str):
        raise ValueError("label must be a string")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError("entries must be a list with exactly `rows` rows")
    if not all(isinstance(row, list) and len(row) == cols for row in entries):
        raise ValueError("ragged entries row")
    return ExponentMatrix.from_rows(entries)


def load_matrix(path: str | Path) -> ExponentMatrix:
    """Read an exponent matrix from a JSON file."""
    return matrix_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def save_matrix(path: str | Path, matrix: ExponentMatrix, label: str | None = None) -> None:
    """Write an exponent matrix to a JSON file."""
    Path(path).write_text(
        json.dumps(matrix_to_json(matrix, label), indent=2) + "\n", encoding="utf-8"
    )
