"""Exponent matrices for quasi-cyclic codes and their circulant expansion.

An exponent matrix is a J x L grid of non-negative cyclic-shift amounts.
Together with a circulant size P it fully determines a sparse parity-check
matrix: entry p at block (u, v) becomes the P x P permutation matrix with a
one at column (r + p) mod P for each local row r.

Entries may exceed P: a seed matrix found at one circulant size is reused at
many sizes, and :func:`expand` reduces entries mod P.  Every expansion (the
sparse matrix, the decoder's edges, the BFS oracle's Tanner graph) comes from
the arrays of one numpy builder, :func:`qc_layout`, and a sparse matrix
keeps them as two flat index arrays, with no Python object per entry.  All
values here are immutable after construction and safe to share across
threads; the cached ``layout``, ``row_supports`` and ``spectrum`` are
filled once on first use, and a race only computes the same value twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BudgetError

# Largest accepted exponent entry and circulant size.  A cycle's exponent
# sum adds at most six differences of entries, so |sum| <= 6 * 2**59 < 2**63
# and every sum is exact in int64.
MAX_VALUE = 2 ** 59
MAX_LAYOUT_EDGES = 5_000_000  # J * L * P edges one qc_layout call lays out


def check_ints(**values) -> None:
    """Refuse a count, seed or bound that is not a Python int, or is a bool, by its name."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_size(value, name: str) -> None:
    """The one rule for a P, modulus, Q or q_cap: a Python int (no bool) in [2, MAX_VALUE]."""
    if not isinstance(value, int) or isinstance(value, bool) or not 2 <= value <= MAX_VALUE:
        raise ValueError(f"{name} must be an integer in [2, {MAX_VALUE}], got {value!r}")


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
        check_size(self.circulant_size, "circulant size")

    @property
    def block_length(self) -> int:
        """Code length N = L * P."""
        return self.exponents.cols * self.circulant_size

    @property
    def parity_rows(self) -> int:
        """Number of parity-check rows M = J * P."""
        return self.exponents.rows * self.circulant_size


@dataclass(frozen=True, eq=False)
class SparseBinaryMatrix:
    """Binary matrix as compressed sparse rows: row r's ones sit at columns
    ``indices[indptr[r]:indptr[r + 1]]``, strictly ascending.  Both are kept
    as read-only int64 copies and checked as whole arrays; only a failed
    check walks the rows, to name the first bad index.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        indptr, indices = (np.asarray(a).astype(np.int64, casting="same_kind")  # no floats
                           for a in (self.indptr, self.indices))
        indptr.flags.writeable = indices.flags.writeable = False
        self.__dict__.update(indptr=indptr, indices=indices)  # frozen: bypass __setattr__
        if (indptr.ndim != 1 or indices.ndim != 1 or not indptr.size or indptr[0] != 0
                or indptr[-1] != indices.size or (np.diff(indptr) < 0).any()):
            raise ValueError("indptr must rise from 0 to len(indices) in flat arrays")
        rising = np.diff(indices) > 0
        rising[indptr[(indptr > 0) & (indptr < indices.size)] - 1] = True  # rows' first ones
        fits = not indices.size or (indices.min() >= 0 and indices.max() < self.n_cols)
        shaped = min(self.n_rows, self.n_cols) >= 1 and indptr.size == self.n_rows + 1
        if not (shaped and fits and rising.all()):
            _check_rows(self.n_rows, self.n_cols, self.row_supports)
            raise AssertionError("SparseBinaryMatrix: array check and row walk disagree")

    @classmethod
    def from_rows(cls, n_rows: int, n_cols: int, row_supports) -> "SparseBinaryMatrix":
        """From one sequence of strictly ascending Python int column indices per row."""
        _check_rows(n_rows, n_cols, row_supports)
        indptr = np.cumsum([0, *map(len, row_supports)])
        indices = np.array([c for s in row_supports for c in s], dtype=np.int64)
        return cls(n_rows, n_cols, indptr, indices)

    def _key(self) -> tuple:
        return self.n_rows, self.n_cols, self.indptr.tobytes(), self.indices.tobytes()

    def __eq__(self, other):
        return isinstance(other, SparseBinaryMatrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        """Per-row column tuples of Python ints, built on first read."""
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (cols, gather), built once per instance.

        ``cols[k, r]`` (dc x M) is the column of row r's k-th one, n_cols past
        a short row's end; ``gather[k, c]`` (dv x N) is the flat index into
        ``cols`` of column c's k-th one, rows ascending, cols.size past a
        short column's end.
        """
        m, n = self.n_rows, self.n_cols
        row_deg = np.diff(self.indptr)
        row = np.repeat(np.arange(m), row_deg)
        cols = np.full((int(row_deg.max()), m), n, dtype=np.int64)
        cols[np.arange(row.size) - self.indptr[row], row] = self.indices
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


def _check_rows(n_rows: int, n_cols: int, row_supports) -> None:
    """Raise the error of the first check, in row-major order, that the rows fail."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix must have at least one row and one column")
    if len(row_supports) != n_rows:
        raise ValueError("row_supports length does not match n_rows")
    for support in row_supports:
        prev = -1
        for c in support:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"column index must be an integer, got {c!r}")
            if c <= prev:
                raise ValueError("column indices must be strictly increasing")
            if c >= n_cols:
                raise ValueError(f"column index {c} out of range")
            prev = c


def check_layout(code: QcCode) -> None:
    """Raise BudgetError for a code with more than MAX_LAYOUT_EDGES edges."""
    edges = code.parity_rows * code.exponents.cols
    if edges > MAX_LAYOUT_EDGES:
        raise BudgetError(f"code has {edges} edges, over the layout budget of {MAX_LAYOUT_EDGES}")


def qc_layout(code: QcCode) -> tuple[np.ndarray, np.ndarray]:
    """The expansion's (cols, gather) layout, straight from the exponents.

    Check u*P + r meets column v*P + (r + E[u][v]) mod P: ``cols`` is L x M
    and ``gather`` J x N, as :attr:`SparseBinaryMatrix.layout` lays them out.
    Raises BudgetError (:func:`check_layout`) before allocating anything.
    """
    check_layout(code)
    p, j, l = code.circulant_size, code.exponents.rows, code.exponents.cols
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
    equal matrices.  Row u*P + r is column r of :func:`qc_layout`'s ``cols``.
    """
    cols = qc_layout(code)[0]
    indptr = np.arange(0, cols.size + 1, cols.shape[0])
    return SparseBinaryMatrix(code.parity_rows, code.block_length, indptr, cols.T.ravel())


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
    """Read an exponent matrix from a JSON file; ValueError if it is malformed."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_json(obj)


def save_matrix(path: str | Path, matrix: ExponentMatrix, label: str | None = None) -> None:
    """Write an exponent matrix to a JSON file."""
    Path(path).write_text(
        json.dumps(matrix_to_json(matrix, label), indent=2) + "\n", encoding="utf-8"
    )
