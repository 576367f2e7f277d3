"""Reader/writer for the alist sparse-matrix interchange format.

Layout (positions are 1-indexed, lines newline-terminated, single spaces):

    N M                      columns then rows
    max_col_weight max_row_weight
    N column weights
    M row weights
    N lines: row positions of each column, zero-padded to max_col_weight
    M lines: column positions of each row, zero-padded to max_row_weight

The reader splits each line on whitespace and reads every token with
Python ``int``.  It accepts zero padding and unsorted positions; it rejects
duplicate and out-of-range positions, a line whose nonzero count differs
from its declared weight, and column lists that disagree with the row
lists.  Each support block is checked as whole arrays; only when a check
fails are its lines walked in file order, to report the first bad one.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .matrices import QcCode, SparseBinaryMatrix, qc_layout


def export_alist(matrix: SparseBinaryMatrix | QcCode) -> str:
    """Serialize to alist text; empty rows/columns pad with zeros.

    A :class:`QcCode` is written straight from :func:`qc_layout`, with no
    row tuples in between.
    """
    if isinstance(matrix, QcCode):
        (cols, gather), m, n = qc_layout(matrix), matrix.parity_rows, matrix.block_length
    else:
        (cols, gather), m, n = matrix.layout, matrix.n_rows, matrix.n_cols
    row_lists = np.where(cols < n, cols + 1, 0).T
    col_lists = np.where(gather < cols.size, gather % m + 1, 0).T
    weights = [np.count_nonzero(a, axis=1)[None] for a in (col_lists, row_lists)]
    blocks = map(_lines, weights + [col_lists, row_lists])
    return f"{n} {m}\n{col_lists.shape[1]} {row_lists.shape[1]}\n" + "".join(blocks)


def _lines(a: np.ndarray) -> str:
    """One line per row of *a*, its entries separated by single spaces."""
    line = " ".join(["%d"] * a.shape[1]) + "\n"
    return (line * a.shape[0]) % tuple(a.ravel().tolist())


def _int_fields(line: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as e:
        raise ValueError(f"alist: non-integer token in {what}: {line!r}") from e


def import_alist(text: str) -> SparseBinaryMatrix:
    """Parse alist text back into a SparseBinaryMatrix, by the rules above."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("alist: fewer than 4 header lines")
    n, m = _parse_pair(lines[0], "size line")
    max_col, max_row = _parse_pair(lines[1], "weight line")
    if n < 1 or m < 1:
        raise ValueError("alist: matrix dimensions must be positive")
    col_weights = _int_fields(lines[2], "column weights")
    row_weights = _int_fields(lines[3], "row weights")
    if len(col_weights) != n or len(row_weights) != m:
        raise ValueError("alist: weight list length mismatch")
    if col_weights and max(col_weights) > max_col:
        raise ValueError("alist: column weight exceeds declared maximum")
    if row_weights and max(row_weights) > max_row:
        raise ValueError("alist: row weight exceeds declared maximum")
    if len(lines) < 4 + n + m:
        raise ValueError("alist: truncated support lists")

    col_of, row_in_col = _support_block(lines[4 : 4 + n], col_weights, m, "column")
    row_of, col_in_row = _support_block(lines[4 + n : 4 + n + m], row_weights, n, "row")
    matrix = SparseBinaryMatrix(m, n, np.cumsum([0, *row_weights]), col_in_row)
    if not np.array_equal(np.sort(row_in_col * n + col_of), row_of * n + col_in_row):
        raise ValueError("alist: column lists disagree with row lists")
    return matrix


def _parse_pair(line: str, what: str) -> tuple[int, int]:
    fields = _int_fields(line, what)
    if len(fields) != 2:
        raise ValueError(f"alist: expected two integers in {what}: {line!r}")
    return fields[0], fields[1]


def _support_block(lines: list[str], weights: list[int], bound: int, what: str):
    """(line, zero-based position) arrays of a block, sorted by line then position."""
    tokens = [line.split() for line in lines]
    try:
        values = np.array(list(chain.from_iterable(tokens)), dtype=np.int64)  # int() of each str
    except (ValueError, OverflowError):  # a non-integer token, or a value past int64
        values = None
    if values is not None:
        at = np.repeat(np.arange(len(lines)), list(map(len, tokens)))[values != 0]
        pos = values[values != 0]
        order = np.lexsort((pos, at))
        at, pos = at[order], pos[order]
        repeated = (at[1:] == at[:-1]) & (pos[1:] == pos[:-1])
        counted = np.array_equal(np.bincount(at, minlength=len(lines)), weights)
        if counted and (pos > 0).all() and (pos <= bound).all() and not repeated.any():
            return at, pos - 1
    for i, line in enumerate(lines):
        _parse_support(line, weights[i], bound, f"{what} {i + 1}")
    raise AssertionError(f"alist: {what} block check and line check disagree")


def _parse_support(line: str, weight: int, bound: int, what: str) -> None:
    """Raise the error of the first check that one support line fails, if any."""
    fields = _int_fields(line, what)
    positions = [f for f in fields if f != 0]
    if len(positions) != weight:
        raise ValueError(
            f"alist: {what} lists {len(positions)} positions, expected {weight}"
        )
    if any(f < 0 for f in fields):
        raise ValueError(f"alist: negative position in {what}")
    seen = set()
    for f in positions:
        if f > bound:
            raise ValueError(f"alist: position {f} out of range in {what}")
        if f in seen:
            raise ValueError(f"alist: duplicate position {f} in {what}")
        seen.add(f)
