"""Reader/writer for the alist sparse-matrix interchange format.

Layout (positions are 1-indexed, lines newline-terminated, single spaces):

    N M                      columns then rows
    max_col_weight max_row_weight
    N column weights
    M row weights
    N lines: row positions of each column, zero-padded to max_col_weight
    M lines: column positions of each row, zero-padded to max_row_weight

The writer lays each block out from the fixed-degree layout arrays, one
whole-array pass per digit place.  The reader has one tokenizer, a numpy pass
over text of ASCII digits, spaces and newlines alone, no token over 18 digits:
line ends and token starts from the bytes, values from ``np.fromstring``.  Text
with other whitespace (CRLF, tabs, form feeds, runs of spaces) is respaced line
by line, at ``str.splitlines``' line ends, and read by the same pass.  The
header, weight lines and support blocks are slices of the token array, checked
as whole arrays.  It accepts zero padding and unsorted positions; it rejects
duplicate and out-of-range positions, a line whose nonzero count differs from
its declared weight, and column lists that disagree with the row lists.  Any
text the pass or the array checks refuse is read line by line, each token with
Python ``int``, whose spellings it accepts (``+3``, ``٣``, long zero-padded
tokens): that walk raises the first error in file order, or returns the same
positions as the array checks.
"""

from __future__ import annotations

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
    in_row, in_col = cols < n, gather < cols.size  # slots that hold a one
    return "".join([  # one block's int64 positions alive at a time
        f"{n} {m}\n{gather.shape[0]} {cols.shape[0]}\n",
        _lines(np.count_nonzero(in_col, axis=0)[None]),
        _lines(np.count_nonzero(in_row, axis=0)[None]),
        _lines(np.where(in_col, gather % m + 1, 0).T),
        _lines(np.where(in_row, cols + 1, 0).T),
    ])


def _lines(a: np.ndarray) -> str:
    """One line per row of *a* (non-negative), its entries separated by single spaces.

    Each entry takes one row of a uint8 buffer: its decimal digits right-aligned,
    one column per place, then a space or, at the end of a line, a newline.  One
    boolean compaction drops the leading zeros.
    """
    rows, cols = a.shape
    if not cols:
        return "\n" * rows
    top = int(a.max())
    rest = a.astype(np.uint32 if top < 2**32 else np.uint64, order="C").ravel()
    width = len(str(top))
    buf = np.empty((rest.size, width + 1), np.uint8)
    keep = np.ones(buf.shape, bool)
    for j in range(width - 1, 0, -1):
        buf[:, j] = rest % 10 + 48
        rest //= 10
        np.not_equal(rest, 0, out=keep[:, j - 1])  # a digit left of place j
    buf[:, 0] = rest + 48
    buf[:, width] = ord(" ")
    buf[cols - 1 :: cols, width] = ord("\n")
    return str(buf[keep].data, "ascii")  # decoded from the array, with no bytes copy


def _int_fields(line: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as e:
        raise ValueError(f"alist: non-integer token in {what}: {line!r}") from e


def import_alist(text: str) -> SparseBinaryMatrix:
    """Parse alist text back into a SparseBinaryMatrix, by the rules above."""
    tokens = _plain_tokens(text) or _plain_tokens(  # other whitespace respaced, line by line
        "".join(" ".join(line.split()) + "\n" for line in text.splitlines()))
    # whatever the one pass or the array checks refuse, the line walk decides
    n, m, at, pos = tokens and _supports(*tokens) or _read_lines(text.splitlines())
    split = np.searchsorted(at, n)
    col_of, row_in_col, row_of, col_in_row = at[:split], pos[:split], at[split:] - n, pos[split:]
    matrix = SparseBinaryMatrix(m, n, np.searchsorted(row_of, np.arange(m + 1)), col_in_row)
    if not np.array_equal(np.sort(row_in_col * n + col_of), row_of * n + col_in_row):
        raise ValueError("alist: column lists disagree with row lists")
    return matrix


def _parse_pair(line: str, what: str) -> tuple[int, int]:
    fields = _int_fields(line, what)
    if len(fields) != 2:
        raise ValueError(f"alist: expected two integers in {what}: {line!r}")
    return fields[0], fields[1]


def _plain_tokens(text: str):
    """(values, line, line count) of every token in one pass, or None unless the text is
    only ASCII digits, spaces and newlines, no token over 18 digits: numpy reads those
    exactly.  A last line with no newline ends at the end of the text, as in splitlines."""
    if not text.isascii():  # first, since a lone surrogate cannot be encoded
        return None
    raw = np.frombuffer(text.encode(), np.uint8)
    digit, newline = raw - ord("0") < 10, raw == ord("\n")
    if not (digit | newline | (raw == ord(" "))).all():
        return None
    starts, stops = np.flatnonzero(np.diff(digit, prepend=False, append=False)).reshape(-1, 2).T
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values.size != starts.size or (stops - starts > 18).any():
        return None
    ends = np.flatnonzero(newline)
    if raw.size and not newline[-1]:
        ends = np.append(ends, raw.size)
    per_line = np.diff(np.searchsorted(starts, ends), prepend=0)
    return values, np.repeat(np.arange(ends.size), per_line), ends.size


def _supports(values, line, n_lines: int):
    """N, M and the (line, zero-based position) of every listed position, ascending;
    None if a check fails.

    Lines count from the first support line, and pair in order with the N + M weights.
    Tokens come in text order, so each line's are one slice; the pairs are sorted only
    when the text's order does not ascend.
    """
    if n_lines < 4 or np.searchsorted(line, [1, 2]).tolist() != [2, 4]:
        return None  # fewer than four lines, or a size line not two integers
    n, m, max_col, max_row = values[:4].tolist()
    if n < 1 or m < 1 or n_lines < 4 + n + m:
        return None
    cut = np.searchsorted(line, [2, 3, 4, 4 + n + m])
    weights = values[cut[0] : cut[2]]
    if (cut[1] - cut[0], cut[2] - cut[1]) != (n, m):
        return None
    if int(weights[:n].max()) > max_col or int(weights[n:].max()) > max_row:
        return None
    nonzero = values[cut[2] : cut[3]] != 0
    at, pos = line[cut[2] : cut[3]][nonzero] - 4, values[cut[2] : cut[3]][nonzero]
    counted = np.array_equal(np.bincount(at, minlength=n + m), weights)
    if not (counted and ((pos > 0) & (pos <= np.where(at < n, m, n))).all()):
        return None
    key = at * (n + m) + pos - 1
    if not (np.diff(key) > 0).all():
        key.sort()
        if not (np.diff(key) > 0).all():  # a position repeated in its line
            return None
    return n, m, *np.divmod(key, n + m)


def _read_lines(lines: list[str]):
    """Read the lines one by one, by the same rules: raise the first error in file
    order, or return what :func:`_supports` would."""
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
    if max(col_weights) > max_col:
        raise ValueError("alist: column weight exceeds declared maximum")
    if max(row_weights) > max_row:
        raise ValueError("alist: row weight exceeds declared maximum")
    if len(lines) < 4 + n + m:
        raise ValueError("alist: truncated support lists")
    pos = [_parse_support(lines[4 + j], col_weights[j], m, f"column {j + 1}") for j in range(n)]
    pos += [_parse_support(lines[4 + n + i], row_weights[i], n, f"row {i + 1}") for i in range(m)]
    at = np.repeat(np.arange(n + m), col_weights + row_weights)
    return n, m, at, np.array([p for line in pos for p in line], dtype=np.int64)


def _parse_support(line: str, weight: int, bound: int, what: str) -> list[int]:
    """The sorted zero-based positions of one support line, or the error of the first
    check it fails."""
    fields = _int_fields(line, what)
    positions = [f for f in fields if f != 0]
    if len(positions) != weight:
        raise ValueError(f"alist: {what} lists {len(positions)} positions, expected {weight}")
    if any(f < 0 for f in fields):
        raise ValueError(f"alist: negative position in {what}")
    seen = set()
    for f in positions:
        if f > bound:
            raise ValueError(f"alist: position {f} out of range in {what}")
        if f in seen:
            raise ValueError(f"alist: duplicate position {f} in {what}")
        seen.add(f)
    return sorted(f - 1 for f in positions)
