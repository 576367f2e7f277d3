"""Two independent girth computations for quasi-cyclic codes.

The fast path works on the exponent matrix alone: a cycle of length 2k in
the expanded Tanner graph corresponds to row/column index sequences
(r_0..r_{k-1}, c_0..c_{k-1}) with r_i != r_{i+1} and c_i != c_{i+1}
(indices mod k) whose alternating exponent sum

    sum_i  E[r_i][c_i] - E[r_{i+1}][c_i]  = 0  (mod P)

vanishes.  Enumerating all such sequences for 2k in {4, 6, 8, 10} decides
whether the girth is below 12; column-weight-three matrices with at least
two columns always contain 12-cycles (rows u w u w u w with columns
v1 v2 v3 v1 v2 v3, or rows 0 1 2 0 1 2 with columns v1 v2 v1 v2 v1 v2: either
sum telescopes to zero for every P), so "no cycle through length 10" pins
the girth to exactly 12 for those shapes.  The unreduced sum decides every
P at once: the candidate closes at P exactly when P divides it
(:func:`exponent_sums`, :class:`CycleSpectrum`).

Each cycle is enumerated once, as the lexicographically smallest
(row_seq, col_seq) among its k rotations and k reflections.  A pair is that
smallest exactly when row_seq is the smallest of its own orbit and col_seq
is no larger than its image under each symmetry that fixes row_seq, so the
tables are built one row sequence at a time (:func:`_cycle_table`).

The oracle path expands the matrix, builds the bipartite Tanner graph and
computes the exact girth by BFS.  It shares nothing with the enumeration
beyond the expansion itself and is used to cross-validate the fast path.

Girth values are even integers; ``None`` is the acyclic sentinel
(serialized as JSON null).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .matrices import MAX_VALUE, ExponentMatrix, QcCode, expand

EXPONENT_CHECK = "EXPONENT_CHECK"
GRAPH_BFS = "GRAPH_BFS"

SUPPORTED_CYCLE_LENGTHS = (4, 6, 8, 10, 12)
SHORT_CYCLE_LENGTHS = (4, 6, 8, 10)
SEQUENCE_BUDGET = 5_000_000  # candidate sequences per enumerated length
ORACLE_EDGE_BUDGET = 100_000  # edges of the expanded Tanner graph


@dataclass(frozen=True)
class CycleWitness:
    """A closed alternating row/column path proving a 2k-cycle exists.

    The witness is self-checking: :meth:`holds_for` re-evaluates the
    exponent sum against any matrix.
    """

    length: int
    row_seq: tuple[int, ...]
    col_seq: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        k = self.length // 2
        if self.length % 2 != 0 or k < 2:
            raise ValueError(f"cycle length must be an even integer >= 4, got {self.length}")
        if len(self.row_seq) != k or len(self.col_seq) != k:
            raise ValueError("row_seq and col_seq must each hold length/2 indices")
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        for i in range(k):
            if self.row_seq[i] == self.row_seq[(i + 1) % k]:
                raise ValueError("consecutive rows must differ")
            if self.col_seq[i] == self.col_seq[(i + 1) % k]:
                raise ValueError("consecutive columns must differ")

    def exponent_sum(self, matrix: ExponentMatrix) -> int:
        """Signed alternating sum of the visited exponents (unreduced)."""
        k = self.length // 2
        if max(self.row_seq) >= matrix.rows or max(self.col_seq) >= matrix.cols:
            raise ValueError("witness indices out of range for this matrix")
        total = 0
        for i in range(k):
            r, r_next, c = self.row_seq[i], self.row_seq[(i + 1) % k], self.col_seq[i]
            total += matrix.entries[r][c] - matrix.entries[r_next][c]
        return total

    def holds_for(self, matrix: ExponentMatrix) -> bool:
        return self.exponent_sum(matrix) % self.modulus == 0

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "rows": list(self.row_seq),
            "cols": list(self.col_seq),
            "modulus": self.modulus,
        }


@dataclass(frozen=True)
class GirthReport:
    """Computed girth plus the shortest-cycle witness when one exists.

    ``girth`` is an even integer or ``None`` (acyclic).  A witness is
    present exactly when girth <= 10 and the exponent check produced the
    result; BFS results never carry witnesses.
    """

    girth: int | None
    method: str
    witness: CycleWitness | None

    def __post_init__(self):
        if self.method not in (EXPONENT_CHECK, GRAPH_BFS):
            raise ValueError(f"unknown method {self.method!r}")
        if self.girth is not None and self.girth % 2 != 0:
            raise ValueError("girth must be even or None")
        should_have_witness = (
            self.girth is not None and self.girth <= 10 and self.method == EXPONENT_CHECK
        )
        if should_have_witness != (self.witness is not None):
            raise ValueError("witness present iff girth <= 10 and method is EXPONENT_CHECK")

    def to_json_dict(self) -> dict:
        return {
            "girth": self.girth,
            "method": self.method,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def _alternating_count(symbols: int, k: int) -> int:
    """Number of cyclic sequences over `symbols` with adjacent terms distinct."""
    if symbols <= 0:
        return 0
    return (symbols - 1) ** k + (symbols - 1) * (-1) ** k


def _alternating_sequences(symbols: int, k: int) -> list[tuple[int, ...]]:
    """All cyclic adjacent-distinct sequences, in lexicographic order."""
    out: list[tuple[int, ...]] = []
    seq = [0] * k

    def rec(i: int) -> None:
        if i == k:
            out.append(tuple(seq))
            return
        for v in range(symbols):
            if i > 0 and v == seq[i - 1]:
                continue
            if i == k - 1 and v == seq[0]:
                continue
            seq[i] = v
            rec(i + 1)

    rec(0)
    return out


@lru_cache(maxsize=None)
def _cycle_table(j: int, l: int, k: int) -> np.ndarray | None:
    """Enumeration table for 2k-cycles of a J x L exponent matrix.

    A (k, n) array with one column per canonical candidate, in
    (row_seq, col_seq) order.  Entry i is the flat index
    (r_i * J + r_{i+1}) * L + c_i of the term E[r_i][c_i] - E[r_{i+1}][c_i]
    in the J x J x L grid of column differences, so a candidate's exponent
    sum adds k gathered differences.  Returns None when no valid sequence
    exists (fewer than two rows or columns, or odd k with fewer than three
    of either).
    """
    row_seqs = _alternating_sequences(j, k)
    col_seqs = _alternating_sequences(l, k)
    if not row_seqs or not col_seqs:
        return None
    cols = np.array(col_seqs, dtype=np.int64).T.copy()
    digits = l ** np.arange(k - 1, -1, -1, dtype=np.int64)
    key = digits @ cols  # orders column sequences lexicographically
    # (row, column) index maps of the k rotations, identity first, and of the
    # k reflections: rows (r_t, r_{t-1}, ..) with columns (c_{t-1}, c_{t-2}, ..).
    shifts = [[(i + t) % k for i in range(k)] for t in range(k)]
    symmetries = [(idx, idx) for idx in shifts] + [
        ([(t - i) % k for i in range(k)], [(t - 1 - i) % k for i in range(k)])
        for t in range(k)
    ]
    blocks = []
    for row_seq in row_seqs:
        images = [(tuple(row_seq[i] for i in ridx), cidx) for ridx, cidx in symmetries]
        if min(image for image, _ in images) < row_seq:
            continue
        keep = np.ones(cols.shape[1], dtype=bool)
        for image, cidx in images[1:]:
            if image == row_seq:
                keep &= key <= digits @ cols[cidx]
        r = np.array(row_seq, dtype=np.int64)
        blocks.append(((r * j + np.roll(r, -1)) * l)[:, None] + cols[:, keep])
    return np.ascontiguousarray(np.concatenate(blocks, axis=1))


def _sequence_count(j: int, l: int, k: int) -> int:
    return _alternating_count(j, k) * _alternating_count(l, k)


def exponent_sums(matrix: ExponentMatrix, length: int) -> np.ndarray:
    """Alternating exponent sum of every candidate cycle of *length*.

    One value per candidate of the cached cycle table.  A candidate closes at
    size P exactly when P divides its sum (Fossorier, IEEE Trans. IT, 2004).
    Entries are at most MAX_VALUE, so no sum overflows int64.  Raises
    BudgetError past SEQUENCE_BUDGET (use the BFS oracle instead).
    """
    if length not in SUPPORTED_CYCLE_LENGTHS:
        raise ValueError(f"cycle length must be one of {SUPPORTED_CYCLE_LENGTHS}")
    k = length // 2
    raw = _sequence_count(matrix.rows, matrix.cols, k)
    if raw > SEQUENCE_BUDGET:
        raise BudgetError(
            f"{raw} candidate sequences for length {length} exceed the budget of "
            f"{SEQUENCE_BUDGET}; use the BFS oracle"
        )
    table = _cycle_table(matrix.rows, matrix.cols, k)
    if table is None:
        return np.zeros(0, dtype=np.int64)
    entries = np.asarray(matrix.entries, dtype=np.int64)
    differences = (entries[:, None, :] - entries[None, :, :]).ravel()
    return differences[table].sum(axis=0)


def _check_modulus(p: int) -> None:
    if not 2 <= p <= MAX_VALUE:
        raise ValueError(f"modulus must be in [2, {MAX_VALUE}], got {p}")


def find_cycle(matrix: ExponentMatrix, p: int, length: int) -> CycleWitness | None:
    """Search for a cycle of exactly *length* at modulus *p*.

    Exhaustive over all alternating closed sequences of that length; returns
    the lexicographically smallest canonical witness, or None.  Raises
    BudgetError past SEQUENCE_BUDGET (use the BFS oracle instead).
    """
    _check_modulus(p)
    sums = exponent_sums(matrix, length)
    hits = np.flatnonzero(sums % p == 0)
    if hits.size == 0:
        return None
    table = _cycle_table(matrix.rows, matrix.cols, length // 2)
    terms = [int(t) for t in table[:, hits[0]]]
    row_seq = tuple(t // (matrix.rows * matrix.cols) for t in terms)
    col_seq = tuple(t % matrix.cols for t in terms)
    return CycleWitness(length, row_seq, col_seq, p)


class CycleSpectrum:
    """Exponent-sum magnitudes of a matrix's candidate 4- to 10-cycles.

    Each length's table is scanned once, on first use, under the sequence
    budget; after that a short-cycle question at any size P is a
    divisor test on the sums.
    """

    def __init__(self, matrix: ExponentMatrix):
        self._matrix = matrix
        self._sums: dict[int, tuple[np.ndarray, int, int]] = {}

    def shortest_cycle(self, p: int) -> int | None:
        """Shortest length through 10 with a cycle closing at size *p*, or None."""
        _check_modulus(p)
        for length in SHORT_CYCLE_LENGTHS:
            if length not in self._sums:
                sums = np.abs(exponent_sums(self._matrix, length))
                self._sums[length] = sums, int(sums.min(initial=1)), int(sums.max(initial=0))
            sums, lo, hi = self._sums[length]
            # Only a zero sum or one of at least p can be a multiple of p.
            if (lo == 0 or hi >= p) and (sums % p == 0).any():
                return length
        return None


def girth_fast(matrix: ExponentMatrix, p: int) -> GirthReport:
    """Girth from the exponent matrix alone (BFS fallback for odd shapes).

    Scans lengths 4, 6, 8, 10 for a witness.  Finding none pins the girth
    to exactly 12 for column-weight-three matrices with L >= 2 (such shapes
    always contain 12-cycles); one-row or one-column matrices are acyclic;
    any other shape defers to :func:`girth_oracle` because its girth may
    legitimately exceed 12.
    """
    if matrix.rows < 2 or matrix.cols < 2:
        return GirthReport(girth=None, method=EXPONENT_CHECK, witness=None)
    for length in SHORT_CYCLE_LENGTHS:
        witness = find_cycle(matrix, p, length)
        if witness is not None:
            return GirthReport(girth=length, method=EXPONENT_CHECK, witness=witness)
    if matrix.rows == 3:
        return GirthReport(girth=12, method=EXPONENT_CHECK, witness=None)
    girth = girth_oracle(matrix, p)
    return GirthReport(girth=girth, method=GRAPH_BFS, witness=None)


def girth_oracle(matrix: ExponentMatrix, p: int) -> int | None:
    """Exact girth of the expanded Tanner graph by breadth-first search.

    Builds the bipartite graph (variable nodes = columns, check nodes =
    rows, edges at the ones) and takes the minimum shortest cycle over BFS
    roots.  Every cycle alternates between the two sides, so it passes
    through a check node; shifting every block cyclically maps the graph
    onto itself, so some copy of it passes through the first check node of
    a block-row.  One root per block-row therefore realizes the minimum
    over all vertices.  Returns None for acyclic graphs.
    """
    n_edges = matrix.rows * matrix.cols * p
    if n_edges > ORACLE_EDGE_BUDGET:
        raise BudgetError(
            f"expanded graph has {n_edges} edges, over the oracle budget of "
            f"{ORACLE_EDGE_BUDGET}"
        )
    h = expand(QcCode(matrix, p))
    m, n = h.n_rows, h.n_cols
    n_vertices = m + n
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for r, support in enumerate(h.row_supports):
        for c in support:
            adj[r].append(m + c)
            adj[m + c].append(r)

    best = float("inf")
    for root in range(0, m, p):
        dist = [-1] * n_vertices
        parent = [-1] * n_vertices
        dist[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            dx = dist[x]
            if 2 * dx >= best:
                break  # queue is depth-ordered; nothing shorter remains
            px = parent[x]
            for y in adj[x]:
                if y == px:
                    continue
                if dist[y] >= 0:
                    cand = dx + dist[y] + 1
                    if cand < best:
                        best = cand
                else:
                    dist[y] = dx + 1
                    parent[y] = x
                    queue.append(y)
        if best == 4:
            break  # minimum possible in a simple bipartite graph
    return None if best == float("inf") else int(best)
