"""Two independent girth computations for quasi-cyclic codes.

The fast path works on the exponent matrix alone: a cycle of length 2k in
the expanded Tanner graph corresponds to row/column index sequences
(r_0..r_{k-1}, c_0..c_{k-1}) with r_i != r_{i+1} and c_i != c_{i+1}
(indices mod k) whose alternating exponent sum

    sum_i  E[r_i][c_i] - E[r_{i+1}][c_i]  = 0  (mod P)

vanishes.  Enumerating all such sequences for 2k in {4, 6, 8, 10} decides
whether the girth is below 12.  The unreduced sum decides every P at once:
the candidate closes at P exactly when P divides it (:func:`exponent_sums`,
:class:`CycleSpectrum`).

The girth-12 rule: a J x L matrix closes 12-cycles at every P exactly when
min(J, L) >= 2 and max(J, L) >= 3, as rows u w u w u w with columns
v1 v2 v3 v1 v2 v3, or rows 0 1 2 0 1 2 with columns v1 v2 v1 v2 v1 v2, sum to
zero (Fossorier, IEEE Trans. IT, 2004).  There, no cycle through length 10
means girth exactly 12.  One row or column is acyclic; a 2 x 2 Tanner graph
is a union of cycles of length 4P / gcd(P, E00 - E01 - E10 + E11).

The candidates of length 2k pair each canonical row sequence, the
lexicographically smallest of its k rotations and k reflections
(:func:`_row_pairs`), with every column sequence (:func:`_column_halves`), in
(row_seq, col_seq) order.  A cycle whose row sequence some symmetry fixes is
listed once per such symmetry, and the first candidate closing at P is still
the smallest (row_seq, col_seq) of its cycle: a symmetry fixing row_seq maps
a later copy to an earlier candidate of the same cycle, which closes too.
A candidate's sum meets in the middle: its row sequence's sum over the front
half of its column sequence plus that over the back half.  Column sequences
come in order, so the back codes are kept per sequence but the front codes
only as a count each, read by repeat (a witness searches the running counts).
Sums stay in the narrowest of int16, int32 and int64 holding k times the
largest entry.

The oracle path expands the matrix, builds the bipartite Tanner graph and
computes the exact girth by BFS.  The fast path never calls it, so it is an
independent cross-check for every shape.

Girth values are even integers; ``None`` is the acyclic sentinel
(serialized as JSON null).  A size P or modulus that fails
:func:`~qcgirth.matrices.check_size` raises ValueError before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .matrices import ExponentMatrix, QcCode, check_layout, check_size, qc_layout

EXPONENT_CHECK = "EXPONENT_CHECK"
GRAPH_BFS = "GRAPH_BFS"

SUPPORTED_CYCLE_LENGTHS = (4, 6, 8, 10, 12)
SHORT_CYCLE_LENGTHS = (4, 6, 8, 10)
SEQUENCE_BUDGET = 5_000_000  # candidate sequences per enumerated length
_NO_HITS = np.zeros(0, dtype=np.intp)


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
        length = self.length
        if not isinstance(length, int) or isinstance(length, bool) or length % 2 or length < 4:
            raise ValueError(f"cycle length must be an even integer >= 4, got {self.length}")
        k = length // 2
        if len(self.row_seq) != k or len(self.col_seq) != k:
            raise ValueError("row_seq and col_seq must each hold length/2 indices")
        check_size(self.modulus, "modulus")
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
    return (symbols - 1) ** k + (symbols - 1) * (-1) ** k


def _alternating_sequences(symbols: int, k: int) -> np.ndarray:
    """All cyclic adjacent-distinct sequences, one per narrow-uint row, in lexicographic order."""
    top = max(symbols - 1, 0)
    seqs = np.indices((symbols,) + (top,) * (k - 1), dtype=np.min_scalar_type(top)).reshape(k, -1)
    for i in range(1, k):
        # Digit i counts the symbols other than term i - 1, in ascending order.
        seqs[i] += seqs[i] >= seqs[i - 1]
    return seqs.T[seqs[-1] != seqs[0]]


def _sequence_keys(seqs: np.ndarray, order: list[int], base: int) -> np.ndarray:
    """int64 keys ordering the sequences seqs[:, order] lexicographically (Horner's rule)."""
    key = seqs[:, order[0]].astype(np.int64)
    for i in order[1:]:
        key *= base
        key += seqs[:, i]
    return key


@lru_cache(maxsize=None)
def _row_pairs(j: int, k: int) -> np.ndarray:
    """Row-pair codes r_i * J + r_{i+1}, (n_r, k), of the canonical row sequences.

    A row sequence is canonical when it is no larger than any of its k
    rotations and k reflections (r_t, r_{t-1}, ..).  Term i of a candidate is
    E[r_i][c_i] - E[r_{i+1}][c_i], at row pair pairs[., i].  The sequences
    stay in lexicographic order; none exist for fewer than two rows, or for
    odd k and fewer than three.
    """
    rows = _alternating_sequences(j, k)
    key = _sequence_keys(rows, list(range(k)), j)
    canonical = np.ones(len(rows), dtype=bool)
    for order in ([[(i + t) % k for i in range(k)] for t in range(1, k)]
                  + [[(t - i) % k for i in range(k)] for t in range(k)]):
        canonical &= _sequence_keys(rows, order, j) >= key
    rows = rows[canonical].astype(np.intp)
    return rows * j + np.roll(rows, -1, axis=1)


@lru_cache(maxsize=None)
def _column_halves(l: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, back) of every column sequence, in lexicographic order.

    With h = ceil(k / 2), a sequence's front code is the base-L code of
    c_0..c_{h-1} and its back code that of c_h..c_{k-1}.  Front codes never
    decrease along the sequences, so counts (L^h,) holds the sequences per
    front code, and back (n_c,) holds each sequence's back code.
    """
    cols = _alternating_sequences(l, k)
    h = (k + 1) // 2
    front = _sequence_keys(cols, list(range(h)), l)
    return np.bincount(front, minlength=l ** h), _sequence_keys(cols, list(range(h, k)), l)


def _sequence_count(j: int, l: int, k: int) -> int:
    return _alternating_count(j, k) * _alternating_count(l, k)


def exponent_sums(matrix: ExponentMatrix, length: int) -> np.ndarray:
    """Alternating exponent sum of every candidate cycle of *length*.

    One value per (canonical row sequence, column sequence) candidate, in
    that order, met in the middle: the (n_r, k, L) column differences of the
    row sequences are summed over every front-half and back-half column code
    into two (n_r, .) grids, and a candidate adds one cell of each, the front
    cell by repeat.  At lengths 4, 8 and 12 a cycle appears once per symmetry
    fixing its row sequence (module docstring), so sums may outnumber cycles,
    but never the raw sequences.  A candidate closes at size P
    exactly when P divides its sum (Fossorier, IEEE Trans. IT, 2004).  The sums
    are in the narrowest of int16, int32 and int64 whose maximum exceeds
    k * max entry, a bound on |sum| (MAX_VALUE keeps int64 exact); widen them
    before mixing in a Python int past that maximum.  Raises BudgetError past
    SEQUENCE_BUDGET (use the BFS oracle instead).
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
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if k * matrix.max_entry < np.iinfo(t).max)
    if not raw:  # no row or no column sequence
        return np.zeros(0, dtype=dtype)
    pairs = _row_pairs(matrix.rows, k)
    counts, back = _column_halves(matrix.cols, k)
    entries = np.asarray(matrix.entries, dtype=np.int64)
    terms = (entries[:, None] - entries[None]).reshape(-1, matrix.cols)[pairs].astype(dtype)
    grids = []
    for lo, hi in ((0, (k + 1) // 2), ((k + 1) // 2, k)):
        grid = terms[:, lo]
        for i in range(lo + 1, hi):
            grid = (grid[:, :, None] + terms[:, i, None, :]).reshape(len(pairs), -1)
        grids.append(grid)
    sums = np.repeat(grids[0], counts, axis=1)
    sums += np.take(grids[1], back, axis=1)
    return sums.ravel()


def find_cycle(matrix: ExponentMatrix, p: int, length: int) -> CycleWitness | None:
    """Search for a cycle of exactly *length* at modulus *p*.

    Exhaustive over all alternating closed sequences of that length; returns
    the lexicographically smallest canonical witness, or None.  Raises
    BudgetError past SEQUENCE_BUDGET (use the BFS oracle instead).
    """
    return matrix.spectrum.witness(p, length)


class CycleSpectrum:
    """Exponent-sum magnitudes of a matrix's candidate cycles, per length.

    Each length's table is scanned once, on first use, under the sequence
    budget; after that a cycle question at any size P is a divisor test on
    the sums.  Read it as :attr:`ExponentMatrix.spectrum`, one per matrix.
    """

    def __init__(self, matrix: ExponentMatrix):
        # An equal copy: a matrix and its spectrum form no reference cycle, so
        # the sums are freed with the matrix, not at the next collection.
        self._matrix = ExponentMatrix(matrix.entries)
        self._sums: dict[int, tuple[np.ndarray, int, int]] = {}

    def _scan(self, length: int) -> tuple[np.ndarray, int, int]:
        """(|sums|, min, max) of one length, scanned on first use."""
        if length not in self._sums:
            sums = exponent_sums(self._matrix, length)
            np.abs(sums, out=sums)
            self._sums[length] = sums, int(sums.min(initial=1)), int(sums.max(initial=0))
        return self._sums[length]

    def _closing(self, p: int, length: int) -> np.ndarray:
        """Table indices, in order, of the candidates of *length* closing at *p*:
        only multiples of p up to max|S| meet the sums, so each fits their dtype."""
        sums, lo, hi = self._scan(length)
        first = -(-lo // p) * p  # the smallest multiple of p that is >= min|S|
        if first > hi:
            return _NO_HITS
        # One multiple in [min|S|, max|S|] needs an equality test, not a modulo.
        return np.flatnonzero(sums == first if first + p > hi else sums % p == 0)

    def shortest_cycle(self, p: int) -> int | None:
        """Shortest length through 10 with a cycle closing at size *p*, or None."""
        check_size(p, "modulus")
        for length in SHORT_CYCLE_LENGTHS:
            if self._closing(p, length).size:
                return length
        return None

    def witness(self, p: int, length: int) -> CycleWitness | None:
        """The first cycle of *length* (4..12) in table order closing at *p*."""
        check_size(p, "modulus")
        hits = self._closing(p, length)
        if not hits.size:
            return None
        j, l, k = self._matrix.rows, self._matrix.cols, length // 2
        pairs = _row_pairs(j, k)
        counts, back = _column_halves(l, k)
        row, col = divmod(int(hits[0]), back.size)
        front = np.searchsorted(np.cumsum(counts), col, side="right")
        cols = np.unravel_index(front, (l,) * ((k + 1) // 2))
        cols += np.unravel_index(back[col], (l,) * (k // 2))
        return CycleWitness(length, tuple((pairs[row] // j).tolist()), tuple(map(int, cols)), p)

    def bound(self) -> int | None:
        """Smallest P0 with girth exactly 12 at every P >= P0.

        max|S| + 1 over the sums S: P divides a nonzero S only if P <= |S|,
        and P = max|S| divides one.  None for a shape without 12-cycles at
        every P, or when some sum is 0 (always closes).
        """
        if not _closes_12_at_every_p(self._matrix):
            return None
        scans = [self._scan(length) for length in SHORT_CYCLE_LENGTHS]
        if any(lo == 0 for _, lo, _ in scans):
            return None
        return max(hi for _, _, hi in scans) + 1


def _closes_12_at_every_p(matrix: ExponentMatrix) -> bool:
    """Whether 12-cycles close at every P: min(J, L) >= 2 and max(J, L) >= 3."""
    return min(matrix.rows, matrix.cols) >= 2 and max(matrix.rows, matrix.cols) >= 3


def girth_fast(matrix: ExponentMatrix, p: int) -> GirthReport:
    """Girth from the exponent matrix alone, for every shape.

    The shortest cycle through length 10 closing at *p*, with its witness.
    Else, by the girth-12 rule (module docstring): 12, None for one row or
    column, or the 2 x 2 closed form, at least 12 once no 4- or 8-cycle closes.
    """
    check_size(p, "modulus")
    if matrix.rows < 2 or matrix.cols < 2:
        return GirthReport(girth=None, method=EXPONENT_CHECK, witness=None)
    length = matrix.spectrum.shortest_cycle(p)
    if length is not None:
        witness = find_cycle(matrix, p, length)
        return GirthReport(girth=length, method=EXPONENT_CHECK, witness=witness)
    if _closes_12_at_every_p(matrix):
        return GirthReport(girth=12, method=EXPONENT_CHECK, witness=None)
    (e00, e01), (e10, e11) = matrix.entries
    girth = 4 * p // math.gcd(p, e00 - e01 - e10 + e11)
    return GirthReport(girth=girth, method=EXPONENT_CHECK, witness=None)


def girth_oracle(matrix: ExponentMatrix, p: int) -> int | None:
    """Exact girth of the expanded Tanner graph by breadth-first search.

    A variable (column) meets one check (row) in each block row, so every
    cycle crosses at least two block rows.  Shifting every block cyclically
    maps the graph onto itself, so one BFS root in each of block rows
    0..J - 2 realizes the minimum over all vertices; one block row has no
    root and is acyclic.  Each BFS is level-synchronous over the
    :func:`qc_layout` arrays, which raise BudgetError past their edge budget:
    a level gathers its frontier's neighbours and drops each edge back to a
    parent.  The first level at depth d that reaches a vertex twice closes a
    (2d + 2)-cycle, so a girth g costs g / 2 levels.  A root stops there or
    once 2d + 2 >= the best so far, and the roots stop at girth 4, the least
    a simple bipartite graph has.  Returns None for acyclic graphs.
    """
    check_size(p, "modulus")
    code = QcCode(matrix, p)
    if matrix.rows == 1:  # no root: refuse as the layout would, without laying out
        check_layout(code)
        return None
    cols, gather = qc_layout(code)
    # Even levels hold checks and odd levels variables, each side by its own
    # index: check c meets the variables nbrs[0][c], variable v the checks nbrs[1][v].
    nbrs = (cols.T, gather.T % cols.shape[1])
    slots = [np.empty(len(side), dtype=np.intp) for side in nbrs]  # read only where just written
    best = None
    for root in range(0, cols.shape[1] - p, p):
        frontier, parent, depth = np.array([root]), np.array([-1]), 0
        while frontier.size and (best is None or 2 * depth + 2 < best):
            reach = nbrs[depth % 2][frontier]
            kept = reach != parent[:, None]
            found, place = reach[kept], np.arange(kept.sum())
            # No vertex found lies on an earlier level: one on the level above
            # would have reached its frontier vertex twice and ended that level.
            slot = slots[1 - depth % 2]
            slot[found] = place
            if (slot[found] != place).any():  # a vertex found twice keeps one place
                best = 2 * depth + 2
                break
            frontier, parent, depth = found, np.repeat(frontier, kept.sum(axis=1)), depth + 1
        if best == 4:
            break
    return best
