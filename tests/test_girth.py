from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcgirth import (
    BudgetError,
    CycleSpectrum,
    CycleWitness,
    EXPONENT_CHECK,
    ExponentMatrix,
    GRAPH_BFS,
    GirthReport,
    QcCode,
    expand,
    exponent_sums,
    find_cycle,
    girth_fast,
    girth_oracle,
    load_matrix,
)
from qcgirth.girth import (
    SEQUENCE_BUDGET,
    SUPPORTED_CYCLE_LENGTHS,
    _alternating_count,
    _alternating_sequences,
    _column_halves,
    _row_pairs,
    _sequence_count,
    _sequence_keys,
)
from qcgirth.matrices import MAX_VALUE

from conftest import REPO_ROOT, random_canonical_matrix

# The shipped (3,10) seed, certified at Q = 2810.
SEED_3X10 = ExponentMatrix.from_rows([
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 7, 28, 75, 101, 296, 376, 505, 1004],
    [0, 3, 19, 64, 170, 256, 556, 822, 1168, 2209],
])

# 3 x 40: 2.7e9 candidate 10-cycles, far past the sequence budget.
WIDE = ExponentMatrix.from_rows([[0] * 40, list(range(40)), list(range(0, 80, 2))])


def _decoded_table(j, l, k, which=slice(None)):
    """The cached 2k-cycle tables of a J x L matrix as a (k, n) array of terms.

    Entry i of a candidate is the flat index (r_i * J + r_{i+1}) * L + c_i
    of its term E[r_i][c_i] - E[r_{i+1}][c_i] in the J x J x L grid of
    column differences.  Candidate r * n_c + c pairs row sequence r, decoded
    from its row-pair codes, with column sequence c, its front code rebuilt
    by repeat from the counts and its back code read from the back array;
    None when either cache holds no sequence.  *which* selects candidates.
    """
    pairs = _row_pairs(j, k)
    counts, back = _column_halves(l, k)
    if not len(pairs) or not back.size:
        return None
    row_ids, col_ids = np.divmod(np.arange(len(pairs) * back.size)[which], back.size)
    front = np.repeat(np.arange(counts.size), counts)[col_ids]
    code = front * l ** (k // 2) + back[col_ids]
    cols = np.stack([code // l ** (k - 1 - i) % l for i in range(k)])
    return pairs[row_ids].T * l + cols


def _candidate(j, l, k, i):
    """(row_seq, col_seq) of candidate *i* in the J x L table for 2k-cycles."""
    terms = [int(t) for t in _decoded_table(j, l, k, [i])[:, 0]]
    return tuple(t // (j * l) for t in terms), tuple(t % l for t in terms)


def _reference_cycle_table(j, l, k):
    """Cycle table over the full row x column cross product, packed-key orbit minima.

    Every (row_seq, col_seq) pair gets one int64 key of 2k base-max(J, L)
    digits; a pair is kept when its key is the smallest over the 2k
    rotations and reflections of the cycle.  Kept pairs stay in row-major
    (row_seq, col_seq) order.
    """
    rows = np.array(_alternating_sequences(j, k), dtype=np.int64).reshape(-1, k)
    cols = np.array(_alternating_sequences(l, k), dtype=np.int64).reshape(-1, k)
    if not len(rows) or not len(cols):
        return None
    base = max(j, l)
    assert base ** (2 * k) < 2 ** 62  # packed keys fit in int64
    weights = base ** np.arange(2 * k - 1, -1, -1, dtype=np.int64)

    def key_of(ridx, cidx):
        row_part = rows[:, ridx] @ weights[:k]
        return row_part[:, None] + (cols[:, cidx] @ weights[k:])[None, :]

    orig = key_of(list(range(k)), list(range(k)))
    best = orig.copy()
    for t in range(k):
        if t:
            idx = [(i + t) % k for i in range(k)]
            np.minimum(best, key_of(idx, idx), out=best)
        ridx = [(t - i) % k for i in range(k)]
        cidx = [(t - 1 - i) % k for i in range(k)]
        np.minimum(best, key_of(ridx, cidx), out=best)
    row_index, col_index = np.nonzero(orig == best)
    full_r, full_c = rows[row_index], cols[col_index]
    terms = (full_r * j + np.roll(full_r, -1, axis=1)) * l + full_c
    return np.ascontiguousarray(terms.T)


def _reference_find_cycle(matrix, p, length):
    """find_cycle as one uncached scan per call: the first hit in table order."""
    if not 2 <= p <= MAX_VALUE:
        raise ValueError("modulus out of range")
    hits = np.flatnonzero(exponent_sums(matrix, length).astype(np.int64) % p == 0)
    if hits.size == 0:
        return None
    terms = [int(t) for t in _decoded_table(matrix.rows, matrix.cols, length // 2, hits[:1])[:, 0]]
    row_seq = tuple(t // (matrix.rows * matrix.cols) for t in terms)
    return CycleWitness(length, row_seq, tuple(t % matrix.cols for t in terms), p)


def _reference_girth_fast(matrix, p):
    """girth_fast as a per-length loop over :func:`_reference_find_cycle`, then
    12 when min(J, L) >= 2 and max(J, L) >= 3, else the 2 x 2 closed form."""
    j, l = matrix.rows, matrix.cols
    if j < 2 or l < 2:
        return GirthReport(None, EXPONENT_CHECK, None)
    for length in (4, 6, 8, 10):
        witness = _reference_find_cycle(matrix, p, length)
        if witness is not None:
            return GirthReport(length, EXPONENT_CHECK, witness)
    if min(j, l) >= 2 and max(j, l) >= 3:
        return GirthReport(12, EXPONENT_CHECK, None)
    (a, b), (c, d) = matrix.entries
    return GirthReport(4 * p // math.gcd(p, a - b - c + d), EXPONENT_CHECK, None)


def _outcome(fn, *args):
    """fn(*args), or the type of the BudgetError it raised."""
    try:
        return fn(*args)
    except BudgetError as e:
        return type(e)


def _girth_every_root(matrix, p):
    """Reference girth: shortest cycle found by BFS from every vertex."""
    h = expand(QcCode(matrix, p))
    m = h.n_rows
    adj = [[] for _ in range(m + h.n_cols)]
    for r, support in enumerate(h.row_supports):
        for c in support:
            adj[r].append(m + c)
            adj[m + c].append(r)
    best = None
    for root in range(len(adj)):
        dist, parent = {root: 0}, {root: None}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if best is not None and 2 * dist[x] >= best:
                break
            for y in adj[x]:
                if y == parent[x]:
                    continue
                if y in dist:
                    cycle = dist[x] + dist[y] + 1
                    best = cycle if best is None else min(best, cycle)
                else:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
    return best


class TestCycleWitness:
    def test_sum_evaluation(self, ref_seed):
        w = CycleWitness(8, (0, 2, 0, 2), (0, 5, 0, 5), 448)
        assert w.exponent_sum(ref_seed) == 448
        assert w.holds_for(ref_seed)

    def test_rejects_backtracking_rows(self):
        with pytest.raises(ValueError, match="consecutive rows"):
            CycleWitness(4, (0, 0), (0, 1), 7)

    def test_rejects_backtracking_cols(self):
        with pytest.raises(ValueError, match="consecutive columns"):
            CycleWitness(4, (0, 1), (1, 1), 7)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            CycleWitness(5, (0, 1), (0, 1), 7)

    @pytest.mark.parametrize("length", [4.0, 8.0, True, "4", None, 2, 0, -4])
    def test_rejects_length_that_is_not_an_even_integer_of_at_least_4(self, length):
        # 4.0 used to raise TypeError from range(k)
        with pytest.raises(ValueError, match="cycle length must be an even integer >= 4"):
            CycleWitness(length, (0, 1), (0, 1), 7)

    def test_rejects_out_of_range_evaluation(self, ref_seed):
        w = CycleWitness(4, (0, 9), (0, 1), 7)
        with pytest.raises(ValueError, match="out of range"):
            w.exponent_sum(ref_seed)
        # row -3 of a 3-row matrix would read row 0, so (0, -3) would certify
        # a step from row 0 to row 0; -1 would read the last row
        for rows, cols in [((0, -3), (0, 1)), ((0, -1), (0, 1)), ((0, 1), (-1, 0)),
                           ((0, True), (0, 1)), ((0, 1), (False, 1)),
                           ((0, np.int64(1)), (0, 1)), ((0, 1), (0, 1.0)), ((0, "1"), (0, 1))]:
            with pytest.raises(ValueError, match="non-negative integers"):
                CycleWitness(4, rows, cols, 7)


class TestFindCycle:
    def test_all_zero_matrix_has_4_cycles(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 0]])
        w = find_cycle(m, 7, 4)
        assert w == CycleWitness(4, (0, 1), (0, 1), 7)
        assert w.exponent_sum(m) == 0

    def test_reference_seed_clean_through_10(self, ref_seed):
        for length in (4, 6, 8, 10):
            assert find_cycle(ref_seed, 393, length) is None

    def test_reference_seed_8_cycle_at_448(self, ref_seed):
        w = find_cycle(ref_seed, 448, 8)
        assert w is not None
        assert set(w.col_seq) == {0, 5}
        assert set(w.row_seq) == {0, 2}
        assert w.exponent_sum(ref_seed) % 448 == 0

    def test_single_row_never_cycles(self):
        m = ExponentMatrix.from_rows([[0, 1, 2]])
        for length in (4, 6, 8, 10, 12):
            assert find_cycle(m, 11, length) is None

    def test_rejects_bad_length(self, ref_seed):
        with pytest.raises(ValueError):
            find_cycle(ref_seed, 7, 5)
        with pytest.raises(ValueError):
            find_cycle(ref_seed, 7, 14)

    def test_rejects_bad_modulus(self, ref_seed):
        with pytest.raises(ValueError):
            find_cycle(ref_seed, 1, 4)

    def test_rejects_modulus_past_the_value_limit(self, ref_seed):
        assert find_cycle(ref_seed, MAX_VALUE, 4) is None
        with pytest.raises(ValueError, match="modulus"):
            find_cycle(ref_seed, MAX_VALUE + 1, 4)

    def test_budget_error(self):
        with pytest.raises(BudgetError, match="oracle"):
            find_cycle(WIDE, 393, 10)

    def test_witnesses_self_check_on_random_matrices(self):
        rng = random.Random(3)
        found = 0
        for _ in range(120):
            m = random_canonical_matrix(rng, rng.choice((2, 3)), rng.randint(2, 5), 13)
            for length in (4, 6, 8, 10):
                w = find_cycle(m, 13, length)
                if w is not None:
                    assert w.holds_for(m)
                    assert w.length == length
                    found += 1
        assert found > 50

    def test_deterministic_lexicographic_witness(self, ref_seed):
        a = find_cycle(ref_seed, 448, 8)
        b = find_cycle(ref_seed, 448, 8)
        assert a == b

    def test_12_cycle_search_available(self, ref_seed):
        # Column-weight-three matrices always close 12-cycles.
        w = find_cycle(ref_seed, 393, 12)
        assert w is not None
        assert w.exponent_sum(ref_seed) % 393 == 0


class TestGirthFast:
    def test_reference_values(self, ref_seed):
        assert girth_fast(ref_seed, 393) == GirthReport(12, EXPONENT_CHECK, None)
        assert girth_fast(ref_seed, 448).girth == 8

    def test_single_row_infinite(self):
        m = ExponentMatrix.from_rows([[0, 1, 2, 3]])
        report = girth_fast(m, 9)
        assert report.girth is None
        assert report.witness is None

    def test_single_column_infinite(self):
        m = ExponentMatrix.from_rows([[0], [0], [0]])
        assert girth_fast(m, 9).girth is None

    def test_two_by_two_closed_form(self):
        # a 2-regular Tanner graph: cycles of length 4P / gcd(P, 0 - 0 - 0 + 1)
        m = ExponentMatrix.from_rows([[0, 0], [0, 1]])
        assert girth_fast(m, 5) == GirthReport(20, EXPONENT_CHECK, None)
        assert girth_oracle(m, 5) == 20
        # past the layout budget, where only the closed form answers
        assert girth_fast(m, 1250001) == GirthReport(5000004, EXPONENT_CHECK, None)
        with pytest.raises(BudgetError):
            girth_oracle(m, 1250001)

    def test_never_calls_the_oracle(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("girth_fast called the oracle")

        monkeypatch.setattr("qcgirth.girth.girth_oracle", refuse)
        rng = random.Random(15)
        for j, l in itertools.product(range(1, 5), range(1, 7)):
            p = rng.randint(2, 53)
            girth_fast(random_canonical_matrix(rng, j, l, p), p)

    def test_monotone_evidence(self):
        rng = random.Random(8)
        for _ in range(60):
            m = random_canonical_matrix(rng, 3, rng.randint(3, 6), 31)
            g = girth_fast(m, 31).girth
            for length in (4, 6, 8, 10):
                if find_cycle(m, 31, length) is not None:
                    assert g <= length
                    break

    def test_three_row_wide_matrices_never_infinite(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_canonical_matrix(rng, 3, rng.randint(3, 6), rng.randint(2, 53))
            g = girth_fast(m, rng.randint(2, 53)).girth
            assert g is not None and g <= 12

    def test_duplicate_columns_give_4_cycles(self):
        # no special casing needed: identical columns close a 4-cycle at any P
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 4, 4], [0, 9, 9]])
        for p in (2, 17, 97):
            assert girth_fast(m, p).girth == 4
        # away from small moduli the duplicated pair is the witness
        assert set(girth_fast(m, 97).witness.col_seq) == {1, 2}


class TestGirthOracle:
    def test_all_zero_2x2(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 0]])
        assert girth_oracle(m, 5) == 4

    def test_reference_seed(self, ref_seed):
        assert girth_oracle(ref_seed, 393) == 12

    def test_hand_enumerated_8_cycle(self):
        # J=2, L=2, shifts [[0,0],[0,1]], P=2.  The expansion is 2-regular
        # with 8 vertices and 8 edges in one component: a single 8-cycle.
        m = ExponentMatrix.from_rows([[0, 0], [0, 1]])
        h = expand(QcCode(m, 2))
        degree_by_var = {}
        edges = []
        for r, support in enumerate(h.row_supports):
            assert len(support) == 2
            for c in support:
                degree_by_var[c] = degree_by_var.get(c, 0) + 1
                edges.append((r, c))
        assert all(d == 2 for d in degree_by_var.values())
        assert len(edges) == 8
        # connectivity over the 8 vertices proves a single cycle of length 8
        adjacency = {}
        for r, c in edges:
            adjacency.setdefault(("r", r), []).append(("c", c))
            adjacency.setdefault(("c", c), []).append(("r", r))
        seen = {("r", 0)}
        stack = [("r", 0)]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert len(seen) == 8
        assert girth_oracle(m, 2) == 8
        assert girth_fast(m, 2).girth == 8

    def test_acyclic_single_row(self):
        m = ExponentMatrix.from_rows([[0, 1]])
        assert girth_oracle(m, 5) is None

    def test_budget_error(self, ref_seed):
        # 3 * 6 * 277778 = 5,000,004 edges, over the 5,000,000-edge layout budget
        with pytest.raises(BudgetError, match="5000000"):
            girth_oracle(ref_seed, 277778)

    def test_one_block_row_is_answered_without_a_layout(self):
        # 1 * 4 * 1,250,000 edges sit exactly at the layout budget: no BFS
        # root, so None, without the ~160 MB layout; one more P is refused
        m = ExponentMatrix.from_rows([[0, 1, 2, 3]])
        tracemalloc.start()
        try:
            assert girth_oracle(m, 1_250_000) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(BudgetError, match="5000004 edges, over the layout budget"):
            girth_oracle(m, 1_250_001)


class TestAgreement:
    def test_block_row_roots_equal_every_root(self):
        # the only 4-cycle of each fixed matrix crosses block rows 1 and 2, then 0 and 2
        fixed = [[[0, 0, 0], [0, 1, 2], [0, 1, 5]], [[0, 0, 0], [0, 1, 3], [0, 0, 5]]]
        cases = [(ExponentMatrix.from_rows(rows), p) for rows in fixed for p in (7, 11, 29)]
        rng = random.Random(2024)
        for _ in range(300):
            j, l, p = rng.randint(1, 4), rng.randint(1, 6), rng.randint(2, 40)
            cases.append((random_canonical_matrix(rng, j, l, p), p))
        for m, p in cases:
            assert girth_oracle(m, p) == _girth_every_root(m, p), (m, p)

    @pytest.mark.parametrize("path, min_p, members", [
        ("fixtures/seed_3x6.json", 449, 500),
        ("bench/inputs/seed_3x10.json", 4419, 100),
    ])
    def test_oracle_reads_12_over_a_whole_window(self, path, min_p, members):
        # every member BFSed, not a sample; an 8-cycle closes at min_P - 1
        seed = load_matrix(REPO_ROOT / path)
        window = range(min_p, min_p + members)
        assert [p for p in window if girth_oracle(seed, p) != 12] == []
        assert girth_oracle(seed, min_p - 1) == 8

    def test_fast_equals_oracle_on_random_matrices(self):
        # girth_fast never defers to the oracle, so every draw compares two
        # independent computations, on every shape up to 4 x 6
        rng = random.Random(12345)
        shapes = set()
        for _ in range(240):
            j, l, p = rng.randint(1, 4), rng.randint(1, 6), rng.randint(2, 53)
            m = random_canonical_matrix(rng, j, l, p)
            assert girth_fast(m, p).girth == girth_oracle(m, p), (m, p)
            shapes.add((j, l))
        assert len(shapes) == 24


def _sized_matrices(rows, cols):
    """(matrix, P) for P in 2..60, with entries in [0, P)."""
    return st.integers(2, 60).flatmap(
        lambda p: st.tuples(_matrices(rows, cols, st.integers(0, p - 1)), st.just(p))
    )


_KNOWN_GIRTHS = [  # (rows, P, girth of the expansion)
    ([[0, 0, 0], [0, 0, 1], [0, 1, 1]], 2, 4),
    ([[0, 0, 0], [0, 1, 2], [0, 2, 1]], 3, 6),
    ([[0, 0, 0], [0, 2, 4], [0, 3, 6]], 7, 8),
    ([[0, 0, 0], [0, 8, 7], [0, 14, 17]], 19, 10),
    ([[0, 0, 0], [0, 12, 26], [0, 17, 23]], 33, 12),
    ([[0, 0], [0, 1]], 5, 20),  # 2 x 2: 4P / gcd(P, 1)
    ([[0, 3, 1, 4]], 7, None),  # one row: acyclic
]


def _known_girth_examples(test):
    for rows, p, _ in _KNOWN_GIRTHS:
        test = example(case=(ExponentMatrix.from_rows(rows), p))(test)
    return test


class TestOracleProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=st.one_of(
        _sized_matrices(st.integers(1, 4), st.integers(1, 6)),
        _sized_matrices(st.just(1), st.integers(1, 6)),
        _sized_matrices(st.integers(1, 4), st.just(1)),
        _sized_matrices(st.just(2), st.just(2)),
    ))
    @_known_girth_examples
    def test_oracle_equals_every_root_bfs(self, case):
        m, p = case
        assert girth_oracle(m, p) == _girth_every_root(m, p)

    @pytest.mark.parametrize("rows, p, girth", _KNOWN_GIRTHS)
    def test_known_girths(self, rows, p, girth):
        m = ExponentMatrix.from_rows(rows)
        assert girth_oracle(m, p) == _girth_every_root(m, p) == girth


class TestEnumerationStructure:
    @pytest.mark.parametrize("symbols", [0, 1, 2, 3, 4, 6])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_sequences_are_the_lexicographic_product_filter(self, symbols, k):
        want = [
            seq
            for seq in itertools.product(range(symbols), repeat=k)
            if all(seq[i] != seq[(i + 1) % k] for i in range(k))
        ]
        got = _alternating_sequences(symbols, k)
        assert got.shape == (len(want), k)
        assert [tuple(seq) for seq in got.tolist()] == want

    def test_sequence_counts_match_formula(self):
        for symbols in (2, 3, 4, 6):
            for k in (2, 3, 4, 5, 6):
                assert len(_alternating_sequences(symbols, k)) == _alternating_count(
                    symbols, k
                )

    @pytest.mark.parametrize("k", [3, 5])
    def test_odd_half_length_needs_three_rows(self, k):
        # 6- and 10-cycles cannot live in two rows: the row sequence is an
        # odd cycle, which has no proper 2-coloring.  Verified structurally
        # on the enumeration tables used by the checker.
        assert _row_pairs(2, k).shape == (0, k)
        row_seqs = _decoded_table(3, 6, k) // 18  # r_i of each term
        assert all(len(set(map(int, rows))) >= 3 for rows in row_seqs.T)

    @pytest.mark.parametrize(
        "j, l, k",
        [
            (j, l, k)
            for j in range(1, 8)
            for l in range(1, 8)
            for k in range(2, 7)
            if _sequence_count(j, l, k) <= SEQUENCE_BUDGET
        ]
        + [(3, 10, 5)],
    )
    def test_table_equals_cross_product_reference(self, j, l, k):
        # The table is every (canonical row sequence, column sequence) pair in
        # order: the one-per-cycle reference plus pairs that are not their
        # cycle's smallest image.  So the first candidate closing at any P is
        # the reference's first, and sums and witnesses are unchanged.
        expected = _reference_cycle_table(j, l, k)
        table = _decoded_table(j, l, k)
        if expected is None:
            assert table is None
            return
        assert table.dtype == expected.dtype
        base = max(j, l)

        def keys(terms):
            digits = np.concatenate([terms // (j * l), terms % l])
            return base ** np.arange(2 * k - 1, -1, -1) @ digits

        got, want = keys(table), keys(expected)
        assert (np.diff(got) > 0).all()  # (row_seq, col_seq) order, no repeats
        assert np.isin(want, got).all()

        def row_keys(terms):  # each row sequence as one base-j integer, by Horner's rule
            key = np.zeros(terms.shape[1], np.int64)
            for r in terms // (j * l):
                key = key * j + r
            return np.unique(key)

        rows = row_keys(table)
        np.testing.assert_array_equal(rows, row_keys(expected))
        assert table.shape[1] == rows.size * _alternating_count(l, k)
        # Witnesses: the first closing candidate of a fixed matrix, at P = 2..30.
        rng = np.random.default_rng(j * 100 + l * 10 + k)
        entries = rng.integers(0, 30, size=(j, l))
        diffs = (entries[:, None, :] - entries[None, :, :]).ravel()
        sums, ref_sums = diffs[table].sum(axis=0), diffs[expected].sum(axis=0)
        for p in range(2, 31):
            hits, ref_hits = np.flatnonzero(sums % p == 0), np.flatnonzero(ref_sums % p == 0)
            assert hits.size >= ref_hits.size
            if ref_hits.size:
                assert got[hits[0]] == want[ref_hits[0]], p

    def test_cached_table_holds_two_index_arrays(self):
        # the (3,10) length-10 caches: row-pair codes of the 3 canonical row
        # sequences, the column sequences per front code, and one back code
        # per column sequence, not one index per candidate
        pairs = _row_pairs(3, 5)
        counts, back = _column_halves(10, 5)
        assert pairs.shape == (3, 5)
        assert counts.shape == (1000,)
        assert back.shape == (59_040,)
        assert counts.dtype == back.dtype == np.intp
        assert pairs.nbytes + counts.nbytes + back.nbytes == 480_440

    def test_front_never_decreases_and_its_counts_cover_the_table(self):
        # front codes come in order, so exponent_sums reads the front grid by
        # np.repeat over the counts; every back code lies in the back grid
        for l in range(1, 11):
            for k in range(2, 7):
                if _alternating_count(l, k) > SEQUENCE_BUDGET:
                    continue
                counts, back = _column_halves(l, k)
                seqs = _alternating_sequences(l, k).astype(np.int64)
                h = (k + 1) // 2
                front = seqs[:, :h] @ l ** np.arange(h - 1, -1, -1)
                np.testing.assert_array_equal(
                    np.repeat(np.arange(counts.size), counts), front)
                assert counts.size == l ** h, (l, k)
                assert counts.sum() == back.size == len(seqs), (l, k)
                np.testing.assert_array_equal(
                    back, seqs[:, h:] @ l ** np.arange(k - h - 1, -1, -1))

    @pytest.mark.parametrize("l", range(2, 13))
    def test_half_grids_stay_small(self, l):
        # the half grids, n_r * L^h and n_r * L^(k-h) cells, hold at most
        # 8/3 * k * n cells together for the n = n_r * n_c candidates, and
        # from L = 4 on each holds at most n
        for k in range(2, 7):
            if _sequence_count(3, l, k) > SEQUENCE_BUDGET or not _alternating_count(l, k):
                continue
            n_r = len(_row_pairs(3, k))
            n = n_r * _column_halves(l, k)[1].size
            grids = [n_r * l ** ((k + 1) // 2), n_r * l ** (k // 2)]
            assert 3 * sum(grids) <= 8 * k * n, (k, grids, n)
            if l >= 4:
                assert max(grids) <= n, (k, grids, n)

    @pytest.mark.parametrize("symbols, dtype", [(256, np.uint8), (300, np.uint16)])
    def test_sequences_are_narrow_and_their_keys_exact(self, symbols, dtype):
        seqs = _alternating_sequences(symbols, 2)
        assert seqs.dtype == dtype
        for order in ([0, 1], [1, 0]):
            want = [int(s[order[0]]) * symbols + int(s[order[1]]) for s in seqs.tolist()]
            keys = _sequence_keys(seqs, order, symbols)
            assert keys.dtype == np.int64
            assert keys.tolist() == want

    def test_build_peak_stays_small(self):
        # the (3,10) length-10 build keeps no int64 copy of the sequences and
        # no index per candidate: the one-table build peaked at 3.0 MB
        _row_pairs.cache_clear()
        _column_halves.cache_clear()
        tracemalloc.start()
        try:
            _row_pairs(3, 5)
            _column_halves(10, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("path", ["fixtures/seed_3x6.json", "bench/inputs/seed_3x10.json"])
    def test_witness_by_counts_equals_the_front_index_answer(self, path):
        # one step below min_P and at each length's own max|S|, every length
        # within the budget: the first closing candidate, decoded through the
        # front cells rebuilt in full
        seed = load_matrix(REPO_ROOT / path)
        closing = 0
        for length in SUPPORTED_CYCLE_LENGTHS:
            if _sequence_count(seed.rows, seed.cols, length // 2) > SEQUENCE_BUDGET:
                continue
            top = int(np.abs(exponent_sums(seed, length).astype(np.int64)).max())
            for p in (seed.spectrum.bound() - 1, top):
                want = _reference_find_cycle(seed, p, length)
                assert find_cycle(seed, p, length) == want, (length, p)
                closing += want is not None
        assert closing >= 5


class TestGirthReport:
    def test_witness_consistency_enforced(self, ref_seed):
        w = find_cycle(ref_seed, 448, 8)
        with pytest.raises(ValueError, match="witness"):
            GirthReport(12, EXPONENT_CHECK, w)
        with pytest.raises(ValueError, match="witness"):
            GirthReport(8, EXPONENT_CHECK, None)
        with pytest.raises(ValueError, match="witness"):
            GirthReport(8, GRAPH_BFS, w)

    def test_json_shape(self, ref_seed):
        report = girth_fast(ref_seed, 448)
        obj = report.to_json_dict()
        assert obj["girth"] == 8
        assert obj["method"] == EXPONENT_CHECK
        assert obj["witness"]["length"] == 8
        assert obj["witness"]["modulus"] == 448
        infinite = girth_fast(ExponentMatrix.from_rows([[0, 1]]), 5)
        assert infinite.to_json_dict()["girth"] is None
        assert infinite.to_json_dict()["witness"] is None


class TestExponentSums:
    def test_reference_seed_maximum_is_448(self, ref_seed):
        # every sum stays below the certified bound min_P = 449
        top = max(int(abs(exponent_sums(ref_seed, n)).max()) for n in (4, 6, 8, 10))
        assert top == 448

    def test_sums_match_the_witness_evaluation(self, ref_seed):
        sums = exponent_sums(ref_seed, 6)
        for i in range(0, len(sums), 97):
            rows, cols = _candidate(3, 6, 3, i)
            assert CycleWitness(6, rows, cols, 2).exponent_sum(ref_seed) == sums[i]

    def test_sums_are_exact_at_the_value_limit(self):
        # entries at MAX_VALUE: the int64 sums match Python integers
        rng = random.Random(59)
        m = ExponentMatrix.from_rows(
            [[rng.choice((0, MAX_VALUE)) for _ in range(4)] for _ in range(3)]
        )
        for length in (4, 6, 8, 10, 12):
            sums = exponent_sums(m, length)
            for i in range(0, len(sums), 11):
                rows, cols = _candidate(3, 4, length // 2, i)
                witness = CycleWitness(length, rows, cols, 2)
                assert witness.exponent_sum(m) == int(sums[i])

    def test_spectrum_rejects_size_past_the_value_limit(self, ref_seed):
        assert girth_fast(ref_seed, MAX_VALUE).witness is None
        with pytest.raises(ValueError, match="modulus"):
            girth_fast(ref_seed, MAX_VALUE + 1)

    def test_no_candidates_is_empty(self):
        assert exponent_sums(ExponentMatrix.from_rows([[0, 1, 2]]), 4).size == 0

    def test_budget_error(self):
        with pytest.raises(BudgetError, match="oracle"):
            exponent_sums(WIDE, 10)

    def test_shipped_3x10_length_10_sums_are_int16(self):
        spectrum = CycleSpectrum(SEED_3X10)
        sums, _, hi = spectrum._scan(10)
        assert sums.dtype == np.int16 and hi == 4417  # min_P = 4419 comes from length 8
        assert sums.nbytes == 354_240  # 177,120 candidates, 2 bytes each

    def test_a_cycle_is_summed_once_per_symmetry_fixing_its_rows(self):
        # (3,10) at length 8: 14,850 cycles, summed over every column sequence
        # of the 6 canonical row sequences, of 118,260 raw sequences
        assert _reference_cycle_table(3, 10, 4).shape[1] == 14_850
        assert exponent_sums(SEED_3X10, 8).size == len(_row_pairs(3, 4)) * 6570 == 39_420
        assert exponent_sums(SEED_3X10, 10).size == _reference_cycle_table(3, 10, 5).shape[1]


def _int64_sums(matrix, length):
    """Sums of the decoded (k, n) term table, gathered and added in int64."""
    terms = _decoded_table(matrix.rows, matrix.cols, length // 2)
    if terms is None:
        return np.zeros(0, dtype=np.int64)
    entries = np.asarray(matrix.entries, dtype=np.int64)
    return (entries[:, None, :] - entries[None, :, :]).ravel()[terms].sum(axis=0)


def _edge(k, which):
    """The largest entry for int16 / int32 sums of k terms, one past it, or MAX_VALUE."""
    return ((2 ** 15 - 2) // k, (2 ** 15 - 2) // k + 1,
            (2 ** 31 - 2) // k, (2 ** 31 - 2) // k + 1, MAX_VALUE)[which]


@st.composite
def _edge_matrices(draw):
    """(matrix, length): 2..3 x 2..4, max entry at a dtype edge of that length,
    sometimes with a repeated column (zero sums)."""
    length = draw(st.sampled_from([4, 6, 8, 10, 12]))
    top = _edge(length // 2, draw(st.integers(0, 4)))
    rows = [list(row) for row in draw(
        _matrices(st.integers(2, 3), st.integers(2, 4), st.integers(0, top))).entries]
    rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(rows[0]) - 1))] = top
    if draw(st.booleans()):
        c = draw(st.integers(1, len(rows[0]) - 1))
        for row in rows:
            row[c] = row[c - 1]
    return ExponentMatrix.from_rows(rows), length


class TestNarrowSums:
    """Sums in the narrowest exact dtype against int64 and Python integers."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=_edge_matrices())
    def test_dtype_edges_match_int64_and_python_integers(self, case):
        m, length = case
        k = length // 2
        sums = exponent_sums(m, length)
        assert sums.dtype == next(t for t in (np.int16, np.int32, np.int64)
                                  if np.iinfo(t).max > k * m.max_entry)
        np.testing.assert_array_equal(sums.astype(np.int64), _int64_sums(m, length))
        for i, total in enumerate(sums.tolist()):
            witness = CycleWitness(length, *_candidate(m.rows, m.cols, k, i), 2)
            assert witness.exponent_sum(m) == total
        wide = {n: _int64_sums(m, n) for n in (4, 6, 8, 10, 12)}
        tops = [int(np.abs(s).max()) for s in wide.values() if s.size]
        for p in {*range(2, 61), *tops, *(t + 1 for t in tops), 40_000, 2 ** 31 + 1, MAX_VALUE}:
            if not 2 <= p <= MAX_VALUE:
                continue
            hits = {n: np.flatnonzero(s % p == 0) for n, s in wide.items()}
            witness = girth_fast(m, p).witness
            assert (witness and witness.length) == next(
                (n for n in (4, 6, 8, 10) if hits[n].size), None), p
            for n, hit in hits.items():
                expected = (CycleWitness(n, *_candidate(m.rows, m.cols, n // 2, int(hit[0])), p)
                            if hit.size else None)
                assert find_cycle(m, p, n) == expected, (p, n)
        short = [np.abs(wide[n]) for n in (4, 6, 8, 10)]
        closes_12 = min(m.rows, m.cols) >= 2 and max(m.rows, m.cols) >= 3
        zero = any((s == 0).any() for s in short)
        top = max(int(s.max(initial=0)) for s in short)
        assert m.spectrum.bound() == (top + 1 if closes_12 and not zero else None)


def _matrices(rows, cols, entries):
    """Exponent matrices of any *entries* (not canonical, possibly >= P)."""
    grids = rows.flatmap(
        lambda j: cols.flatmap(
            lambda l: st.lists(
                st.lists(entries, min_size=l, max_size=l),
                min_size=j,
                max_size=j,
            )
        )
    )
    return grids.map(ExponentMatrix.from_rows)


class TestSpectrumProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        m=_matrices(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6)),
        p=st.integers(2, 500),
    )
    def test_shortest_cycle_matches_find_cycle_and_witnesses(self, m, p):
        # girth_fast's first hit vs find_cycle per length vs the uncached
        # reference scan, and each witness's own Python-integer evaluation
        witnesses = [find_cycle(m, p, n) for n in (4, 6, 8, 10)]
        for w in witnesses:
            assert w is None or w.holds_for(m)
        first = next((w for w in witnesses if w is not None), None)
        report = girth_fast(m, p)
        assert report.witness == first
        assert (report.girth == first.length) if first else (report.girth >= 12)
        assert (first and first.length or 0) == _reference_shortest_cycle(m, p)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=_matrices(st.just(3), st.integers(2, 5), st.integers(0, 300)), p=st.integers(2, 40))
    def test_three_row_girth_is_shortest_cycle_or_12(self, m, p):
        # (3,L) with L >= 2 always closes 12-cycles, L = 2 included
        assert girth_fast(m, p).girth == girth_oracle(m, p)


class TestSpectrumWitness:
    """find_cycle and girth_fast read the matrix's cached spectrum; the
    references rescan the sums on every call."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        m=_matrices(
            st.integers(2, 4),
            st.integers(2, 5),
            st.one_of(
                st.integers(0, 10 ** 6),
                st.just(MAX_VALUE),
                st.integers(MAX_VALUE - 10 ** 6, MAX_VALUE),
            ),
        ),
        ps=st.lists(
            st.one_of(st.integers(2, 500), st.integers(MAX_VALUE - 1000, MAX_VALUE)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_find_cycle_and_girth_fast_match_the_uncached_references(self, m, ps):
        for p in ps:
            for length in (4, 6, 8, 10, 12):
                assert find_cycle(m, p, length) == _reference_find_cycle(m, p, length)
            assert _outcome(girth_fast, m, p) == _outcome(_reference_girth_fast, m, p)


class TestMeetInTheMiddle:
    """The split-index sums against Python integers, candidate by candidate."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=_matrices(
            st.integers(2, 4),
            st.integers(2, 7),
            st.one_of(st.integers(0, MAX_VALUE), st.sampled_from([0, MAX_VALUE])),
        ),
        length=st.sampled_from([4, 6, 8, 10, 12]),
        p=st.integers(2, 60),
    )
    def test_sums_and_witnesses_match_python_integers(self, m, length, p):
        j, l, k = m.rows, m.cols, length // 2
        if _sequence_count(j, l, k) > SEQUENCE_BUDGET:
            with pytest.raises(BudgetError):
                exponent_sums(m, length)
            return
        sums = exponent_sums(m, length)
        terms = _decoded_table(j, l, k)
        assert len(sums) == (0 if terms is None else terms.shape[1])
        for i, total in enumerate(sums.tolist()):
            rows = tuple((terms[:, i] // (j * l)).tolist())
            cols = tuple((terms[:, i] % l).tolist())
            assert CycleWitness(length, rows, cols, 2).exponent_sum(m) == total
        for q in {p, *(abs(s) for s in sums[:3].tolist() if 2 <= abs(s) <= MAX_VALUE)}:
            assert find_cycle(m, q, length) == _reference_find_cycle(m, q, length)


def _reference_shortest_cycle(matrix, p):
    """Shortest length through 10 closing at *p*, else 0: one uncached scan per length."""
    for length in (4, 6, 8, 10):
        if (exponent_sums(matrix, length).astype(np.int64) % p == 0).any():
            return length
    return 0


@st.composite
def _divisor_matrices(draw):
    """Canonical or free 2..4 x 2..5 matrices, some with a repeated column (a zero sum)."""
    top = draw(st.sampled_from([20, 10 ** 4, MAX_VALUE]))
    rows = [list(row) for row in draw(
        _matrices(st.integers(2, 4), st.integers(2, 5), st.integers(0, top))).entries]
    if draw(st.booleans()):
        rows = [[0] * len(rows[0])] + [[0] + row[1:] for row in rows[1:]]
    if draw(st.booleans()):
        c = draw(st.integers(1, len(rows[0]) - 1))
        for row in rows:
            row[c] = row[c - 1]
    return ExponentMatrix.from_rows(rows)


class TestDivisorTest:
    """The divisor test by the number of multiples of p in [min|S|, max|S|]:
    none, one (an equality test) or more (a modulo), against the modulo alone."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=_divisor_matrices())
    def test_matches_the_modulo_at_the_edges_of_every_length(self, m):
        lengths = (4, 6, 8, 10, 12)
        ps = set()
        for length in lengths:
            sums = np.abs(exponent_sums(m, length))
            if sums.size:
                lo, hi = int(sums.min()), int(sums.max())
                ps |= {lo - 1, lo, lo + 1, hi // 2, hi // 2 + 1, hi, hi + 1}
        for p in sorted(p for p in ps if 2 <= p <= MAX_VALUE):
            witness = girth_fast(m, p).witness
            assert (witness and witness.length or 0) == _reference_shortest_cycle(m, p), p
            for n in lengths:
                assert find_cycle(m, p, n) == _reference_find_cycle(m, p, n), (p, n)
        for p in (0, 1, MAX_VALUE + 1):
            with pytest.raises(ValueError, match="modulus"):
                find_cycle(m, p, 4)
