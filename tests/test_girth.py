from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from qcgirth.girth import (
    SEQUENCE_BUDGET,
    _alternating_count,
    _alternating_sequences,
    _cycle_table,
    _sequence_count,
)
from qcgirth.matrices import MAX_VALUE

from conftest import random_canonical_matrix

# 3 x 40: 2.7e9 candidate 10-cycles, far past the sequence budget.
WIDE = ExponentMatrix.from_rows([[0] * 40, list(range(40)), list(range(0, 80, 2))])


def _candidate(j, l, k, i):
    """(row_seq, col_seq) of candidate *i* in the J x L table for 2k-cycles."""
    terms = [int(t) for t in _cycle_table(j, l, k)[:, i]]
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

    def test_rejects_out_of_range_evaluation(self, ref_seed):
        w = CycleWitness(4, (0, 9), (0, 1), 7)
        with pytest.raises(ValueError, match="out of range"):
            w.exponent_sum(ref_seed)


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

    def test_two_by_two_falls_back_to_bfs(self):
        # girth can exceed 12 for 2x2 shapes, so the checker defers to BFS
        m = ExponentMatrix.from_rows([[0, 0], [0, 1]])
        report = girth_fast(m, 5)
        assert report.method == GRAPH_BFS
        assert report.girth == 20
        assert girth_oracle(m, 5) == 20

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
        # 3 * 6 * 6000 = 108,000 edges, over the 100,000-edge budget
        with pytest.raises(BudgetError, match="100000"):
            girth_oracle(ref_seed, 6000)


class TestAgreement:
    def test_block_row_roots_equal_every_root(self):
        rng = random.Random(2024)
        for _ in range(300):
            j, l, p = rng.randint(1, 4), rng.randint(1, 6), rng.randint(2, 40)
            m = random_canonical_matrix(rng, j, l, p)
            assert girth_oracle(m, p) == _girth_every_root(m, p), (m, p)

    def test_fast_equals_oracle_on_random_matrices(self):
        rng = random.Random(12345)
        for _ in range(120):
            j = rng.choice((2, 3))
            l = rng.randint(2, 6)
            p = rng.randint(2, 53)
            m = random_canonical_matrix(rng, j, l, p)
            assert girth_fast(m, p).girth == girth_oracle(m, p)


class TestEnumerationStructure:
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
        assert _cycle_table(2, 6, k) is None
        row_seqs = _cycle_table(3, 6, k) // 18  # r_i of each term
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
        # same candidates in the same order, so sums and witnesses are unchanged
        expected = _reference_cycle_table(j, l, k)
        table = _cycle_table(j, l, k)
        if expected is None:
            assert table is None
        else:
            assert table.dtype == expected.dtype and table.flags.c_contiguous
            np.testing.assert_array_equal(table, expected)


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
        spectrum = CycleSpectrum(ref_seed)
        assert spectrum.shortest_cycle(MAX_VALUE) is None
        with pytest.raises(ValueError, match="modulus"):
            spectrum.shortest_cycle(MAX_VALUE + 1)

    def test_no_candidates_is_empty(self):
        assert exponent_sums(ExponentMatrix.from_rows([[0, 1, 2]]), 4).size == 0

    def test_budget_error(self):
        with pytest.raises(BudgetError, match="oracle"):
            exponent_sums(WIDE, 10)


def _matrices(rows, cols, max_entry):
    """Exponent matrices of any entries (not canonical, possibly >= P)."""
    grids = rows.flatmap(
        lambda j: cols.flatmap(
            lambda l: st.lists(
                st.lists(st.integers(0, max_entry), min_size=l, max_size=l),
                min_size=j,
                max_size=j,
            )
        )
    )
    return grids.map(ExponentMatrix.from_rows)


class TestSpectrumProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        m=_matrices(st.integers(2, 4), st.integers(2, 4), 10 ** 6),
        p=st.integers(2, 500),
    )
    def test_shortest_cycle_matches_find_cycle_and_witnesses(self, m, p):
        # unreduced sums (spectrum) vs reduced sums (find_cycle) vs the
        # witness's own Python-integer evaluation
        witnesses = [find_cycle(m, p, n) for n in (4, 6, 8, 10)]
        for w in witnesses:
            assert w is None or w.holds_for(m)
        first = next((w.length for w in witnesses if w is not None), None)
        assert CycleSpectrum(m).shortest_cycle(p) == first

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=_matrices(st.just(3), st.integers(2, 5), 300), p=st.integers(2, 40))
    def test_three_row_girth_is_shortest_cycle_or_12(self, m, p):
        # (3,L) with L >= 2 always closes 12-cycles, L = 2 included
        assert (CycleSpectrum(m).shortest_cycle(p) or 12) == girth_oracle(m, p)
