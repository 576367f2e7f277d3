from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgirth import (
    ExponentMatrix,
    SearchBudgetError,
    SearchConfig,
    check_seed_conditions,
    find_certified_seed,
    girth_fast,
    girth_oracle,
)
from qcgirth.cli import run
from qcgirth.girth import exponent_sums
from qcgirth.search import _child_grid, _extended


class TestSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cols": 0, "q_cap": 10},
            {"cols": 3, "q_cap": 1},
            {"cols": 3, "q_cap": 10, "restarts": 0},
            {"cols": 3, "q_cap": 2**59 + 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="cols=1"):
            SearchConfig(cols=1, q_cap=10)

    @pytest.mark.parametrize("field, value", [("cols", 3.0), ("cols", True), ("restarts", 2.5),
                                              ("restarts", True), ("restarts", "2")])
    def test_rejects_counts_that_are_not_ints(self, field, value):
        # a float cols used to fail in range() inside the search, a float
        # restarts at the beam slice, and restarts=True ran as width 1
        kwargs = {"cols": 3, "q_cap": 450, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            SearchConfig(**kwargs)


@st.composite
def parents(draw):
    """Canonical (3,L) matrices, L = 1..3, with free entries below 40."""
    l = draw(st.integers(1, 3))
    free = st.lists(st.integers(0, 39), min_size=l - 1, max_size=l - 1)
    return ExponentMatrix.from_rows([[0] * l, [0, *draw(free)], [0, *draw(free)]])


class TestChildGrid:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(parent=parents(), q=st.integers(2, 60), a0=st.integers(0, 60), b0=st.integers(0, 60))
    def test_cells_match_the_extended_spectrum(self, parent, q, a0, b0):
        a, b = (x.ravel() for x in np.meshgrid(np.arange(a0, a0 + 8), np.arange(b0, b0 + 8)))
        feasible, bound = _child_grid(parent, q, a, b)
        for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
            child = _extended(parent, ai, bi)
            assert feasible[i] == (girth_fast(child, q).girth == 12)
            if child.spectrum.bound() is not None:
                assert bound[i] == child.spectrum.bound()

    def test_two_columns_match_the_bfs_oracle(self):
        # independent derivation: the BFS girth of every (0, a, b) second
        # column at q, girth 12 or more exactly on the feasible cells
        q = 30
        root = ExponentMatrix.from_rows([[0], [0], [0]])
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))
        feasible, _ = _child_grid(root, q, a, b)
        for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
            assert feasible[i] == (girth_oracle(_extended(root, ai, bi), q) >= 12)
        assert feasible.any() and not feasible.all()

    def test_sums_are_widened_for_a_q_past_int16(self, ref_seed, monkeypatch):
        # the (3,4) prefix's children sum in int16, and q = 40,000 does not fit it
        parent = ExponentMatrix.from_rows([row[:4] for row in ref_seed.entries])
        assert exponent_sums(_extended(parent, 1, 0), 10).dtype == np.int16
        a, b = (x.ravel() for x in np.meshgrid(np.arange(0, 400, 7), np.arange(108, 700, 9)))
        narrow = _child_grid(parent, 40_000, a, b)
        monkeypatch.setattr("qcgirth.search.exponent_sums",
                            lambda m, n: exponent_sums(m, n).astype(np.int64))
        for got, expected in zip(narrow, _child_grid(parent, 40_000, a, b)):
            np.testing.assert_array_equal(got, expected)


class TestFindCertifiedSeed:
    def test_small_instance_certifies(self):
        cfg = SearchConfig(cols=3, q_cap=200, restarts=2)
        matrix, q, report = find_certified_seed(cfg)
        assert report.all_pass
        assert q <= 200
        assert report.min_p <= 2 * (cfg.q_cap - 1) + 1
        # re-verify through the public checker
        again = check_seed_conditions(matrix, q)
        assert again.all_pass
        assert girth_fast(matrix, q).girth == 12

    def test_budget_exhaustion_no_girth12_below_cap(self):
        # exhaustive ground truth: no canonical 3x3 matrix with entries
        # below 2 reaches girth 12 at Q=2, so the search must give up
        for a, b, c, d in itertools.product(range(2), repeat=4):
            m = ExponentMatrix.from_rows([[0, 0, 0], [0, a, b], [0, c, d]])
            g = girth_oracle(m, 2)
            assert g is not None and g < 12
        with pytest.raises(SearchBudgetError):
            find_certified_seed(SearchConfig(cols=3, q_cap=2, restarts=1))

    def test_infeasible_cap_raises(self):
        with pytest.raises(SearchBudgetError, match="q_cap too small"):
            find_certified_seed(SearchConfig(cols=3, q_cap=2))

    def test_certified_seed_extends(self):
        cfg = SearchConfig(cols=4, q_cap=250, restarts=2)
        matrix, q, report = find_certified_seed(cfg)
        for p in range(report.min_p, report.min_p + 12):
            assert girth_fast(matrix, p).girth == 12

    def test_output_reaches_girth_12_at_cap(self):
        for cols, q_cap in ((3, 120), (4, 393)):
            matrix, _, _ = find_certified_seed(SearchConfig(cols=cols, q_cap=q_cap, restarts=2))
            assert girth_fast(matrix, q_cap).girth == 12

    def test_columns_increase_in_row_2(self):
        matrix, _, _ = find_certified_seed(SearchConfig(cols=5, q_cap=300, restarts=2))
        row1, row2 = matrix.entries[1], matrix.entries[2]
        assert all(a <= b for a, b in zip(row1, row2))
        assert list(row2) == sorted(set(row2))

    def test_seed_does_not_change_the_result(self):
        # the CLI still requires --seed and ignores it: same stdout, same exit code
        for q_cap, exit_code in (("200", 0), ("2", 3)):
            argv = ["search", "--cols", "4", "--q-cap", q_cap, "--restarts", "2", "--seed"]
            outcomes = {run(argv + [s]) for s in ("0", "3", "7")}
            assert len(outcomes) == 1
            assert outcomes.pop().exit_code == exit_code
