from __future__ import annotations

import json
import random
import re
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings

from qcgirth import (
    ExponentMatrix,
    QcCode,
    SparseBinaryMatrix,
    canonical_check,
    expand,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)

from qcgirth.cli import run
from qcgirth.extension import QcFamily, check_seed_conditions
from qcgirth.girth import CycleWitness, find_cycle, girth_fast, girth_oracle
from qcgirth.matrices import MAX_VALUE
from qcgirth.search import SearchConfig

from conftest import irregular_rows, qc_codes, random_canonical_matrix


class TestExponentMatrix:
    def test_shape_properties(self, ref_seed):
        assert ref_seed.rows == 3
        assert ref_seed.cols == 6
        assert ref_seed.max_entry == 224

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExponentMatrix(())
        with pytest.raises(ValueError):
            ExponentMatrix(((),))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="ragged"):
            ExponentMatrix(((0, 0), (0,)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            ExponentMatrix(((0, 0), (0, -1)))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ExponentMatrix(((0, 0.5), (0, 1)))

    @pytest.mark.parametrize("entry", [1.7, "3", True, np.int64(3)])
    def test_from_rows_converts_only_numpy_integers(self, entry):
        if isinstance(entry, np.integer):
            m = ExponentMatrix.from_rows([[0, entry]])
            assert m.entries == ((0, 3),) and type(m.entries[0][1]) is int
        else:
            with pytest.raises(ValueError, match="integers"):
                ExponentMatrix.from_rows([[0, entry]])

    def test_entry_limit(self):
        assert ExponentMatrix(((0, MAX_VALUE),)).max_entry == MAX_VALUE
        with pytest.raises(ValueError, match="exceeds the limit"):
            ExponentMatrix(((0, MAX_VALUE + 1),))


class TestCanonicalCheck:
    def test_reference_seed_passes(self, ref_seed):
        report = canonical_check(ref_seed)
        assert report.passed
        assert report.failures == ()

    def test_all_zero_passes(self):
        m = ExponentMatrix.from_rows([[0] * 6 for _ in range(3)])
        assert canonical_check(m).passed

    def test_nonzero_first_column_fails(self):
        m = ExponentMatrix.from_rows([[0, 0], [5, 2], [0, 3]])
        report = canonical_check(m)
        assert not report.passed
        assert "first column not zero" in report.failures

    def test_nonzero_first_row_fails(self):
        m = ExponentMatrix.from_rows([[0, 1], [0, 2]])
        report = canonical_check(m)
        assert not report.first_row_zero
        assert "first row not zero" in report.failures


class TestQcCode:
    def test_lengths(self, ref_seed):
        code = QcCode(ref_seed, 393)
        assert code.block_length == 2358
        assert code.parity_rows == 1179

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_rejects_small_p(self, ref_seed, p):
        with pytest.raises(ValueError):
            QcCode(ref_seed, p)

    def test_size_limit(self, ref_seed):
        assert QcCode(ref_seed, MAX_VALUE).block_length == 6 * MAX_VALUE
        with pytest.raises(ValueError, match="circulant size"):
            QcCode(ref_seed, MAX_VALUE + 1)


# Every API that takes a circulant size, modulus, Q or q_cap: (name, call).
_SIZE_TAKERS = {
    "QcCode": ("circulant size", QcCode),
    "girth_fast": ("modulus", girth_fast),
    "find_cycle": ("modulus", lambda m, v: find_cycle(m, v, 8)),
    "shortest_cycle": ("modulus", lambda m, v: m.spectrum.shortest_cycle(v)),
    "witness": ("modulus", lambda m, v: m.spectrum.witness(v, 8)),
    "girth_oracle": ("modulus", girth_oracle),
    "check_seed_conditions": ("Q", check_seed_conditions),
    "SearchConfig": ("q_cap", lambda m, v: SearchConfig(6, v)),
    "CycleWitness": ("modulus", lambda m, v: CycleWitness(4, (0, 1), (0, 1), v)),
}


class TestSizeRule:
    @pytest.mark.parametrize("value", [1, 2**59 + 1, 448.5, 448.0, np.int64(448), True],
                             ids=repr)
    @pytest.mark.parametrize("taker", _SIZE_TAKERS)
    def test_every_taker_refuses_with_one_message(self, ref_seed, taker, value):
        # floats and numpy integers used to pass the range-only checks: girth_fast
        # answered 12 at 448.5, and np.int64 reached the JSON report
        name, call = _SIZE_TAKERS[taker]
        with pytest.raises(ValueError) as info:
            call(ref_seed, value)
        assert str(info.value) == f"{name} must be an integer in [2, {MAX_VALUE}], got {value!r}"

    @pytest.mark.parametrize("sizes", [range(449, MAX_VALUE + 3), range(MAX_VALUE + 2, 448, -1)])
    def test_family_refuses_a_range_past_the_limit(self, ref_seed, sizes):
        with pytest.raises(ValueError) as info:
            QcFamily(ref_seed, sizes)
        assert str(info.value) == (f"circulant size must be an integer in [2, {MAX_VALUE}], "
                                   f"got {MAX_VALUE + 1}")


class TestSparseBinaryMatrix:
    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseBinaryMatrix.from_rows(1, 3, ((2, 1),))

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseBinaryMatrix.from_rows(1, 3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseBinaryMatrix.from_rows(1, 3, ((3,),))

    @pytest.mark.parametrize(
        "supports, message",
        [
            (((0, True),), "column index must be an integer, got True"),
            (((np.int64(1),),), "column index must be an integer, got np.int64(1)"),
            (((0.0,),), "column index must be an integer, got 0.0"),
            (((-1,),), "column indices must be strictly increasing"),
            (((1, 1),), "column indices must be strictly increasing"),
            (((0, 3),), "column index 3 out of range"),
            (((2 ** 70,),), f"column index {2 ** 70} out of range"),
            # The first offending index, row-major, decides the message.
            (((2, 1), (0, "a")), "column indices must be strictly increasing"),
            (((0, 1), (3, 2)), "column index 3 out of range"),
        ],
    )
    def test_rejection_messages(self, supports, message):
        with pytest.raises(ValueError) as info:
            SparseBinaryMatrix.from_rows(len(supports), 3, supports)
        assert str(info.value) == message

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="n_rows"):
            SparseBinaryMatrix.from_rows(2, 3, ((0,),))

    def test_empty_rows_allowed(self):
        m = SparseBinaryMatrix.from_rows(2, 2, ((0,), ()))
        assert m.indices.size == 1

    def test_column_supports(self):
        m = SparseBinaryMatrix.from_rows(3, 3, ((0, 2), (1,), (0,)))
        assert m.column_supports() == [[0, 2], [1], [0]]

    @pytest.mark.parametrize(
        "n_rows, indptr, indices, message",
        [
            (1, [0, 2], [2, 1], "column indices must be strictly increasing"),
            (1, [0, 2], [1, 1], "column indices must be strictly increasing"),
            (1, [0, 1], [-1], "column indices must be strictly increasing"),
            (1, [0, 1], [3], "column index 3 out of range"),
            # The first offending index, row-major, decides the message.
            (2, [0, 2, 4], [0, 3, 2, 1], "column index 3 out of range"),
            (2, [0, 2, 4], [2, 1, 0, 3], "column indices must be strictly increasing"),
            (2, [0, 0, 2], [0, 0], "column indices must be strictly increasing"),
            (3, [0, 1, 2], [0, 1], "row_supports length does not match n_rows"),
            (0, [0], [], "matrix must have at least one row and one column"),
            (1, [0, 1], [0, 1], "indptr must rise from 0 to len(indices) in flat arrays"),
            (1, [1, 2], [0, 1], "indptr must rise from 0 to len(indices) in flat arrays"),
            (3, [0, 2, 1, 2], [0, 1], "indptr must rise from 0 to len(indices) in flat arrays"),
            (1, [], [], "indptr must rise from 0 to len(indices) in flat arrays"),
            (1, [[0, 1]], [0], "indptr must rise from 0 to len(indices) in flat arrays"),
            (1, [0, 2], [[0, 1]], "indptr must rise from 0 to len(indices) in flat arrays"),
        ],
    )
    def test_array_rejection_messages(self, n_rows, indptr, indices, message):
        with pytest.raises(ValueError) as info:
            SparseBinaryMatrix(n_rows, 3, np.array(indptr, np.int64), np.array(indices, np.int64))
        assert str(info.value) == message

    @pytest.mark.parametrize("indptr, indices", [([0, 1], [1.0]), ([0.0, 1.0], [1]), ([0, 0], [])])
    def test_arrays_must_hold_integers(self, indptr, indices):
        with pytest.raises(TypeError, match="same_kind"):
            SparseBinaryMatrix(1, 3, indptr, indices)

    def test_array_path_accepts_rows_that_restart_low(self):
        m = SparseBinaryMatrix(3, 3, [0, 1, 3, 3], [2, 0, 1])
        assert m.row_supports == ((2,), (0, 1), ())

    def test_arrays_are_read_only_copies(self):
        indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
        m = SparseBinaryMatrix(2, 2, indptr, indices)
        indices[0] = 0
        assert m.row_supports == ((1,), (0,))
        assert m.indices.dtype == m.indptr.dtype == np.int64
        assert not m.indices.flags.writeable and not m.indptr.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(rows=irregular_rows())
    def test_tuple_and_array_built_agree(self, rows):
        n_rows, n_cols, supports = rows
        by_rows = SparseBinaryMatrix.from_rows(n_rows, n_cols, supports)
        indptr = np.cumsum([0] + [len(s) for s in supports])
        flat = np.array([c for s in supports for c in s], dtype=np.int64)
        by_arrays = SparseBinaryMatrix(n_rows, n_cols, indptr, flat)
        assert by_rows == by_arrays and hash(by_rows) == hash(by_arrays)
        assert by_rows.row_supports == by_arrays.row_supports == supports
        assert all(type(c) is int for s in by_arrays.row_supports for c in s)
        assert by_arrays.indices.size == len(flat)
        assert by_arrays != SparseBinaryMatrix(n_rows, n_cols + 1, indptr, flat)

    @settings(max_examples=150, deadline=None)
    @given(rows=irregular_rows())
    @example(rows=(3, 4, ((), (), ())))
    @example(rows=(1, 1, ((0,),)))
    def test_layout_matches_zip_longest_reference(self, rows):
        m = SparseBinaryMatrix.from_rows(*rows)
        n_rows, n_cols, supports = rows
        padded = zip_longest(*supports, fillvalue=n_cols)
        want_cols = np.array(list(padded), dtype=np.int64).reshape(-1, n_rows)
        col_rows = m.column_supports()
        want_gather = np.full(
            (max(map(len, col_rows)), n_cols), want_cols.size, dtype=np.int64
        )
        for c, rows_of_c in enumerate(col_rows):
            for k, r in enumerate(rows_of_c):
                want_gather[k, c] = supports[r].index(c) * n_rows + r
        cols, gather = m.layout
        assert np.array_equal(cols, want_cols) and cols.shape == want_cols.shape
        assert np.array_equal(gather, want_gather) and gather.shape == want_gather.shape


def _loop_expand(code: QcCode) -> SparseBinaryMatrix:
    """Reference expansion: one Python tuple per check row, built entry by entry."""
    m, p = code.exponents, code.circulant_size
    shifts = [[e % p for e in row] for row in m.entries]
    supports = []
    for u in range(m.rows):
        for r in range(p):
            supports.append(tuple(v * p + (r + shifts[u][v]) % p for v in range(m.cols)))
    return SparseBinaryMatrix.from_rows(m.rows * p, m.cols * p, tuple(supports))


class TestExpand:
    @settings(max_examples=100, deadline=None)
    @given(code=qc_codes())
    def test_matches_loop_expansion(self, code):
        h = expand(code)
        assert h == _loop_expand(code)
        assert all(type(c) is int for support in h.row_supports for c in support)
        assert all(type(support) is tuple for support in h.row_supports)

    def test_reference_seed_matches_loop_expansion(self, ref_seed):
        code = QcCode(ref_seed, 745)
        h = expand(code)
        assert h == _loop_expand(code)
        assert all(type(c) is int for support in h.row_supports for c in support)

    def test_identity_block(self):
        m = ExponentMatrix.from_rows([[0]])
        h = expand(QcCode(m, 3))
        assert h.row_supports == ((0,), (1,), (2,))

    def test_shift_one(self):
        m = ExponentMatrix.from_rows([[1]])
        h = expand(QcCode(m, 3))
        assert h.row_supports == ((1,), (2,), (0,))

    def test_reference_seed_counts(self, ref_seed):
        h = expand(QcCode(ref_seed, 393))
        assert (h.n_rows, h.n_cols) == (1179, 2358)
        assert h.indices.size == 7074
        assert all(len(s) == 6 for s in h.row_supports)
        assert all(len(s) == 3 for s in h.column_supports())

    def test_exponents_reduced_mod_p(self):
        m = ExponentMatrix.from_rows([[7]])
        assert expand(QcCode(m, 3)) == expand(QcCode(ExponentMatrix.from_rows([[1]]), 3))

    def test_deterministic(self, ref_seed):
        code = QcCode(ref_seed, 29)
        assert expand(code) == expand(code)

    def test_regular_degrees_random(self):
        rng = random.Random(5)
        for _ in range(20):
            j, l, p = rng.randint(1, 4), rng.randint(1, 5), rng.randint(2, 11)
            m = random_canonical_matrix(rng, j, l, p)
            h = expand(QcCode(m, p))
            assert all(len(s) == l for s in h.row_supports)
            assert all(len(s) == j for s in h.column_supports())
            assert h.indices.size == j * l * p


class TestMatrixJson:
    def test_round_trip(self, ref_seed):
        obj = matrix_to_json(ref_seed, label="seed")
        again = matrix_from_json(obj)
        assert again == ref_seed
        assert obj["label"] == "seed"

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            matrix_from_json({"rows": 1, "cols": 1})

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[0, 0], [0]]})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[0, -4]]})

    @pytest.mark.parametrize("entry, message", [
        (-4, "negative exponent -4"),
        (1.5, "must be integers, got 1.5"),
        (True, "must be integers, got True"),
        (None, "must be integers, got None"),
        ("3", "must be integers, got '3'"),
        ([1], r"must be integers, got \[1\]"),
        (2**59 + 1, f"exponent {2**59 + 1} exceeds the limit"),
    ])
    def test_bad_entry_rejected_by_the_matrix_rule(self, tmp_path, capsys, entry, message):
        obj = {"rows": 1, "cols": 2, "entries": [[0, entry]]}
        with pytest.raises(ValueError, match=message):
            matrix_from_json(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", "--matrix", str(path), "--q", "5"]).exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err)

    @pytest.mark.parametrize("shape", [
        {"rows": True, "cols": 2}, {"rows": 1, "cols": True}, {"rows": 1, "cols": 2.0},
        {"rows": 0, "cols": 2}, {"rows": 1, "cols": None},
    ])
    def test_shape_must_be_positive_integers(self, tmp_path, capsys, shape):
        # JSON true used to pass as 1 and load a 1 x 2 matrix
        obj = {**shape, "entries": [[0, 1]]}
        with pytest.raises(ValueError, match="rows and cols must be positive integers"):
            matrix_from_json(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", "--matrix", str(path), "--q", "5"]).exit_code == 2
        err = capsys.readouterr().err
        assert err == "error: rows and cols must be positive integers\n"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 3, "cols": 2, "entries": [[0, 0], [0, 1]]})

    def test_non_string_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[0]], "label": 7})

    def test_file_round_trip(self, tmp_path, ref_seed):
        path = tmp_path / "m.json"
        save_matrix(path, ref_seed, label="x")
        assert load_matrix(path) == ref_seed
        assert json.loads(path.read_text())["label"] == "x"

    def test_fixture_file_matches_reference(self, seed_fixture_path, ref_seed):
        assert load_matrix(seed_fixture_path) == ref_seed
