from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings

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
from qcgirth.matrices import MAX_VALUE

from conftest import qc_codes, random_canonical_matrix


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


class TestSparseBinaryMatrix:
    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseBinaryMatrix(1, 3, ((2, 1),))

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseBinaryMatrix(1, 3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseBinaryMatrix(1, 3, ((3,),))

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
            SparseBinaryMatrix(len(supports), 3, supports)
        assert str(info.value) == message

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="n_rows"):
            SparseBinaryMatrix(2, 3, ((0,),))

    def test_empty_rows_allowed(self):
        m = SparseBinaryMatrix(2, 2, ((0,), ()))
        assert m.ones_count == 1

    def test_column_supports(self):
        m = SparseBinaryMatrix(3, 3, ((0, 2), (1,), (0,)))
        assert m.column_supports() == [[0, 2], [1], [0]]


def _loop_expand(code: QcCode) -> SparseBinaryMatrix:
    """Reference expansion: one Python tuple per check row, built entry by entry."""
    m, p = code.exponents, code.circulant_size
    shifts = [[e % p for e in row] for row in m.entries]
    supports = []
    for u in range(m.rows):
        for r in range(p):
            supports.append(tuple(v * p + (r + shifts[u][v]) % p for v in range(m.cols)))
    return SparseBinaryMatrix(m.rows * p, m.cols * p, tuple(supports))


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
        assert h.ones_count == 7074
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
            assert h.ones_count == j * l * p


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
