from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from qcgirth import QcCode, SparseBinaryMatrix, expand, export_alist, import_alist

from conftest import random_canonical_matrix


def test_identity_exact_text():
    m = SparseBinaryMatrix(3, 3, ((0,), (1,), (2,)))
    assert export_alist(m) == (
        "3 3\n"
        "1 1\n"
        "1 1 1\n"
        "1 1 1\n"
        "1\n2\n3\n"
        "1\n2\n3\n"
    )


def test_hand_written_single_entry():
    # 2x2 with a lone one at row 1, column 1; zero padding fills the
    # weight-0 column and row lines.
    text = "2 2\n1 1\n1 0\n1 0\n1\n0\n1\n0\n"
    m = import_alist(text)
    assert m.n_rows == 2 and m.n_cols == 2
    assert m.row_supports == ((0,), ())


def test_round_trip_reference_expansion(ref_seed):
    h = expand(QcCode(ref_seed, 29))
    text = export_alist(h)
    assert import_alist(text) == h
    assert export_alist(import_alist(text)) == text


@st.composite
def _sparse_matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    supports = draw(
        st.lists(st.sets(st.integers(0, n_cols - 1)), min_size=n_rows, max_size=n_rows)
    )
    return SparseBinaryMatrix(n_rows, n_cols, tuple(tuple(sorted(s)) for s in supports))


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_round_trip_random_matrices(m):
    # irregular row and column weights, empty rows and columns included
    text = export_alist(m)
    assert import_alist(text) == m
    assert export_alist(import_alist(text)) == text


def test_round_trip_random_expansions():
    rng = random.Random(17)
    for _ in range(10):
        j, l, p = rng.randint(1, 3), rng.randint(1, 4), rng.randint(2, 9)
        h = expand(QcCode(random_canonical_matrix(rng, j, l, p), p))
        assert import_alist(export_alist(h)) == h


def test_unsorted_positions_accepted():
    # all-ones 2x2 with the first row line listed out of order
    text = "2 2\n2 2\n2 2\n2 2\n1 2\n1 2\n2 1\n1 2\n"
    m = import_alist(text)
    assert m.row_supports == ((0, 1), (0, 1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1\n1 1\n", "fewer than 4"),
        ("x 1\n1 1\n1\n1\n1\n1\n", "non-integer"),
        ("2 1\n1 1\n1 1\n2\n1\n1\n1 2\n", "weight"),
        ("1 1\n1 1\n1\n1\n2\n1\n", "out of range"),
        ("2 2\n2 2\n2 2\n2 2\n1 2\n1 2\n1 1\n1 2\n", "duplicate"),
        ("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n", "disagree"),
    ],
)
def test_malformed_inputs_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        import_alist(text)


def test_weight_above_declared_max_rejected():
    text = "2 2\n1 1\n2 0\n1 1\n1 2\n0\n1\n2\n"
    with pytest.raises(ValueError, match="exceeds declared maximum"):
        import_alist(text)
