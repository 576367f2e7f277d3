from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qcgirth.alist
from qcgirth import QcCode, SparseBinaryMatrix, expand, export_alist, import_alist

from conftest import REFERENCE_SEED, qc_codes, random_canonical_matrix


# Line-at-a-time reader and writer: the reference the array versions in
# qcgirth.alist must match byte for byte and message for message.


def _reference_export_alist(matrix: SparseBinaryMatrix) -> str:
    col_supports = matrix.column_supports()
    col_weights = [len(s) for s in col_supports]
    row_weights = [len(s) for s in matrix.row_supports]
    max_col = max(col_weights)
    max_row = max(row_weights)

    def padded(support, width):
        vals = [str(i + 1) for i in support] + ["0"] * (width - len(support))
        return " ".join(vals)

    lines = [
        f"{matrix.n_cols} {matrix.n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(w) for w in col_weights),
        " ".join(str(w) for w in row_weights),
    ]
    lines.extend(padded(s, max_col) for s in col_supports)
    lines.extend(padded(s, max_row) for s in matrix.row_supports)
    return "\n".join(lines) + "\n"


def _reference_int_fields(line: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as e:
        raise ValueError(f"alist: non-integer token in {what}: {line!r}") from e


def _reference_import_alist(text: str) -> SparseBinaryMatrix:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("alist: fewer than 4 header lines")
    n, m = _reference_parse_pair(lines[0], "size line")
    max_col, max_row = _reference_parse_pair(lines[1], "weight line")
    if n < 1 or m < 1:
        raise ValueError("alist: matrix dimensions must be positive")
    col_weights = _reference_int_fields(lines[2], "column weights")
    row_weights = _reference_int_fields(lines[3], "row weights")
    if len(col_weights) != n or len(row_weights) != m:
        raise ValueError("alist: weight list length mismatch")
    if col_weights and max(col_weights) > max_col:
        raise ValueError("alist: column weight exceeds declared maximum")
    if row_weights and max(row_weights) > max_row:
        raise ValueError("alist: row weight exceeds declared maximum")
    if len(lines) < 4 + n + m:
        raise ValueError("alist: truncated support lists")

    col_supports = [
        _reference_parse_support(lines[4 + j], col_weights[j], m, f"column {j + 1}")
        for j in range(n)
    ]
    row_supports = [
        _reference_parse_support(lines[4 + n + i], row_weights[i], n, f"row {i + 1}")
        for i in range(m)
    ]

    matrix = SparseBinaryMatrix.from_rows(
        m, n, tuple(tuple(sorted(s)) for s in row_supports)
    )
    derived_cols = [tuple(s) for s in matrix.column_supports()]
    if derived_cols != [tuple(sorted(s)) for s in col_supports]:
        raise ValueError("alist: column lists disagree with row lists")
    return matrix


def _reference_parse_pair(line: str, what: str) -> tuple[int, int]:
    fields = _reference_int_fields(line, what)
    if len(fields) != 2:
        raise ValueError(f"alist: expected two integers in {what}: {line!r}")
    return fields[0], fields[1]


def _reference_parse_support(line: str, weight: int, bound: int, what: str) -> list[int]:
    fields = _reference_int_fields(line, what)
    positions = [f for f in fields if f != 0]
    if len(positions) != weight:
        raise ValueError(
            f"alist: {what} lists {len(positions)} positions, expected {weight}"
        )
    if any(f < 0 for f in fields):
        raise ValueError(f"alist: negative position in {what}")
    zero_based = []
    seen = set()
    for f in positions:
        if f > bound:
            raise ValueError(f"alist: position {f} out of range in {what}")
        if f in seen:
            raise ValueError(f"alist: duplicate position {f} in {what}")
        seen.add(f)
        zero_based.append(f - 1)
    return zero_based


def test_identity_exact_text():
    m = SparseBinaryMatrix.from_rows(3, 3, ((0,), (1,), (2,)))
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
    return SparseBinaryMatrix.from_rows(n_rows, n_cols, tuple(tuple(sorted(s)) for s in supports))


def _assert_python_ints(m: SparseBinaryMatrix) -> None:
    assert all(type(c) is int for row in m.row_supports for c in row)


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_round_trip_random_matrices(m):
    # irregular row and column weights, empty rows and columns included
    text = export_alist(m)
    assert import_alist(text) == m
    assert export_alist(import_alist(text)) == text
    _assert_python_ints(import_alist(text))


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
@example(SparseBinaryMatrix.from_rows(1, 1, ((),)))
@example(SparseBinaryMatrix.from_rows(1, 1, ((0,),)))
@example(SparseBinaryMatrix.from_rows(3, 4, ((), (), ())))
@example(SparseBinaryMatrix.from_rows(2, 5, ((0, 4), ())))
def test_export_matches_reference(m):
    assert export_alist(m) == _reference_export_alist(m)


def _reference_lines(a) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in a.tolist())


@pytest.mark.parametrize("digits", range(1, 6))
def test_export_matches_reference_at_digit_widths(digits):
    # positions 9/10, 99/100, ... up to 10**digits, and row 0 and column 0 of
    # weight 11 or 101 (every line pads to the largest weight), so lines mix widths
    n = 10 ** digits
    heavy = min(n, 101 if n <= 1000 else 11)
    ones = {(b, b) for j in range(1, digits + 1) for b in (10 ** j - 2, 10 ** j - 1)}
    ones |= {(0, c) for c in range(heavy)} | {(r, 0) for r in range(heavy)}
    rows = [[] for _ in range(n)]
    for r, c in sorted(ones):
        rows[r].append(c)
    m = SparseBinaryMatrix.from_rows(n, n, tuple(map(tuple, rows)))
    text = export_alist(m)
    assert text == _reference_export_alist(m)
    assert import_alist(text) == m


def test_export_matches_reference_without_ones():
    # every weight, and so the maximum, is 0: each position line is empty
    for m in (SparseBinaryMatrix.from_rows(3, 4, ((), (), ())),
              SparseBinaryMatrix.from_rows(1, 1, ((),))):
        assert export_alist(m) == _reference_export_alist(m)


@pytest.mark.parametrize("digits", range(1, 20))
def test_lines_at_digit_widths(digits):
    # up to 19 digits, past the uint32 the writer uses below 2**32
    edge = [10 ** digits - 1, 10 ** digits] if digits < 19 else [2 ** 63 - 1]
    values = [0, 1, 9, *edge, 2 ** 32 - 1, 2 ** 32]
    a = np.array([values, values[::-1]], dtype=np.int64)
    assert qcgirth.alist._lines(a) == _reference_lines(a)
    assert qcgirth.alist._lines(a[:, :1]) == _reference_lines(a[:, :1])
    assert qcgirth.alist._lines(a.T) == _reference_lines(a.T)


def test_shipped_seed_export_matches_reference_at_4419(ref_seed):
    code = QcCode(ref_seed, 4419)
    assert export_alist(code) == _reference_export_alist(expand(code))


# A token replaced by an integer (zero, negative, in or out of range) or by
# a string ``int`` rejects or accepts, or respelled (zero-padded past 18
# digits among them); tokens added and dropped; other separators, some of
# them line breaks to ``str.splitlines`` (form feed, lone carriage return);
# spaces before and after; a line emptied; a position duplicated in its line;
# lines swapped.  Then lines appended past the support lists, CRLF or LF
# line ends, and a final line end or none.  Other whitespace is respaced onto
# the one-pass tokenizer; any other character, or a token past 18 digits, goes
# to the line reader.
_TOKENS = st.one_of(
    st.integers(-3, 14).map(str),
    st.sampled_from(["x", "+3", "1_0", "-0", "\u0663", "\ud800", "1" + "0" * 18, "9" * 20]),
)
_SPELLINGS = st.sampled_from(["+{}", "0{}", "{}.0", "{}e0", "{:0>19}", "{:0>20}"])
_SEPARATORS = {"double space": "  ", "tab": "\t", "form feed": "\x0c", "carriage return": "\r"}
_MUTATIONS = ("replace", "respell", "append", "drop", "pad", "empty", "duplicate", "swap",
              *_SEPARATORS)
_EXTRA_LINES = st.lists(st.sampled_from(["", "1 2", "x", "\u0663 1", "9" * 20]), max_size=2)


@st.composite
def _mutated_alist(draw):
    lines = _reference_export_alist(draw(_sparse_matrices())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        i = draw(st.one_of(st.integers(4, len(lines) - 1), st.integers(0, len(lines) - 1)))
        toks = lines[i].split(" ") if lines[i] else []
        if kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        if kind == "empty":
            toks = []
        elif kind == "pad":
            toks = [""] * draw(st.integers(0, 2)) + toks + [""] * draw(st.integers(0, 2))
        elif kind == "append":
            toks.insert(draw(st.integers(0, len(toks))), draw(_TOKENS))
        elif toks and kind in ("replace", "respell", "drop", "duplicate"):
            k = draw(st.integers(0, len(toks) - 1))
            if kind == "replace":
                toks[k] = draw(_TOKENS)
            elif kind == "respell":
                toks[k] = draw(_SPELLINGS).format(toks[k])
            elif kind == "drop":
                del toks[k]
            else:
                toks[k] = toks[draw(st.integers(0, len(toks) - 1))]
        lines[i] = _SEPARATORS.get(kind, " ").join(toks)
    lines += draw(_EXTRA_LINES)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(reader, text):
    try:
        return reader(text)
    except ValueError as e:
        return str(e)


@settings(max_examples=1000, deadline=None)
@given(_mutated_alist())
def test_mutated_text_matches_reference(text):
    got = _outcome(import_alist, text)
    assert got == _outcome(_reference_import_alist, text)
    if isinstance(got, SparseBinaryMatrix):
        _assert_python_ints(got)


def _plus_spelled_449() -> str:
    # the P = 449 expansion's export with every support position spelled +k
    lines = export_alist(expand(QcCode(REFERENCE_SEED, 449))).splitlines()
    lines[4:] = [" ".join(f"+{tok}" for tok in line.split()) for line in lines[4:]]
    return "\n".join(lines) + "\n"


_PLUS_SPELLED_449 = _plus_spelled_449()


@pytest.mark.parametrize("text", [
    "2 2\r\n1 1\r\n1 1\r\n1 1\r\n1\r\n2\r\n1\r\n2",  # CRLF, no final line end
    "2 2\n1 1\n1 1\n1 1\n1\n2\x0c1\n2\n",  # a form feed ends a line too
    "1 1\n99999999999999999999 0\n0\n0\n\n\n",  # a declared maximum past int64
    "1 1\n1 1\n1\n\ud800\n1\n1\n",  # a lone surrogate, which no codec encodes
    pytest.param(_PLUS_SPELLED_449, id="P449-plus-spelled"),  # read line by line
])
def test_line_breaks_and_long_tokens_match_reference(text):
    assert _outcome(import_alist, text) == _outcome(_reference_import_alist, text)
    if text == _PLUS_SPELLED_449:
        assert import_alist(text) == expand(QcCode(REFERENCE_SEED, 449))


def test_plain_text_never_reaches_line_tokenizer(monkeypatch, ref_seed):
    # an exported text is ASCII digits, single spaces and LF: one numpy pass, with no
    # splitlines; its CRLF and tab-separated forms are respaced onto that pass
    class Unsplit(str):
        def splitlines(self, keepends=False):
            raise AssertionError("plain alist text split into lines")

    def refuse(lines):
        raise AssertionError("alist text read line by line")

    monkeypatch.setattr(qcgirth.alist, "_read_lines", refuse)
    irregular = SparseBinaryMatrix.from_rows(3, 5, ((0, 4), (), (1, 2, 3, 4)))
    for h in (expand(QcCode(ref_seed, 449)), irregular):
        text = export_alist(h)
        for form in (Unsplit(text), text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            assert import_alist(form) == h


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
    assert import_alist(text.replace("2 1", "+2 1")) == m  # the line reader sorts too


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices(), st.randoms(use_true_random=False))
def test_line_reader_returns_what_the_array_checks_return(m, rnd):
    # support lines shuffled, zero padding included: the same N, M, lines and positions
    lines = export_alist(m).splitlines()
    for i in range(4, len(lines)):
        toks = lines[i].split()
        rnd.shuffle(toks)
        lines[i] = " ".join(toks)
    text = "\n".join(lines) + "\n"
    n, m_, *arrays = qcgirth.alist._supports(*qcgirth.alist._plain_tokens(text))
    walked = qcgirth.alist._read_lines(text.splitlines())
    assert walked[:2] == (n, m_) == (m.n_cols, m.n_rows)
    for got, want in zip(walked[2:], arrays):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1\n1 1\n", "fewer than 4"),
        ("x 1\n1 1\n1\n1\n1\n1\n", "non-integer"),
        ("2 1\n1 1\n1 1\n2\n1\n1\n1 2\n", "weight"),
        ("1 1\n1 1\n1\n1\n2\n1\n", "out of range"),
        ("2 2\n2 2\n2 2\n2 2\n1 2\n1 2\n1 1\n1 2\n", "duplicate"),
        ("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n", "disagree"),
        ("1 1 1\n1 1\n1\n1\n1\n1\n", "two integers in size line"),
        ("1 1\n1\n1\n1\n1\n1\n", "two integers in weight line"),
    ],
)
def test_malformed_inputs_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        import_alist(text)


def test_weight_above_declared_max_rejected():
    text = "2 2\n1 1\n2 0\n1 1\n1 2\n0\n1\n2\n"
    with pytest.raises(ValueError, match="exceeds declared maximum"):
        import_alist(text)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(qc_codes())
def test_code_export_equals_expansion_export(code):
    # a QcCode is written straight from its qc_layout arrays
    assert export_alist(code) == export_alist(expand(code))
