from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcgirth import (
    CycleSpectrum,
    ExponentMatrix,
    QcCode,
    QcFamily,
    check_seed_conditions,
    extend_family,
    family_manifest,
    find_cycle,
    girth_fast,
    girth_oracle,
    tightness_witness,
)
from qcgirth.cli import run
from qcgirth.extension import MAX_FAMILY_MEMBERS, _row_extremes, family_columns
from qcgirth.matrices import MAX_LAYOUT_EDGES

from conftest import REFERENCE_SEED, REPO_ROOT


def _plant_8_cycle_at_455(monkeypatch):
    """Tamper with the exponent sums: one 8-cycle sum becomes 455.

    Among P in 449..478 only 455 divides it, and Q=393 does not, so the seed
    still passes the three conditions, but its bound max|S| + 1 rises to 456.
    """
    import qcgirth.girth as girth

    real = girth.exponent_sums

    def tampered(matrix, length, **kwargs):
        sums = real(matrix, length, **kwargs)
        if length == 8:
            sums[0] = 455
        return sums

    monkeypatch.setattr(girth, "exponent_sums", tampered)


@st.composite
def passing_seeds(draw, max_in_argmax_column=False):
    """(seed, Q): a canonical (3, 2..5) seed passing all three conditions at
    its smallest girth-12 size Q, or (seed, None) when some sum is zero.

    Row 2 gets a unique maximum at a random column x, with a gap over the
    other values of at least the row-1 maximum, and p1 < p2 column-wise.
    With *max_in_argmax_column* the row-1 maximum also sits in column x.
    """
    l = draw(st.integers(2, 5))
    distinct = st.lists(st.integers(1, 400), min_size=l - 1, max_size=l - 1, unique=True)
    p1 = [0] + draw(distinct)
    x = draw(st.integers(1, l - 1))
    if max_in_argmax_column:
        top = p1.index(max(p1))
        p1[x], p1[top] = p1[top], p1[x]
    p2 = [0] + [a + b for a, b in zip(p1[1:], draw(distinct))]
    second = max(p2[v] for v in range(l) if v != x)
    p2[x] = max(p2[x], second + max(p1) + draw(st.integers(0, 100)))
    seed = ExponentMatrix.from_rows([[0] * l, p1, p2])
    spectrum = CycleSpectrum(seed)
    for q in range(p2[x] + 1, _sum_ceiling(seed) + 1):
        if spectrum.shortest_cycle(q) is None:
            return seed, q
    return seed, None


def _sum_ceiling(seed: ExponentMatrix) -> int:
    """5 * p2_max: a 4- to 10-cycle adds at most five differences of entries
    in [0, p2_max], so past this only a zero sum can close a cycle."""
    return 5 * max(seed.entries[2])


# Seeds that break the canonical form, with the failures _check_seed names, in order.
_NON_CANONICAL = {
    "first_column": ([[0, 0, 0], [5, 2, 1], [0, 3, 4]], "first column not zero"),
    "first_row": ([[0, 1, 0], [0, 2, 1], [0, 3, 4]], "first row not zero"),
    "both": ([[1, 0, 0], [5, 2, 1], [0, 3, 4]], "first row not zero, first column not zero"),
}


class TestCheckSeedConditions:
    def test_reference_seed_report(self, ref_seed):
        report = check_seed_conditions(ref_seed, 393)
        assert report.all_pass
        assert report.p2_max == 224
        assert report.p2_second == 170
        assert report.p1_max == 26
        assert report.min_p == 449

    def test_elementwise_violation(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 5], [0, 3]])
        report = check_seed_conditions(m, 10)
        assert not report.cond2_elementwise

    def test_tied_maximum_makes_gap_zero(self):
        # second largest over the multiset: a repeated maximum forces a
        # zero gap, failing the condition for any nonzero row 1
        m = ExponentMatrix.from_rows(
            [[0, 0, 0], [0, 2, 5], [0, 224, 224]]
        )
        report = check_seed_conditions(m, 300)
        assert report.p2_max == 224
        assert report.p2_second == 224
        assert not report.cond3_gap

    def test_tied_maximum_with_zero_row1_passes_gap(self):
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 7, 7]])
        report = check_seed_conditions(m, 10)
        assert report.cond3_gap  # gap 0 >= p1_max 0

    def test_rejects_wrong_row_count(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"\(3,L\)"):
            check_seed_conditions(m, 5)

    def test_rejects_entries_at_or_above_q(self, ref_seed):
        with pytest.raises(ValueError, match=">= Q"):
            check_seed_conditions(ref_seed, 224)

    def test_rejects_non_canonical(self):
        m = ExponentMatrix.from_rows([[0, 0], [1, 2], [0, 3]])
        with pytest.raises(ValueError, match="canonical"):
            check_seed_conditions(m, 9)

    @pytest.mark.parametrize(
        "call",
        [lambda m: check_seed_conditions(m, 9), tightness_witness,
         lambda m: extend_family(m, 9, 100, 101)],
        ids=["check_seed_conditions", "tightness_witness", "extend_family"],
    )
    @pytest.mark.parametrize("rows, failures", _NON_CANONICAL.values(), ids=list(_NON_CANONICAL))
    def test_non_canonical_failures_named_in_order(self, call, rows, failures):
        with pytest.raises(ValueError) as info:
            call(ExponentMatrix.from_rows(rows))
        assert str(info.value) == f"seed not canonical: {failures}"

    @pytest.mark.parametrize("cols", [1, 2, 6])
    def test_all_zero_seed_passes_precondition(self, cols):
        m = ExponentMatrix.from_rows([[0] * cols for _ in range(3)])
        report = check_seed_conditions(m, 5)
        assert report.min_p is None  # zero sums: no bound, but no precondition error
        with pytest.raises(ValueError, match="^no min_P"):
            tightness_witness(m)

    def test_column_permutation_leaves_extremes_alone(self, ref_seed):
        rng = random.Random(4)
        base = _row_extremes(ref_seed)
        base_report = check_seed_conditions(ref_seed, 393)
        for _ in range(10):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            perm = [0] + perm
            m = ExponentMatrix.from_rows(
                [[row[v] for v in perm] for row in ref_seed.entries]
            )
            assert _row_extremes(m) == base
            report = check_seed_conditions(m, 393)
            assert report.cond2_elementwise == base_report.cond2_elementwise
            assert report.cond3_gap == base_report.cond3_gap
            assert report.min_p == base_report.min_p

    def test_json_keys(self, ref_seed):
        obj = check_seed_conditions(ref_seed, 393).to_json_dict()
        assert obj == {
            "cond1_girth12": True,
            "cond2_elementwise": True,
            "cond3_gap": True,
            "p2_max": 224,
            "p2_second": 170,
            "p1_max": 26,
            "min_P": 449,
        }


class TestExtendFamily:
    def test_thirty_members(self, ref_seed):
        codes = extend_family(ref_seed, 393, 449, 478)
        assert len(codes) == 30
        lengths = [c.block_length for c in codes]
        assert lengths == sorted(lengths)
        assert lengths == [6 * p for p in range(449, 479)]
        assert all(length < 2874 for length in lengths)

    def test_single_member(self, ref_seed):
        codes = extend_family(ref_seed, 393, 449, 449)
        assert len(codes) == 1
        assert codes[0].block_length == 2694

    def test_below_bound_rejected(self, ref_seed):
        with pytest.raises(ValueError, match="below the certified extension bound"):
            extend_family(ref_seed, 393, 448, 478)

    def test_empty_range_rejected(self, ref_seed):
        with pytest.raises(ValueError, match="empty range"):
            extend_family(ref_seed, 393, 460, 450)

    @pytest.mark.parametrize("name, p_lo, p_hi", [
        ("p_hi", 449, 460.0), ("p_lo", 449.0, 460), ("p_lo", True, 460),
        ("p_hi", 449, "460"), ("p_hi", 449, False)])
    def test_window_bounds_that_are_not_ints_rejected(self, name, p_lo, p_hi):
        # refused by name before the window, the seed or min_P is looked at:
        # a float used to fail in range(), p_lo=True met the min_P message
        value = {"p_lo": p_lo, "p_hi": p_hi}[name]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            extend_family(ExponentMatrix.from_rows([[0, 1]]), 393, p_lo, p_hi)

    def test_failing_seed_rejected(self):
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 1, 2], [0, 1, 2]])
        with pytest.raises(ValueError, match="extension conditions"):
            extend_family(m, 5, 11, 12)

    def test_verification_would_catch_a_bad_member(self, ref_seed, monkeypatch):
        # the certificate refuses the window that would hold the bad member
        _plant_8_cycle_at_455(monkeypatch)
        report = check_seed_conditions(ref_seed, 393)
        assert report.all_pass
        assert report.min_p == 456
        with pytest.raises(ValueError, match="449 < min_P=456"):
            extend_family(ref_seed, 393, 449, 478)
        assert len(extend_family(ref_seed, 393, 456, 478)) == 23

    def test_sampled_members_stay_girth_12(self, ref_seed):
        rng = random.Random(31)
        report = check_seed_conditions(ref_seed, 393)
        for _ in range(20):
            p = rng.randint(report.min_p, report.min_p + 500)
            assert girth_fast(ref_seed, p).girth == 12


class TestFamilySequence:
    """extend_family's range-backed family reads like the list of its members."""

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.integers(449, 5000),
        width=st.integers(1, 40),
        index=st.integers(-45, 45),
        window=st.tuples(
            st.none() | st.integers(-45, 45),
            st.none() | st.integers(-45, 45),
            st.none() | st.integers(-5, 5).filter(bool),
        ),
    )
    def test_reads_like_the_list_of_members(self, lo, width, index, window):
        hi = lo + width - 1
        codes = extend_family(REFERENCE_SEED, 393, lo, hi)
        reference = [QcCode(REFERENCE_SEED, p) for p in range(lo, hi + 1)]
        assert isinstance(codes, QcFamily)
        assert codes.sizes == range(lo, hi + 1)
        assert len(codes) == len(reference)
        if -width <= index < width:
            assert codes[index] == reference[index]
        else:
            with pytest.raises(IndexError):
                codes[index]
        part = slice(*window)
        assert list(codes[part]) == reference[part]
        assert list(codes[width:]) == [] == list(codes[::-1][width:])
        assert list(codes) == reference
        assert list(reversed(codes)) == reference[::-1]
        assert all(code in codes for code in reference)
        other = ExponentMatrix.from_rows([[0, 0], [0, 1], [0, 3]])
        outsiders = [QcCode(REFERENCE_SEED, lo - 1), QcCode(REFERENCE_SEED, hi + 1),
                     QcCode(other, lo), lo, None]
        for outsider in outsiders:
            assert (outsider in codes) is (outsider in reference) is False
        bounds = (window[0] or 0, width if window[1] is None else window[1])
        for code in reference + outsiders:
            assert _position(codes, code, *bounds) == _position(reference, code, *bounds)

    def test_full_window_builds_no_member(self, built_codes):
        hi = 449 + MAX_FAMILY_MEMBERS - 1
        codes = extend_family(REFERENCE_SEED, 393, 449, hi)
        assert len(codes) == MAX_FAMILY_MEMBERS
        assert built_codes == []
        members = family_manifest(codes, 393)["members"]
        assert built_codes == []
        assert members[-1] == {"P": hi, "N": 6 * hi, "girth": 12}
        assert codes[-1].block_length == 6 * hi
        assert built_codes == [hi]

    def test_in_and_index_on_the_full_window_build_no_member(self, built_codes):
        hi = 449 + MAX_FAMILY_MEMBERS - 1
        codes = extend_family(REFERENCE_SEED, 393, 449, hi)
        last, past = QcCode(REFERENCE_SEED, hi), QcCode(REFERENCE_SEED, hi + 1)
        assert last in codes and past not in codes
        assert codes.index(last) == MAX_FAMILY_MEMBERS - 1
        with pytest.raises(ValueError, match="not in the family"):
            codes.index(past)
        assert built_codes == [hi, hi + 1]  # the two probes only

    def test_count_builds_no_member(self, built_codes):
        codes = extend_family(REFERENCE_SEED, 393, 449, 449 + MAX_FAMILY_MEMBERS - 1)
        probes = [QcCode(REFERENCE_SEED, 500), QcCode(REFERENCE_SEED, 448)]
        assert [codes.count(code) for code in probes] == [1, 0]
        assert built_codes == [500, 448]  # the two probes only

    def test_count_agrees_with_the_list(self):
        codes = extend_family(REFERENCE_SEED, 393, 449, 460)
        other = ExponentMatrix.from_rows([[0, 0], [0, 1], [0, 3]])
        probes = [*codes, QcCode(REFERENCE_SEED, 448), QcCode(REFERENCE_SEED, 461),
                  QcCode(other, 450), 450, None]
        for family in (codes, codes[::-2], codes[3:3]):
            members = list(family)
            assert [family.count(c) for c in probes] == [members.count(c) for c in probes]

    def test_window_past_max_value_raises_for_its_first_size(self, ref_seed):
        top = 2**59
        with pytest.raises(ValueError, match=f"got {top + 1}$"):
            extend_family(ref_seed, 393, top - 1, top + 1)
        with pytest.raises(ValueError, match=f"got {top + 3}$"):
            extend_family(ref_seed, 393, top + 3, top + 8)
        assert extend_family(ref_seed, 393, top - 1, top)[-1].circulant_size == top


def _position(seq, code, start, stop):
    """``seq.index(code, start, stop)``, or None when *code* is not found there."""
    try:
        return seq.index(code, start, stop)
    except ValueError:
        return None


class TestFamilyConstructor:
    """QcFamily holds only sizes at or above its seed's bound min_P = 449."""

    @pytest.mark.parametrize("sizes", [range(400, 410), range(409, 399, -1), range(448, 460),
                                       range(459, 447, -1), range(500, 440, -3)])
    def test_refuses_a_size_below_the_bound(self, sizes):
        with pytest.raises(ValueError, match=f"extension bound: {min(sizes)} < min_P=449$"):
            QcFamily(REFERENCE_SEED, sizes)

    @pytest.mark.parametrize("sizes, first_past", [
        (range(2**59 - 1, 2**59 + 2), 2**59 + 1),
        (range(2**59 + 1, 2**59 - 2, -1), 2**59 + 1),
        (range(2**59 - 1, 2**59 + 10, 4), 2**59 + 3),
        (range(2**59 + 7, 2**59 - 2, -4), 2**59 + 3),
        (range(2**59 + 5, 2**59 + 9), 2**59 + 5),
    ])
    def test_refuses_a_size_past_max_value(self, sizes, first_past):
        with pytest.raises(ValueError, match=f"got {first_past}$"):
            QcFamily(REFERENCE_SEED, sizes)

    @pytest.mark.parametrize("sizes", [[449, 450], (449,), 449])
    def test_refuses_sizes_that_are_not_a_range(self, sizes):
        with pytest.raises(TypeError, match="must be a range"):
            QcFamily(REFERENCE_SEED, sizes)

    @pytest.mark.parametrize("sizes", [range(0), range(400, 400), range(410, 400),
                                       range(400, 410, -1), range(2**60, 2**60)])
    def test_accepts_an_empty_range(self, sizes):
        assert len(QcFamily(REFERENCE_SEED, sizes)) == 0
        no_bound = ExponentMatrix.from_rows([[0, 0, 0], [0, 1, 2], [0, 10, 7]])
        assert list(QcFamily(no_bound, sizes)) == []

    @pytest.mark.parametrize("sizes", [range(449, 461), range(460, 448, -1),
                                       range(2**59 - 11, 2**59 + 1)])
    def test_accepts_every_slice_of_a_family(self, sizes):
        family = QcFamily(REFERENCE_SEED, sizes)
        for start in range(-13, 14):
            for stop in range(-13, 14):
                for step in (-12, -5, -2, -1, 1, 2, 5, 12):
                    part = family[start:stop:step]
                    assert part.sizes == sizes[start:stop:step]
                    assert part[::-1].sizes == sizes[start:stop:step][::-1]


class TestExactBound:
    @settings(max_examples=60, deadline=None)
    @given(passing_seeds())
    def test_family_is_girth_12_from_min_p_and_not_below(self, case):
        seed, q = case
        assume(q is not None)  # some exponent sum is zero
        report = check_seed_conditions(seed, q)
        assert report.all_pass
        assume(seed.rows * seed.cols * report.min_p <= MAX_LAYOUT_EDGES)
        assert girth_oracle(seed, report.min_p) == 12
        assert girth_oracle(seed, report.min_p - 1) < 12
        spectrum = CycleSpectrum(seed)
        for p in range(report.min_p, _sum_ceiling(seed) + 1):
            assert spectrum.shortest_cycle(p) is None, p

    @settings(max_examples=100, deadline=None)
    @given(passing_seeds(max_in_argmax_column=True))
    def test_paper_formula_holds_with_row1_max_in_row2_argmax_column(self, case):
        seed, q = case
        assume(q is not None)
        report = check_seed_conditions(seed, q)
        assert report.all_pass
        assert report.min_p == 2 * report.p2_max + 1


class TestTightnessWitness:
    def test_reference_seed(self, ref_seed):
        w = tightness_witness(ref_seed)
        assert w.modulus == 448
        assert w.col_seq == (0, 5, 0, 5)
        assert w.row_seq == (0, 2, 0, 2)
        assert w.exponent_sum(ref_seed) == 448
        assert girth_fast(ref_seed, 448).girth == 8

    def test_small_example(self):
        # row 1 steps 0, 1, 2 evenly: the 8-cycle on block-rows 0 and 1 through
        # columns 0, 1, 2, 1 sums to 1 - 2 + 1 = 0 and closes at every P
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 1, 2], [0, 10, 7]])
        assert CycleSpectrum(m).bound() is None
        with pytest.raises(ValueError, match="sum is zero"):
            tightness_witness(m)

    def test_non_unique_maximum_falls_back(self):
        # a repeated row-2 value closes a 4-cycle at every P (block-rows 0
        # and 2, the two tied columns), so there is no bound
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 9, 9]])
        with pytest.raises(ValueError, match="sum is zero"):
            tightness_witness(m)

    def test_zero_row2_rejected(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 0], [0, 0]])
        with pytest.raises(ValueError, match="sum is zero"):
            tightness_witness(m)

    @pytest.mark.parametrize("rows", [[[0, 0, 0], [0, 1, 2], [0, 10, 7]], [[0], [0], [0]]])
    def test_no_bound_is_the_family_error(self, rows):
        # a zero sum, or a (3,1) seed, which used to get its own message
        m = ExponentMatrix.from_rows(rows)
        with pytest.raises(ValueError) as family:
            QcFamily(m, range(500, 501))
        with pytest.raises(ValueError) as witness:
            tightness_witness(m)
        assert str(witness.value) == str(family.value)
        assert str(family.value).startswith("no min_P:")

    @pytest.mark.parametrize("rows", [[[0, 0], [0, 1]], [[0, 0], [0, 1], [0, 3], [0, 4]],
                                      [[1, 0], [0, 1], [0, 3]], [[0, 0], [0, 1], [2, 3]]])
    def test_seed_precondition_is_the_conditions_error(self, rows):
        # not (3,L), or not canonical: check_seed_conditions' own messages
        m = ExponentMatrix.from_rows(rows)
        with pytest.raises(ValueError) as conditions:
            check_seed_conditions(m, 5)
        with pytest.raises(ValueError) as witness:
            tightness_witness(m)
        assert str(witness.value) == str(conditions.value)
        assert str(witness.value).startswith(("seed conditions apply", "seed not canonical"))

    def test_unsound_formula_seed_is_tight_at_79(self):
        # 2 * p2_max + 1 = 79, yet a 10-cycle closes there; the bound is 80
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 8, 9], [0, 39, 25]])
        w = tightness_witness(m)
        assert (w.length, w.modulus) == (10, 79)
        assert w.holds_for(m)
        assert girth_oracle(m, 79) == 10


class TestFamilyManifest:
    def test_schema(self, ref_seed):
        codes = extend_family(ref_seed, 393, 449, 451)
        manifest = family_manifest(codes, 393)
        assert set(manifest) == {"seed", "Q", "min_P", "members"}
        assert manifest["Q"] == 393
        assert manifest["min_P"] == 449
        assert manifest["members"][0] == {"P": 449, "N": 2694, "girth": 12}
        assert manifest["seed"]["entries"][2][5] == 224

    def test_refuses_sizes_below_the_bound(self, ref_seed, monkeypatch):
        # the planted 8-cycle raises the bound to 456: P = 455 is refused,
        # P = 456 is listed with girth 12
        _plant_8_cycle_at_455(monkeypatch)
        for sizes in (range(455, 456), range(457, 454, -1), range(455, 460)):
            with pytest.raises(ValueError, match="455 < min_P=456"):
                QcFamily(ref_seed, sizes)
        manifest = family_manifest(QcFamily(ref_seed, range(457, 455, -1)), 393)
        assert manifest["min_P"] == 456
        assert manifest["members"] == [{"P": 457, "N": 2742, "girth": 12},
                                       {"P": 456, "N": 2736, "girth": 12}]
        assert family_columns(QcFamily(ref_seed, range(456, 458))).tolist() == [
            [456, 2736, 12], [457, 2742, 12]]

    def test_refuses_a_seed_with_no_bound(self):
        # the 8-cycle on block-rows 0, 1 through columns 0, 1, 2, 1 sums to 0
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 1, 2], [0, 10, 7]])
        for sizes in (range(500, 501), range(2, 10), range(9, 1, -1)):
            with pytest.raises(ValueError, match="no min_P"):
                QcFamily(m, sizes)

    @pytest.mark.parametrize("rows", [[[0, 0], [0, 1]], [[0], [0], [0]], [[0, 1, 2]]])
    def test_refuses_a_shape_without_12_cycles_at_every_p(self, rows):
        # a 2 x 2 seed's girth is 4P / gcd(P, 1), 20 at P = 5; one row or
        # one column is acyclic: no such family is girth 12
        m = ExponentMatrix.from_rows(rows)
        assert m.spectrum.bound() is None
        with pytest.raises(ValueError, match="no min_P"):
            QcFamily(m, range(5, 6))

    def test_shared_spectrum_scans_each_length_once(self, monkeypatch):
        import qcgirth.girth as girth

        real, calls = girth.exponent_sums, []

        def counted(matrix, length, **kwargs):
            calls.append(length)
            return real(matrix, length, **kwargs)

        monkeypatch.setattr(girth, "exponent_sums", counted)
        seed = ExponentMatrix(REFERENCE_SEED.entries)
        assert check_seed_conditions(seed, 393).all_pass
        codes = extend_family(seed, 393, 449, 478)
        family_manifest(codes, 393)
        assert tightness_witness(seed).modulus == 448
        assert girth_fast(seed, 448).girth == 8
        assert find_cycle(seed, 448, 8) is not None
        assert calls == [4, 6, 8, 10]


class TestWholeFamilyCrossCheck:
    """The spectrum girth against both independent paths, P by P."""

    def test_matches_girth_fast_for_every_p_up_to_3000(self, ref_seed):
        spectrum = CycleSpectrum(ref_seed)
        for p in range(2, 3001):
            assert (spectrum.shortest_cycle(p) or 12) == girth_fast(ref_seed, p).girth, p

    def test_matches_oracle_across_and_below_the_family(self, ref_seed):
        # 449..478 is the 30-member family; below min_P = 449, short cycles
        # close wherever P divides an exponent sum (8-cycles at P = 448)
        spectrum = CycleSpectrum(ref_seed)
        girths = {p: spectrum.shortest_cycle(p) or 12 for p in range(380, 479)}
        assert girths[448] == 8
        assert set(girths[p] for p in range(449, 479)) == {12}
        for p, girth in girths.items():
            assert girth == girth_oracle(ref_seed, p), p

    def test_cli_manifest_is_unchanged(self, seed_fixture_path):
        golden = REPO_ROOT / "tests" / "data" / "manifest_seed_3x6_q393_449_478.json"
        outcome = run(["extend", "--matrix", str(seed_fixture_path), "--q", "393",
                       "--from", "449", "--to", "478"])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload + "\n" == golden.read_text(encoding="utf-8")
