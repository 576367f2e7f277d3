from __future__ import annotations

import random

import pytest

from qcgirth import (
    CycleSpectrum,
    ExponentMatrix,
    FamilyVerificationError,
    check_seed_conditions,
    extend_family,
    family_manifest,
    find_cycle,
    girth_fast,
    girth_oracle,
    tightness_witness,
)
from qcgirth.cli import run
from qcgirth.extension import _member_girth, _row_extremes

from conftest import REPO_ROOT


def _plant_8_cycle_at_455(monkeypatch):
    """Tamper with the exponent sums: one 8-cycle sum becomes 455.

    Among P in 449..478 only 455 divides it, and Q=393 does not, so the seed
    still certifies and exactly one family member is defective.
    """
    import qcgirth.girth as girth

    real = girth.exponent_sums

    def tampered(matrix, length, **kwargs):
        sums = real(matrix, length, **kwargs)
        if length == 8:
            sums[0] = 455
        return sums

    monkeypatch.setattr(girth, "exponent_sums", tampered)


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

    def test_failing_seed_rejected(self):
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 1, 2], [0, 1, 2]])
        with pytest.raises(ValueError, match="extension conditions"):
            extend_family(m, 5, 11, 12)

    def test_verification_would_catch_a_bad_member(self, ref_seed, monkeypatch):
        _plant_8_cycle_at_455(monkeypatch)
        with pytest.raises(FamilyVerificationError, match="455") as info:
            extend_family(ref_seed, 393, 449, 478)
        assert info.value.girth == 8

    def test_sampled_members_stay_girth_12(self, ref_seed):
        rng = random.Random(31)
        report = check_seed_conditions(ref_seed, 393)
        for _ in range(20):
            p = rng.randint(report.min_p, report.min_p + 500)
            assert girth_fast(ref_seed, p).girth == 12


class TestTightnessWitness:
    def test_reference_seed(self, ref_seed):
        w = tightness_witness(ref_seed)
        assert w.modulus == 448
        assert w.col_seq == (0, 5, 0, 5)
        assert w.row_seq == (0, 2, 0, 2)
        assert w.exponent_sum(ref_seed) == 448
        assert girth_fast(ref_seed, 448).girth == 8

    def test_small_example(self):
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 1, 2], [0, 10, 7]])
        w = tightness_witness(m)
        assert w.modulus == 20
        assert w.col_seq == (0, 1, 0, 1)
        assert w.holds_for(m)

    def test_non_unique_maximum_falls_back(self):
        # both off-zero columns carry the row-2 maximum; the direct
        # construction is undefined but a generic 8-cycle search succeeds
        m = ExponentMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 9, 9]])
        w = tightness_witness(m)
        assert w.length == 8
        assert w.modulus == 18
        assert w.holds_for(m)
        assert find_cycle(m, 18, 8) == w

    def test_zero_row2_rejected(self):
        m = ExponentMatrix.from_rows([[0, 0], [0, 0], [0, 0]])
        with pytest.raises(ValueError, match="all zero"):
            tightness_witness(m)


class TestFamilyManifest:
    def test_schema(self, ref_seed):
        codes = extend_family(ref_seed, 393, 449, 451)
        manifest = family_manifest(ref_seed, 393, codes)
        assert set(manifest) == {"seed", "Q", "min_P", "members"}
        assert manifest["Q"] == 393
        assert manifest["min_P"] == 449
        assert manifest["members"][0] == {"P": 449, "N": 2694, "girth": 12}
        assert manifest["seed"]["entries"][2][5] == 224

    def test_reports_the_computed_girth(self, ref_seed, monkeypatch):
        _plant_8_cycle_at_455(monkeypatch)
        codes = extend_family(ref_seed, 393, 454, 456, verify=False)
        manifest = family_manifest(ref_seed, 393, codes)
        assert [m["girth"] for m in manifest["members"]] == [12, 8, 12]

    def test_shared_spectrum_scans_each_length_once(self, ref_seed, monkeypatch):
        import qcgirth.girth as girth

        real, calls = girth.exponent_sums, []

        def counted(matrix, length, **kwargs):
            calls.append(length)
            return real(matrix, length, **kwargs)

        monkeypatch.setattr(girth, "exponent_sums", counted)
        spectrum = CycleSpectrum(ref_seed)
        codes = extend_family(ref_seed, 393, 449, 478, spectrum=spectrum)
        family_manifest(ref_seed, 393, codes, spectrum=spectrum)
        assert calls == [4, 6, 8, 10]


class TestWholeFamilyCrossCheck:
    """The spectrum girth against both independent paths, P by P."""

    def test_matches_girth_fast_for_every_p_up_to_3000(self, ref_seed):
        spectrum = CycleSpectrum(ref_seed)
        for p in range(2, 3001):
            assert _member_girth(spectrum, p) == girth_fast(ref_seed, p).girth, p

    def test_matches_oracle_across_and_below_the_family(self, ref_seed):
        # 449..478 is the 30-member family; below min_P = 449, short cycles
        # close wherever P divides an exponent sum (8-cycles at P = 448)
        spectrum = CycleSpectrum(ref_seed)
        girths = {p: _member_girth(spectrum, p) for p in range(380, 479)}
        assert girths[448] == 8
        assert set(girths[p] for p in range(449, 479)) == {12}
        for p, girth in girths.items():
            assert girth == girth_oracle(ref_seed, p), p

    @pytest.mark.parametrize("flags", [[], ["--no-verify"]])
    def test_cli_manifest_is_unchanged(self, seed_fixture_path, flags):
        golden = REPO_ROOT / "tests" / "data" / "manifest_seed_3x6_q393_449_478.json"
        outcome = run(["extend", "--matrix", str(seed_fixture_path), "--q", "393",
                       "--from", "449", "--to", "478", *flags])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload + "\n" == golden.read_text(encoding="utf-8")
