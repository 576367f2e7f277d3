from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qcgirth import (
    CSV_HEADER,
    ChannelParams,
    ExponentMatrix,
    QcCode,
    SparseBinaryMatrix,
    decode_sp,
    expand,
    monte_carlo,
    summaries_to_csv,
    syndrome,
)


TOY_H = SparseBinaryMatrix(
    3, 6, ((0, 1, 2), (2, 3, 4), (0, 4, 5))
)


class TestSyndrome:
    def test_zero_word(self):
        assert not syndrome(TOY_H, np.zeros(6, dtype=int)).any()

    def test_identity_reflects_word(self):
        eye = SparseBinaryMatrix(3, 3, ((0,), (1,), (2,)))
        word = np.array([1, 0, 1])
        assert syndrome(eye, word).tolist() == [1, 0, 1]

    def test_null_space_by_enumeration(self):
        # brute-force the null space of the toy matrix and confirm every
        # member (and only members) gets a zero syndrome
        null_words = []
        for bits in itertools.product((0, 1), repeat=6):
            parity = [
                bits[0] ^ bits[1] ^ bits[2],
                bits[2] ^ bits[3] ^ bits[4],
                bits[0] ^ bits[4] ^ bits[5],
            ]
            if not any(parity):
                null_words.append(bits)
        assert len(null_words) == 8  # rank 3 -> dimension 3
        for bits in null_words:
            assert not syndrome(TOY_H, np.array(bits)).any()
        assert syndrome(TOY_H, np.array([1, 0, 0, 0, 0, 0])).any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            syndrome(TOY_H, np.zeros(5, dtype=int))


class TestDecodeSp:
    @pytest.mark.parametrize(
        "rows, p",
        [
            ([[0, 0, 0, 0, 0, 0], [0, 3, 14, 18, 24, 26], [0, 19, 62, 107, 170, 224]], 97),
            ([[0, 0], [0, 1]], 5),
            ([[0, 1, 2]], 4),
        ],
    )
    def test_strong_positive_llrs_converge_immediately(self, rows, p):
        h = expand(QcCode(ExponentMatrix.from_rows(rows), p))
        result = decode_sp(h, np.full(h.n_cols, 20.0), max_iter=80)
        assert result.converged
        assert result.iterations_used == 1
        assert not result.decoded.any()
        assert not syndrome(h, result.decoded).any()

    def test_single_weak_error_corrected(self, ref_seed):
        h = expand(QcCode(ref_seed, 449))
        llr = np.full(h.n_cols, 20.0)
        llr[1234] = -2.0
        result = decode_sp(h, llr, max_iter=80)
        assert result.converged
        assert not result.decoded.any()

    def test_all_zero_llr_never_validates(self, ref_seed):
        h = expand(QcCode(ref_seed, 29))
        result = decode_sp(h, np.zeros(h.n_cols), max_iter=5)
        assert not result.converged
        assert result.iterations_used == 5

    def test_non_finite_llr_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            decode_sp(TOY_H, np.array([1.0, np.inf, 0, 0, 0, 0]), max_iter=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_cols"):
            decode_sp(TOY_H, np.zeros(4), max_iter=2)

    def test_converged_syndrome_always_zero(self, ref_seed):
        h = expand(QcCode(ref_seed, 53))
        rng = np.random.default_rng(77)
        converged_seen = 0
        for _ in range(40):
            received = 1.0 + rng.normal(0.0, 0.9, h.n_cols)
            result = decode_sp(h, 2.0 * received / 0.81, max_iter=30)
            if result.converged:
                converged_seen += 1
                assert not syndrome(h, result.decoded).any()
        assert converged_seen > 0


class TestChannelParams:
    def test_noise_variance(self):
        channel = ChannelParams(ebn0_db=3.0, rate=0.5, rng_seed=1)
        assert channel.noise_variance == pytest.approx(
            1.0 / (2.0 * 0.5 * 10.0 ** 0.3)
        )

    def test_noiseless_sentinel(self):
        assert ChannelParams(math.inf, 0.5, 1).noise_variance == 0.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ChannelParams(1.0, 1.0, 1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            ChannelParams(math.nan, 0.5, 1)

    @pytest.mark.parametrize("ebn0", [-math.inf, -3100.0, 4000.0])
    def test_rejects_unusable_noise_variance(self, ebn0):
        # zero, infinite and overflowing sigma^2 respectively
        with pytest.raises(ValueError, match="noise variance"):
            ChannelParams(ebn0, 0.5, 1)


class TestMonteCarlo:
    def test_noiseless_runs_error_free(self, ref_seed):
        code = QcCode(ref_seed, 29)
        channel = ChannelParams(math.inf, 0.5, 42)
        summary = monte_carlo(code, channel, max_iter=10, min_error_frames=5, frame_cap=20)
        assert summary.fer == 0.0
        assert summary.ber == 0.0
        assert summary.frames == 20
        assert summary.cap_hit

    def test_rejects_non_finite_channel_llrs(self, ref_seed):
        # sigma^2 = 1e-308 is finite and positive, but 2 / sigma^2 is not
        channel = ChannelParams(3080.0, 0.5, 1)
        with pytest.raises(ValueError, match="not finite"):
            monte_carlo(QcCode(ref_seed, 29), channel, 5, 1, 1)

    def test_frame_cap_semantics(self, ref_seed):
        code = QcCode(ref_seed, 29)
        channel = ChannelParams(0.0, 0.5, 42)
        summary = monte_carlo(code, channel, max_iter=10, min_error_frames=50, frame_cap=1)
        assert summary.frames == 1
        assert summary.cap_hit

    def test_deterministic(self, ref_seed):
        code = QcCode(ref_seed, 53)
        channel = ChannelParams(1.5, 0.5, 4242)
        a = monte_carlo(code, channel, max_iter=15, min_error_frames=5, frame_cap=40)
        b = monte_carlo(code, channel, max_iter=15, min_error_frames=5, frame_cap=40)
        assert a == b

    def test_stops_at_min_error_frames(self, ref_seed):
        code = QcCode(ref_seed, 29)
        channel = ChannelParams(-2.0, 0.5, 7)  # heavy noise: every frame errs
        summary = monte_carlo(code, channel, max_iter=5, min_error_frames=3, frame_cap=500)
        assert summary.frame_errors == 3
        assert not summary.cap_hit
        assert summary.fer == 3 / summary.frames

    def test_rate_consistency(self, ref_seed):
        code = QcCode(ref_seed, 29)
        channel = ChannelParams(0.5, 0.5, 11)
        s = monte_carlo(code, channel, max_iter=5, min_error_frames=2, frame_cap=30)
        assert s.ber == s.bit_errors / (s.frames * code.block_length)
        assert s.fer == s.frame_errors / s.frames

    def test_fer_drops_with_snr(self, ref_seed):
        # cheap statistical smoke check at a small circulant size; the
        # full-size monotonicity run lives in the acceptance suite
        code = QcCode(ref_seed, 53)
        noisy = monte_carlo(
            code, ChannelParams(0.0, 0.5, 99), max_iter=40,
            min_error_frames=20, frame_cap=400,
        )
        clean = monte_carlo(
            code, ChannelParams(4.0, 0.5, 99), max_iter=40,
            min_error_frames=20, frame_cap=400,
        )
        assert clean.fer < noisy.fer


class TestCsv:
    def test_header_and_rows(self, ref_seed):
        code = QcCode(ref_seed, 29)
        summaries = [
            monte_carlo(code, ChannelParams(e, 0.5, 3), 5, 2, 10) for e in (0.0, 4.0)
        ]
        text = summaries_to_csv(summaries)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[-1] in ("true", "false")
        assert "," in lines[2]
