from __future__ import annotations

import itertools
import math
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from qcgirth import decoder
from qcgirth.cli import run
from qcgirth.decoder import (
    _ATANH_LIMIT,
    _NOT_FINITE,
    LLR_CLAMP,
    DecodeResult,
    _Workspace,
    _sum_in_order,
)
from qcgirth.matrices import qc_layout

from conftest import REFERENCE_SEED, REPO_ROOT

# monte_carlo may fork decoder workers; none may outlive a test
pytestmark = pytest.mark.usefixtures("no_leaked_children")


TOY_H = SparseBinaryMatrix.from_rows(
    3, 6, ((0, 1, 2), (2, 3, 4), (0, 4, 5))
)


def _reference_decode(matrix, llr, max_iter):
    """Reference sum-product decoder on flat edge lists with np.bincount.

    The same schedule, clamps, tie rule and stopping rule as decode_sp,
    without its fixed-degree layout.
    """
    rows, cols = [], []
    for r, support in enumerate(matrix.row_supports):
        rows.extend([r] * len(support))
        cols.extend(support)
    row_e, col_e = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    m, n = matrix.n_rows, matrix.n_cols
    v2c = np.clip(llr[col_e], -LLR_CLAMP, LLR_CLAMP)
    hard = np.zeros(n, dtype=np.uint8)
    for iteration in range(1, max_iter + 1):
        t = np.tanh(0.5 * v2c)
        is_zero = t == 0.0
        log_mag = np.log(np.where(is_zero, 1.0, np.abs(t)))
        is_neg = t < 0.0
        row_log = np.bincount(row_e, weights=log_mag, minlength=m)
        row_neg = np.bincount(row_e, weights=is_neg, minlength=m)
        row_zero = np.bincount(row_e, weights=is_zero, minlength=m)
        zero_excl = row_zero[row_e] - is_zero
        sign_excl = 1.0 - 2.0 * ((row_neg[row_e] - is_neg) % 2)
        prod_excl = np.where(
            zero_excl > 0, 0.0, sign_excl * np.exp(row_log[row_e] - log_mag)
        )
        c2v = 2.0 * np.arctanh(np.clip(prod_excl, -_ATANH_LIMIT, _ATANH_LIMIT))
        total = llr + np.bincount(col_e, weights=c2v, minlength=n)
        hard = (total < 0.0).astype(np.uint8)
        if not (total == 0.0).any():
            parity = np.bincount(
                row_e, weights=hard[col_e].astype(np.float64), minlength=m
            ) % 2
            if not parity.any():
                return DecodeResult(hard, True, iteration)
        v2c = np.clip(total[col_e] - c2v, -LLR_CLAMP, LLR_CLAMP)
    return DecodeResult(hard, False, max_iter)


# LLRs that exercise the clamp, exact-zero messages, signed zeros,
# subnormals (whose half underflows to zero) and ties.
_SPECIAL_LLRS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 30.0, -30.0, 45.0, -1e3)


@st.composite
def _llrs(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mean, scale = draw(st.sampled_from([0.0, 1.0, 3.0])), draw(st.sampled_from([1.0, 4.0, 40.0]))
    llr = rng.normal(mean, scale, n)
    for value in draw(st.lists(st.sampled_from(_SPECIAL_LLRS), max_size=4)):
        llr[rng.random(n) < draw(st.sampled_from([0.02, 0.3, 1.0]))] = value
    return llr


@st.composite
def _qc_codes(draw):
    j, l, p = draw(st.integers(1, 4)), draw(st.integers(1, 10)), draw(st.integers(2, 60))
    row = st.lists(st.integers(0, 200), min_size=l, max_size=l)
    rows = draw(st.lists(row, min_size=j, max_size=j))
    return QcCode(ExponentMatrix.from_rows(rows), p)


@st.composite
def _sparse_matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    support = st.sets(st.integers(0, n_cols - 1))
    supports = draw(st.lists(support, min_size=n_rows, max_size=n_rows))
    return SparseBinaryMatrix.from_rows(n_rows, n_cols, tuple(tuple(sorted(s)) for s in supports))


def _same(a, b):
    return (
        a.decoded.dtype == b.decoded.dtype
        and np.array_equal(a.decoded, b.decoded)
        and a.converged == b.converged
        and a.iterations_used == b.iterations_used
    )


class TestSyndrome:
    def test_zero_word(self):
        assert not syndrome(TOY_H, np.zeros(6, dtype=int)).any()

    def test_identity_reflects_word(self):
        eye = SparseBinaryMatrix.from_rows(3, 3, ((0,), (1,), (2,)))
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

    @pytest.mark.parametrize(
        "word",
        [
            np.array([0.9, 1.5, 0.0, 0.0, 0.0, 0.0]),
            np.zeros(6, dtype=complex),
            np.array(["1", "0", "0", "0", "0", "0"]),
            np.array([1, 0, 0, 0, 0, None], dtype=object),
        ],
    )
    def test_non_integer_word_rejected(self, word):
        # a float word used to be truncated toward zero before the & 1
        with pytest.raises(ValueError, match=r"^word must be an integer or bool array, got dtype "):
            syndrome(TOY_H, word)

    def test_bool_word_reads_as_bits(self):
        bits = np.array([1, 0, 1, 1, 0, 0])
        assert np.array_equal(syndrome(TOY_H, bits.astype(bool)), syndrome(TOY_H, bits))

    @settings(max_examples=150, deadline=None)
    @given(
        matrix=st.one_of(
            st.just(TOY_H),
            # empty rows and an empty last column
            st.just(SparseBinaryMatrix.from_rows(4, 5, ((), (0, 3), (), (1, 2, 3)))),
            _sparse_matrices(),
        ),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_row_loop(self, matrix, seed):
        word = np.random.default_rng(seed).integers(0, 4, matrix.n_cols)
        want = np.zeros(matrix.n_rows, dtype=np.uint8)
        for r, support in enumerate(matrix.row_supports):
            for c in support:
                want[r] ^= word[c] & 1
        got = syndrome(matrix, word)
        assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_layout_is_cached_and_read_only(self, ref_seed):
        h = expand(QcCode(ref_seed, 29))
        decode_sp(h, np.full(h.n_cols, 5.0), 3)
        cols, gather = h.layout
        assert h.layout[0] is cols and h.layout[1] is gather
        assert not cols.flags.writeable and not gather.flags.writeable


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

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_non_positive_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match=r"^max_iter must be >= 1$"):
            decode_sp(TOY_H, np.zeros(6), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [5.5, 2.0, True, np.int64(2)])
    def test_non_integer_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match=r"^max_iter must be an integer, got "):
            decode_sp(TOY_H, np.zeros(6), max_iter=max_iter)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_cols"):
            decode_sp(TOY_H, np.zeros(4), max_iter=2)

    @pytest.mark.parametrize(
        "llr",
        [
            np.array([1 + 1j, 2, 3, 4, 5, 6]),
            ["1", "2", "3", "4", "5", "6"],
            np.ones(6, dtype=bool),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0, None], dtype=object),
        ],
    )
    def test_non_real_llr_rejected(self, llr):
        # a complex vector used to decode its real part, and strings were parsed
        with pytest.raises(ValueError, match=r"^llr must be a real int or float array, got dtype "):
            decode_sp(TOY_H, llr, max_iter=3)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float16, np.float32])
    def test_int_and_narrow_float_llrs_read_as_float64(self, dtype):
        llr = np.array([3, -1, 2, 5, -4, 1])
        want = decode_sp(TOY_H, llr.astype(np.float64), max_iter=4)
        assert _same(decode_sp(TOY_H, llr.astype(dtype), max_iter=4), want)

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


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(code=_qc_codes(), data=st.data(), max_iter=st.integers(1, 25))
    def test_regular_qc_codes(self, code, data, max_iter):
        h = expand(code)
        llr = data.draw(_llrs(h.n_cols))
        want = _reference_decode(h, llr, max_iter)
        assert _same(decode_sp(h, llr, max_iter), want)
        # monte_carlo's layout, built from the exponents, decodes the same
        assert _same(_Workspace(*qc_layout(code)).decode(llr, max_iter), want)

    @settings(max_examples=150, deadline=None)
    @given(
        matrix=st.one_of(st.just(TOY_H), _sparse_matrices()),
        data=st.data(),
        max_iter=st.integers(1, 25),
    )
    def test_irregular_matrices(self, matrix, data, max_iter):
        llr = data.draw(_llrs(matrix.n_cols))
        want = _reference_decode(matrix, llr, max_iter)
        assert _same(decode_sp(matrix, llr, max_iter), want)

    @pytest.mark.parametrize("ebn0", [1.0, 3.0])
    def test_noisy_frames_on_the_reference_seed(self, ref_seed, ebn0):
        h = expand(QcCode(ref_seed, 449))
        sigma2 = ChannelParams(ebn0, 0.5, 0).noise_variance
        for frame in range(6):
            rng = np.random.default_rng([5, frame])
            llr = 2.0 * (1.0 + rng.normal(0.0, math.sqrt(sigma2), h.n_cols)) / sigma2
            assert _same(decode_sp(h, llr, 80), _reference_decode(h, llr, 80))

    @settings(max_examples=60, deadline=None)
    @given(
        degree=st.integers(0, 24),
        n_rows=st.sampled_from([1, 2, 7, 300]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_slot_sums_are_bincount_sums(self, degree, n_rows, seed):
        # ndarray.sum adds a single row of 16 or more slots pairwise, not in order
        rng = np.random.default_rng(seed)
        shape = (degree, n_rows)
        slots = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 9, shape)
        want = np.bincount(
            np.tile(np.arange(n_rows), degree), weights=slots.ravel(), minlength=n_rows
        )
        got = _sum_in_order(slots, np.empty(n_rows))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(code=_qc_codes())
    def test_layout_from_exponents_matches_expansion(self, code):
        h = expand(code)
        # A fresh matrix builds its layout from the row supports.
        rebuilt = SparseBinaryMatrix.from_rows(h.n_rows, h.n_cols, h.row_supports).layout
        for got, want in zip(qc_layout(code), rebuilt):
            assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        matrix=st.one_of(_sparse_matrices(), _qc_codes().map(expand)),
        data=st.data(),
        max_iter=st.integers(1, 25),
    )
    def test_deterministic(self, matrix, data, max_iter):
        llr = data.draw(_llrs(matrix.n_cols))
        assert _same(decode_sp(matrix, llr, max_iter), decode_sp(matrix, llr.copy(), max_iter))


class TestWorkspace:
    @settings(max_examples=120, deadline=None)
    @given(
        matrix=st.one_of(_qc_codes(), _sparse_matrices()),
        data=st.data(),
    )
    def test_one_workspace_decodes_frames_in_a_row(self, matrix, data):
        # No decode may read what an earlier one left in the workspace.
        h = expand(matrix) if isinstance(matrix, QcCode) else matrix
        layout = qc_layout(matrix) if isinstance(matrix, QcCode) else matrix.layout
        ws = decoder._Workspace(*layout)
        for _ in range(data.draw(st.integers(2, 5))):
            llr = data.draw(_llrs(h.n_cols))
            max_iter = data.draw(st.sampled_from([1, 2, 7, 30]))
            want = _reference_decode(h, llr, max_iter)
            if data.draw(st.booleans()):  # as monte_carlo does, from the workspace's own LLRs
                np.copyto(ws.llr, llr)
                llr = ws.llr
            assert _same(ws.decode(llr, max_iter), want)

    def test_warm_frame_allocates_little(self, ref_seed):
        # At P = 449 a frame used to allocate about 171 bytes per bit; now
        # only the rng, the hard decisions and numpy's small buffers.
        cols, gather = qc_layout(QcCode(ref_seed, 449))
        n = gather.shape[1]
        ws, channel = decoder._Workspace(cols, gather), ChannelParams(1.0, 0.5, 3)
        decoder._frame_wrong_bits(ws, channel, 80, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            decoder._frame_wrong_bits(ws, channel, 80, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * n + 64_000


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

    @pytest.mark.parametrize(
        "ebn0_db, rate, name",
        [(True, 0.5, "ebn0_db"), (np.False_, 0.5, "ebn0_db"), (1.0, True, "rate"), (1.0, np.True_, "rate")],
    )
    def test_rejects_bool_point(self, ebn0_db, rate, name):
        # ChannelParams(True, 0.5, 1) used to be the 1 dB point
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got "):
            ChannelParams(ebn0_db, rate, 1)

    @pytest.mark.parametrize("seed", [1.5, 3.0, True, np.int64(3), "3"])
    def test_rejects_non_integer_seed(self, seed):
        # numpy used to refuse a float seed only at the first frame (TypeError)
        with pytest.raises(ValueError, match=r"^rng_seed must be an integer, got "):
            ChannelParams(3.0, 0.5, seed)


class TestMonteCarlo:
    def test_noiseless_runs_error_free(self, ref_seed):
        code = QcCode(ref_seed, 29)
        channel = ChannelParams(math.inf, 0.5, 42)
        summary = monte_carlo(code, channel, max_iter=10, min_error_frames=5, frame_cap=20)
        assert summary.fer == 0.0
        assert summary.ber == 0.0
        assert summary.frames == 20
        assert summary.cap_hit

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_channel_llrs(self, ref_seed):
        # sigma^2 = 1e-308 is finite and positive, but 2 / sigma^2 is not
        channel = ChannelParams(3080.0, 0.5, 1)
        with pytest.raises(ValueError, match="not finite"):
            monte_carlo(QcCode(ref_seed, 29), channel, 5, 1, 1)

    @pytest.mark.parametrize("field", ["max_iter", "min_error_frames", "frame_cap"])
    @pytest.mark.parametrize("value", [2.5, 5.0, True, np.int64(5), None])
    def test_rejects_non_integer_counts(self, ref_seed, field, value):
        # frame_cap=2.5 used to decode 3 frames, max_iter=True one iteration
        counts = {"max_iter": 5, "min_error_frames": 1, "frame_cap": 4, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            monte_carlo(QcCode(ref_seed, 29), ChannelParams(3.0, 0.5, 1), **counts)

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


SPLIT_CODE = QcCode(REFERENCE_SEED, 29)


def _on_workers(k, min_error_frames, frame_cap, channel):
    """monte_carlo's summary, or its ValueError text, with frames split over k processes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "_worker_count", lambda frame_cap, edges: k)
        try:
            return monte_carlo(SPLIT_CODE, channel, 5, min_error_frames, frame_cap)
        except ValueError as e:
            return f"ValueError: {e}"


@pytest.fixture
def time_limit():
    """Fail, rather than hang, a test whose monte_carlo call waits on a lost child."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 120 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("time_limit")
class TestFrameSplit:
    """Frame f is decoded by worker f mod K; the summary must not depend on K."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([2, 3]),
        ebn0=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        rng_seed=st.integers(0, 40),
        min_error_frames=st.integers(1, 8),
        frame_cap=st.integers(1, 40),
    )
    def test_matches_serial(self, k, ebn0, rng_seed, min_error_frames, frame_cap):
        channel = ChannelParams(ebn0, 0.5, rng_seed)
        serial = _on_workers(1, min_error_frames, frame_cap, channel)
        assert _on_workers(k, min_error_frames, frame_cap, channel) == serial

    # (K, rng_seed, worker that decodes the frame of the stopping error)
    @pytest.mark.parametrize(
        "k, rng_seed, owner", [(2, 1, 0), (2, 0, 1), (3, 5, 0), (3, 2, 1), (3, 0, 2)]
    )
    def test_stopping_error_on_parent_or_child_frame(self, k, rng_seed, owner):
        channel = ChannelParams(2.0, 0.5, rng_seed)
        serial = _on_workers(1, 3, 200, channel)
        assert not serial.cap_hit and (serial.frames - 1) % k == owner
        assert _on_workers(k, 3, 200, channel) == serial

    @pytest.mark.parametrize("frame_cap", [1, 2])
    def test_frame_cap_below_worker_count(self, frame_cap):
        channel = ChannelParams(0.0, 0.5, 9)
        serial = _on_workers(1, 50, frame_cap, channel)
        assert serial.frames == frame_cap
        assert _on_workers(3, 50, frame_cap, channel) == serial

    @pytest.mark.parametrize("k", [2, 3])
    def test_noiseless_point(self, k):
        channel = ChannelParams(math.inf, 0.5, 4)
        serial = _on_workers(1, 2, 7, channel)
        assert serial.frames == 7 and serial.fer == 0.0
        assert _on_workers(k, 2, 7, channel) == serial

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [2, 3])
    def test_overflowing_channel_raises_the_serial_error(self, k):
        channel = ChannelParams(3080.0, 0.5, 1)
        serial = _on_workers(1, 2, 6, channel)
        assert serial == "ValueError: channel LLRs at 3080.0 dB are not finite"
        assert _on_workers(k, 2, 6, channel) == serial

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("bad_frame", [1, 2, 4, 5, 7])
    @pytest.mark.parametrize("min_error_frames", [1, 2, 4])
    def test_overflow_sentinel_stops_at_the_serial_frame(self, k, bad_frame, min_error_frames):
        # Only bad_frame overflows; the serial path raises only if it reaches it.
        real = decoder._frame_wrong_bits

        def one_bad_frame(*args):
            if args[-1] == bad_frame:
                return _NOT_FINITE
            return real(*args)

        channel = ChannelParams(2.0, 0.5, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder, "_frame_wrong_bits", one_bad_frame)
            serial = _on_workers(1, min_error_frames, 12, channel)
            assert _on_workers(k, min_error_frames, 12, channel) == serial

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("doomed_frame", [1, 5, 7, 11])  # child frames for K = 2 and 3
    def test_killed_child_leaves_the_serial_answer(self, k, doomed_frame):
        # A child dies by SIGKILL when it reaches doomed_frame; the parent
        # decodes the frames whose counts never arrive.
        parent, real = os.getpid(), decoder._frame_wrong_bits

        def mortal(*args):
            if args[-1] == doomed_frame and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        channel = ChannelParams(2.0, 0.5, 3)
        serial = _on_workers(1, 50, 30, channel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder, "_frame_wrong_bits", mortal)
            assert _on_workers(k, 50, 30, channel) == serial

    @pytest.mark.parametrize("failing_fork", [1, 2])
    def test_failed_fork_leaves_the_serial_answer(self, failing_fork, monkeypatch):
        # The worker whose fork fails has its frames decoded by the parent.
        real_fork, forks = os.fork, []

        def flaky_fork():
            forks.append(None)
            if len(forks) == failing_fork:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        channel = ChannelParams(2.0, 0.5, 3)
        serial = _on_workers(1, 50, 30, channel)
        monkeypatch.setattr(os, "fork", flaky_fork)
        assert _on_workers(3, 50, 30, channel) == serial
        assert len(forks) == 2

    @pytest.mark.parametrize("bad_frame", [None, 3])
    def test_children_are_killed_on_early_stop_and_on_error(self, bad_frame, monkeypatch):
        # Every frame errs at -2 dB, so the run ends at the parent's frame 3,
        # by the stop rule or by the overflow.  Each child still has 5,000
        # frames to go, and only a SIGKILL ends it that soon.
        real_frame, real_waitpid, statuses = decoder._frame_wrong_bits, os.waitpid, []

        def stopping(*args):
            if args[-1] == bad_frame:
                return _NOT_FINITE
            return real_frame(*args)

        def recording(pid, options):
            statuses.append(real_waitpid(pid, options)[1])
            return pid, statuses[-1]

        monkeypatch.setattr(decoder, "_frame_wrong_bits", stopping)
        monkeypatch.setattr(os, "waitpid", recording)
        channel = ChannelParams(-2.0, 0.5, 7)
        summary = _on_workers(3, 4, 15_000, channel)
        if bad_frame:
            assert summary == "ValueError: channel LLRs at -2.0 dB are not finite"
        else:
            assert summary.frames == 4 and not summary.cap_hit
        assert len(statuses) == 2
        assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in statuses)

    def test_cli_output_and_stderr_do_not_depend_on_workers(self, capfd, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        argv = [
            "simulate", "--matrix", "fixtures/seed_3x6.json", "--p", "29",
            "--ebn0", "1,inf,2.5", "--max-iter", "10", "--min-error-frames", "3",
            "--frame-cap", "25", "--seed", "8",
        ]
        outputs = []
        for k in (1, 2, 3):
            monkeypatch.setattr(decoder, "_worker_count", lambda frame_cap, edges, k=k: k)
            outcome = run(argv)
            out, err = capfd.readouterr()
            assert out == "" and err.count("\n") == 3 and err.startswith("simulated ")
            outputs.append((outcome, err))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_noiseless_point_decodes_one_frame(self, monkeypatch):
        # every noiseless frame has the same LLRs, so frame 0's count serves all 40
        monkeypatch.chdir(REPO_ROOT)
        calls, real = [], decoder._frame_wrong_bits

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(decoder, "_frame_wrong_bits", counted)
        outcome = run([
            "simulate", "--matrix", "fixtures/seed_3x6.json", "--p", "449",
            "--ebn0", "inf", "--max-iter", "10", "--min-error-frames", "3",
            "--frame-cap", "40", "--seed", "8",
        ])
        assert outcome.stdout_payload.splitlines()[1] == "inf,40,0,0,0.0,0.0,true"
        assert calls == [0]

    def test_noiseless_point_never_forks(self, monkeypatch):
        # 40 frames x 8,082 edges would split, but a noiseless frame is one
        # cheap iteration, so the point decodes here whatever K would be.
        monkeypatch.chdir(REPO_ROOT)
        argv = [
            "simulate", "--matrix", "fixtures/seed_3x6.json", "--p", "449",
            "--ebn0", "inf", "--max-iter", "10", "--min-error-frames", "3",
            "--frame-cap", "40", "--seed", "8",
        ]
        forks = []

        def no_fork():
            forks.append(None)
            raise OSError("fork is not allowed here")

        monkeypatch.setattr(decoder, "_worker_count", lambda frame_cap, edges: 1)
        serial = run(argv)
        monkeypatch.setattr(decoder, "_worker_count", lambda frame_cap, edges: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert run(argv) == serial
        assert serial.stdout_payload.splitlines()[1] == "inf,40,0,0,0.0,0.0,true"
        assert forks == []


class TestWorkerCount:
    def test_sizes_by_cores_cap_and_frames(self):
        cores = len(os.sched_getaffinity(0))
        assert decoder._worker_count(10 ** 6, 10 ** 6) == min(cores, decoder._MAX_WORKERS)
        assert decoder._worker_count(2, 10 ** 9) == min(cores, 2)
        assert decoder._worker_count(1, 10 ** 9) == 1

    def test_short_runs_stay_serial(self):
        assert decoder._worker_count(10, decoder._SPLIT_MIN_WORK // 10 - 1) == 1

    def test_one_core_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert decoder._worker_count(10 ** 6, 10 ** 6) == 1

    def test_no_fork_stays_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert decoder._worker_count(10 ** 6, 10 ** 6) == 1

    def test_threaded_host_stays_serial(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert decoder._worker_count(10 ** 6, 10 ** 6) == 1
        finally:
            release.set()
            other.join()
