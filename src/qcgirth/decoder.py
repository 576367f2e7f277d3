"""Log-domain sum-product decoding and an AWGN Monte Carlo harness.

Flooding schedule with the exact tanh check-node rule; variable-to-check
messages are clamped to +/-30 before the tanh to keep the products finite.
Simulation transmits the all-zero codeword over BPSK (bit 0 -> +1) plus
Gaussian noise with variance 1 / (2 * rate * 10^(ebn0_db/10)), which is
valid for linear codes on output-symmetric channels and removes any need
for an encoder.

Frames draw their noise from independent rng streams derived from
(rng_seed, frame_index), so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import QcCode, SparseBinaryMatrix, expand

LLR_CLAMP = 30.0
_ATANH_LIMIT = 1.0 - 1e-15

CSV_HEADER = "ebn0_db,frames,bit_errors,frame_errors,ber,fer,cap_hit"


@dataclass(frozen=True)
class ChannelParams:
    """BPSK/AWGN operating point; ebn0_db may be math.inf (noiseless).

    Any other value must give a finite, positive noise variance.
    """

    ebn0_db: float
    rate: float
    rng_seed: int

    def __post_init__(self):
        if math.isnan(self.ebn0_db):
            raise ValueError("ebn0_db must not be NaN")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.ebn0_db != math.inf:
            try:
                usable = 0.0 < self.noise_variance < math.inf
            except (ZeroDivisionError, OverflowError):
                usable = False
            if not usable:
                raise ValueError(
                    f"Eb/N0 of {self.ebn0_db} dB gives no finite positive noise variance"
                )

    @property
    def noise_variance(self) -> float:
        """Sigma^2 for unit-energy BPSK; 0.0 at the noiseless sentinel."""
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


@dataclass(frozen=True, eq=False)
class DecodeResult:
    decoded: np.ndarray
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class TrialSummary:
    """Accumulated Monte Carlo counts for one SNR point.

    cap_hit flags runs stopped by the frame cap before reaching the
    requested number of error frames.
    """

    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    cap_hit: bool

    def to_csv_row(self) -> str:
        return (
            f"{self.ebn0_db},{self.frames},{self.bit_errors},{self.frame_errors},"
            f"{self.ber},{self.fer},{str(self.cap_hit).lower()}"
        )


def syndrome(matrix: SparseBinaryMatrix, word) -> np.ndarray:
    """H * word^T over GF(2), as a uint8 vector of length n_rows."""
    w = np.asarray(word)
    if w.shape != (matrix.n_cols,):
        raise ValueError(
            f"word length {w.shape} does not match n_cols {matrix.n_cols}"
        )
    bits = w.astype(np.int64) & 1
    out = np.zeros(matrix.n_rows, dtype=np.uint8)
    for r, support in enumerate(matrix.row_supports):
        acc = 0
        for c in support:
            acc ^= int(bits[c])
        out[r] = acc
    return out


class _SpContext:
    """Edge arrays shared across frames for one parity-check matrix."""

    def __init__(self, matrix: SparseBinaryMatrix):
        rows: list[int] = []
        cols: list[int] = []
        for r, support in enumerate(matrix.row_supports):
            rows.extend([r] * len(support))
            cols.extend(support)
        self.row_of_edge = np.asarray(rows, dtype=np.int64)
        self.col_of_edge = np.asarray(cols, dtype=np.int64)
        self.n_rows = matrix.n_rows
        self.n_cols = matrix.n_cols


def _sp_decode(ctx: _SpContext, llr: np.ndarray, max_iter: int) -> DecodeResult:
    row_e, col_e = ctx.row_of_edge, ctx.col_of_edge
    m, n = ctx.n_rows, ctx.n_cols
    v2c = np.clip(llr[col_e], -LLR_CLAMP, LLR_CLAMP)
    hard = np.zeros(n, dtype=np.uint8)
    for iteration in range(1, max_iter + 1):
        # Check update: leave-one-out tanh products via log magnitudes,
        # with explicit zero tracking so exact-zero messages stay exact.
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

        # Variable update and hard decision.
        total = llr + np.bincount(col_e, weights=c2v, minlength=n)
        hard = (total < 0.0).astype(np.uint8)

        # Ties carry no information; their syndrome is never validated.
        if not (total == 0.0).any():
            parity = np.bincount(
                row_e, weights=hard[col_e].astype(np.float64), minlength=m
            ) % 2
            if not parity.any():
                return DecodeResult(hard, True, iteration)

        v2c = np.clip(total[col_e] - c2v, -LLR_CLAMP, LLR_CLAMP)
    return DecodeResult(hard, False, max_iter)


def decode_sp(matrix: SparseBinaryMatrix, llr, max_iter: int) -> DecodeResult:
    """Flooding sum-product decode of one LLR vector (positive favors 0).

    Stops early as soon as the hard decision has a zero syndrome; returns
    the hard decisions, the convergence flag and the iterations used.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    values = np.asarray(llr, dtype=np.float64)
    if values.shape != (matrix.n_cols,):
        raise ValueError(
            f"llr length {values.shape} does not match n_cols {matrix.n_cols}"
        )
    if not np.isfinite(values).all():
        raise ValueError("LLR input must be finite")
    return _sp_decode(_SpContext(matrix), values, max_iter)


def monte_carlo(
    code: QcCode,
    channel: ChannelParams,
    max_iter: int,
    min_error_frames: int,
    frame_cap: int,
) -> TrialSummary:
    """All-zero-codeword BPSK/AWGN trial loop for one SNR point.

    Runs until *min_error_frames* frames decoded with errors or
    *frame_cap* frames total; a frame error is any nonzero decoded bit.
    Deterministic for fixed inputs.
    """
    if min_error_frames < 1 or frame_cap < 1:
        raise ValueError("min_error_frames and frame_cap must be >= 1")
    h = expand(code)
    ctx = _SpContext(h)
    n = h.n_cols
    sigma2 = channel.noise_variance
    frames = bit_errors = frame_errors = 0
    while frames < frame_cap and frame_errors < min_error_frames:
        rng = np.random.default_rng([channel.rng_seed, frames])
        if sigma2 == 0.0:
            llr = np.full(n, 2.0 * LLR_CLAMP)
        else:
            received = 1.0 + rng.normal(0.0, math.sqrt(sigma2), n)
            llr = 2.0 * received / sigma2
            if not np.isfinite(llr).all():
                raise ValueError(f"channel LLRs at {channel.ebn0_db} dB are not finite")
        result = _sp_decode(ctx, llr, max_iter)
        frames += 1
        wrong = int(result.decoded.sum())
        if wrong:
            frame_errors += 1
            bit_errors += wrong
    return TrialSummary(
        ebn0_db=channel.ebn0_db,
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        ber=bit_errors / (frames * n),
        fer=frame_errors / frames,
        cap_hit=frame_errors < min_error_frames,
    )


def summaries_to_csv(summaries) -> str:
    """CSV text with the documented header and one row per SNR point."""
    lines = [CSV_HEADER]
    lines.extend(s.to_csv_row() for s in summaries)
    return "\n".join(lines) + "\n"
