"""Log-domain sum-product decoding and an AWGN Monte Carlo harness.

Flooding schedule with the exact tanh check-node rule; variable-to-check
messages are clamped to +/-30 before the tanh to keep the products finite.

Messages use the matrix's cached fixed-degree layout: ``cols[k, r]`` (dc x M)
is the column of check r's k-th edge, so row sums broadcast back and a parity
test is one XOR-reduce; ``gather[k, c]`` (dv x N) is the flat slot of column
c's k-th edge.  Sums add slot 0, 1, ... in turn from 0.0, as np.bincount does
over a flat edge list, so the arithmetic matches such a decoder bit for bit.
A QC code has dc = L and dv = J and :func:`qc_layout` builds it from the
exponents.  Other matrices pad short rows with column N (tanh forced to 1.0)
and short columns with a slot that stays 0.0.

Every array a decode writes lives in a workspace, allocated once per
:func:`decode_sp` call and once per :func:`monte_carlo` point, and each
numpy call writes into it through ``out=``.  No iteration allocates, so on
codes whose edge arrays are larger than the allocator keeps (N = 44190)
an iteration takes no page faults.

Simulation transmits the all-zero codeword over BPSK (bit 0 -> +1) plus
Gaussian noise with variance 1 / (2 * rate * 10^(ebn0_db/10)), which is
valid for linear codes on output-symmetric channels and removes any need
for an encoder.

Frames draw their noise from independent rng streams derived from
(rng_seed, frame_index), so results do not depend on evaluation order.
:func:`monte_carlo` uses that to decode one point on up to four cores: it
forks children that decode every K-th frame and stream back one count per
frame, and it adds the counts and applies the stop rule in frame order, so
its summary, and ``simulate``'s CSV, are the same for every K.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import struct
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .matrices import QcCode, SparseBinaryMatrix, check_ints, qc_layout

LLR_CLAMP = 30.0
_ATANH_LIMIT = 1.0 - 1e-15

CSV_HEADER = "ebn0_db,frames,bit_errors,frame_errors,ber,fer,cap_hit"

_COUNT = struct.Struct("<q")  # one frame's wrong-bit count on a worker's pipe
_NOT_FINITE = -1  # the count of a frame whose channel LLRs overflow
_MAX_WORKERS = 4
# A fork, the child's first frame, the kill and the reap cost about 3.5 ms in a
# 50 MB process; the cheapest frame (noiseless, one iteration) costs 34 ns per
# edge.  Below this many edge-frames a split may not win its fork back.
_SPLIT_MIN_WORK = 100_000


@dataclass(frozen=True)
class ChannelParams:
    """BPSK/AWGN operating point; ebn0_db may be math.inf (noiseless).

    Any other value must give a finite, positive noise variance.
    """

    ebn0_db: float
    rate: float
    rng_seed: int

    def __post_init__(self):
        for name in ("ebn0_db", "rate"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if math.isnan(self.ebn0_db):
            raise ValueError("ebn0_db must not be NaN")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}; "
                             "simulation needs more columns than rows")
        check_ints(rng_seed=self.rng_seed)
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
    if w.dtype.kind not in "biu":
        raise ValueError(f"word must be an integer or bool array, got dtype {w.dtype}")
    if w.shape != (matrix.n_cols,):
        raise ValueError(
            f"word length {w.shape} does not match n_cols {matrix.n_cols}"
        )
    # The padding column n_cols reads bit 0.
    bits = np.append(w.astype(np.int64) & 1, 0).astype(np.uint8)
    return np.bitwise_xor.reduce(bits[matrix.layout[0]], axis=0)


def _sum_in_order(slots: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over axis 0 into *out* from 0.0 in slot order, as np.bincount adds (ndarray.sum pairs)."""
    out.fill(0.0)
    for slot in slots:
        out += slot
    return out


class _Workspace:
    """Every array a decode on one (cols, gather) layout writes.

    Allocated once and reused frame after frame, so that no iteration
    allocates.  On wide codes glibc hands freed edge-sized temporaries back
    to the OS, and the first writes to the next ones page-fault.  ``t`` is
    ``v2c``: nothing reads v2c between tanh(v2c / 2) and the take rewriting it.
    """

    def __init__(self, cols: np.ndarray, gather: np.ndarray):
        n, m = gather.shape[1], cols.shape[1]
        self.cols, self.gather = cols, gather
        self.pad = np.flatnonzero(cols == n)
        self.llr = np.empty(n)  # a frame's channel LLRs
        # total[n] belongs to the padding column: +inf is never a negative bit.
        self.total = np.empty(n + 1)
        self.total[n] = np.inf
        self.prod = np.empty(cols.shape)
        self.v2c = self.t = np.empty(cols.shape)
        # The slot after the last edge pads short columns: it stays 0.0.
        self.c2v_slots = np.empty(cols.size + 1)
        self.c2v_slots[-1] = 0.0
        self.gathered = np.empty(gather.shape)
        self.row_sum, self.col_sum, self.row_sign = np.empty(m), np.empty(n), np.empty(m)
        self.neg, self.zero = np.empty(cols.shape, bool), np.empty(cols.shape, bool)
        self.parity, self.flags = np.empty(m, bool), np.empty(n, bool)

    def decode(self, llr: np.ndarray, max_iter: int) -> DecodeResult:
        """Decode *llr* (length N, finite); it may be ``self.llr``."""
        cols, t, prod, v2c, neg, zero = self.cols, self.t, self.prod, self.v2c, self.neg, self.zero
        n = llr.shape[0]
        total, parity = self.total[:n], self.parity
        c2v = self.c2v_slots[:-1].reshape(cols.shape)
        total[:] = llr
        np.take(self.total, cols, out=v2c, mode="clip")  # cols < total.size
        np.clip(v2c, -LLR_CLAMP, LLR_CLAMP, out=v2c)
        for iteration in range(1, max_iter + 1):
            # Check update: leave-one-out tanh products via log magnitudes,
            # with explicit zero tracking so exact-zero messages stay exact.
            np.tanh(np.multiply(v2c, 0.5, out=t), out=t)
            t.flat[self.pad] = 1.0
            np.abs(t, out=prod)
            has_zero = not t.all()
            if has_zero:
                np.equal(t, 0.0, out=zero)
                np.copyto(prod, 1.0, where=zero)
                np.copyto(t, 0.0, where=zero)
            np.log(prod, out=prod)
            np.bitwise_xor.reduce(np.less(t, 0.0, out=neg), axis=0, out=parity)
            np.subtract(1.0, np.multiply(2.0, parity, out=self.row_sign), out=self.row_sign)
            np.exp(np.subtract(_sum_in_order(prod, self.row_sum), prod, out=prod), out=prod)
            # t * row_sign has the sign of the product over the other edges.
            np.copysign(prod, np.multiply(t, self.row_sign, out=t), out=prod)
            if has_zero:
                # Another edge of the row is zero iff the row has more zeros than this edge.
                np.greater(np.add.reduce(zero, axis=0, out=self.row_sum), zero, out=zero)
                np.copyto(prod, 0.0, where=zero)
            np.clip(prod, -_ATANH_LIMIT, _ATANH_LIMIT, out=prod)
            np.multiply(2.0, np.arctanh(prod, out=prod), out=c2v)

            # Variable update; the parity test reads the hard decisions at the edges.
            np.take(self.c2v_slots, self.gather, out=self.gathered, mode="clip")
            np.add(llr, _sum_in_order(self.gathered, self.col_sum), out=total)
            # "clip": the default "raise" copies through a buffer when given out=.
            np.take(self.total, cols, out=v2c, mode="clip")
            # Ties carry no information; their syndrome is never validated.
            if not np.equal(total, 0.0, out=self.flags).any():
                np.bitwise_xor.reduce(np.less(v2c, 0.0, out=neg), axis=0, out=parity)
                if not parity.any():
                    hard = np.less(total, 0.0, out=self.flags).astype(np.uint8)
                    return DecodeResult(hard, True, iteration)
            np.clip(np.subtract(v2c, c2v, out=v2c), -LLR_CLAMP, LLR_CLAMP, out=v2c)
        return DecodeResult(np.less(total, 0.0, out=self.flags).astype(np.uint8), False, max_iter)


def decode_sp(matrix: SparseBinaryMatrix, llr, max_iter: int) -> DecodeResult:
    """Flooding sum-product decode of one LLR vector (positive favors 0).

    Stops early as soon as the hard decision has a zero syndrome; returns
    the hard decisions, the convergence flag and the iterations used.
    """
    check_ints(max_iter=max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    values = np.asarray(llr)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"llr must be a real int or float array, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if values.shape != (matrix.n_cols,):
        raise ValueError(
            f"llr length {values.shape} does not match n_cols {matrix.n_cols}"
        )
    if not np.isfinite(values).all():
        raise ValueError("LLR input must be finite")
    return _Workspace(*matrix.layout).decode(values, max_iter)


def _frame_wrong_bits(ws: _Workspace, channel: ChannelParams, max_iter: int, frame: int) -> int:
    """Wrong decoded bits of one frame, or _NOT_FINITE if its channel LLRs overflow.

    The noise comes only from the stream (rng_seed, frame).
    """
    llr = ws.llr
    sigma2 = channel.noise_variance
    if sigma2 == 0.0:
        llr.fill(2.0 * LLR_CLAMP)
    else:
        # The received word 1.0 + sigma * z, then 2.0 * received / sigma2.
        # rng.normal(0.0, sigma) would add 0.0 to sigma * z, which only
        # changes the sign of a zero, and 1.0 + either zero is 1.0.
        np.random.default_rng([channel.rng_seed, frame]).standard_normal(out=llr)
        llr *= math.sqrt(sigma2)
        llr += 1.0
        with np.errstate(over="ignore"):
            llr *= 2.0
            llr /= sigma2
        if not np.isfinite(llr, out=ws.flags).all():
            return _NOT_FINITE
    return int(ws.decode(llr, max_iter).decoded.sum())


def _worker_count(frame_cap: int, edges: int) -> int:
    """Processes that decode one point: one where forking is missing, unsafe or too dear."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1 or frame_cap * edges < _SPLIT_MIN_WORK:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, frame_cap)


def _start_worker(decode_frame, first: int, step: int, stop: int, inherited) -> tuple[int, int]:
    """Fork a child that decodes frames first, first + step, ... below stop.

    The child closes the read ends in *inherited*, writes each frame's count
    to a pipe as 8 bytes, writes nothing else, and leaves by os._exit.
    Returns its pid and the pipe's read end.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            # Holding another child's read end would keep that child writing
            # into a full pipe after this process's parent is gone.
            for fd in (r, *inherited):
                if fd is not None:
                    os.close(fd)
            for frame in range(first, stop, step):
                os.write(w, _COUNT.pack(decode_frame(frame)))
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


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
    Deterministic for fixed inputs.  Raises BudgetError, before allocating
    anything, for codes past :func:`qc_layout`'s edge budget.

    Frames are decoded by K processes: frame f by worker f mod K, where
    worker 0 is this process and the others are forked children that
    stream one count per frame.  K is the number of allowed cores, at most
    4 and at most *frame_cap*.  It is 1 without ``os.fork``, on one core,
    while another thread runs, below 100,000 edge-frames (frame_cap x
    edges), which may not win back a fork, and at the noiseless point,
    where frame 0's count, decoded once, stands for every frame.  The counts
    are added and the stop rule applied in frame order, so the summary does
    not depend on K.
    A frame whose count does not arrive is decoded here.  Every child is
    killed and reaped before this returns or raises.
    """
    check_ints(max_iter=max_iter, min_error_frames=min_error_frames, frame_cap=frame_cap)
    if max_iter < 1 or min_error_frames < 1 or frame_cap < 1:
        raise ValueError("max_iter, min_error_frames and frame_cap must be >= 1")
    cols, gather = qc_layout(code)
    # Made before the fork: each worker writes its own copy, frame after frame.
    decode_frame = partial(_frame_wrong_bits, _Workspace(cols, gather), channel, max_iter)
    noiseless = channel.noise_variance == 0.0  # then every frame has frame 0's LLRs
    if noiseless:
        decode_frame = partial(lambda wrong, frame: wrong, decode_frame(0))
    k = 1 if noiseless else _worker_count(frame_cap, cols.size)
    pids, fds = [], [None] * k  # fds[w] streams worker w's counts; None: decoded here
    frames = bit_errors = frame_errors = 0
    try:
        for w in range(1, k):
            with contextlib.suppress(OSError):  # no process or pipe to spare
                pid, fds[w] = _start_worker(decode_frame, w, k, frame_cap, fds)
                pids.append(pid)
        while frames < frame_cap and frame_errors < min_error_frames:
            fd = fds[frames % k]
            # Writes of 8 bytes to a pipe are atomic: a read gets all or, at EOF, none.
            count = os.read(fd, _COUNT.size) if fd is not None else b""
            wrong = _COUNT.unpack(count)[0] if count else decode_frame(frames)
            if wrong == _NOT_FINITE:
                raise ValueError(f"channel LLRs at {channel.ebn0_db} dB are not finite")
            frames += 1
            if wrong:
                frame_errors += 1
                bit_errors += wrong
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            if fd is not None:
                os.close(fd)
    n = code.block_length
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
