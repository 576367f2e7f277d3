"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Stated runtime budgets are asserted with wall-clock measurements around the
relevant call only.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from qcgirth import (
    ChannelParams,
    QcCode,
    SearchConfig,
    check_seed_conditions,
    decode_sp,
    expand,
    export_alist,
    extend_family,
    find_certified_seed,
    gf2_rank,
    girth_fast,
    girth_oracle,
    import_alist,
    monte_carlo,
    syndrome,
    tightness_witness,
)

from conftest import REFERENCE_SEED, random_canonical_matrix

# simulate may fork decoder workers; none may outlive a test
pytestmark = pytest.mark.usefixtures("no_leaked_children")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_girth12_by_both_methods():
    code = QcCode(REFERENCE_SEED, 393)
    fast = girth_fast(REFERENCE_SEED, 393).girth
    t0 = time.perf_counter()
    oracle = girth_oracle(REFERENCE_SEED, 393)
    oracle_seconds = time.perf_counter() - t0
    ok = fast == 12 and oracle == 12 and code.block_length == 2358 and oracle_seconds < 10.0
    _report(
        1,
        ok,
        f"girth_fast={fast}, girth_oracle={oracle} ({oracle_seconds:.2f}s), "
        f"N={code.block_length}",
    )


def test_criterion_2_seed_condition_report():
    report = check_seed_conditions(REFERENCE_SEED, 393)
    ok = (
        report.all_pass
        and report.p2_max == 224
        and report.p2_second == 170
        and report.p1_max == 26
        and report.min_p == 449
    )
    _report(
        2,
        ok,
        f"all_pass={report.all_pass}, p2_max={report.p2_max}, "
        f"p2_second={report.p2_second}, p1_max={report.p1_max}, min_P={report.min_p}",
    )


def test_criterion_3_thirty_member_family():
    t0 = time.perf_counter()
    codes = extend_family(REFERENCE_SEED, 393, 449, 478)
    elapsed = time.perf_counter() - t0
    lengths = [c.block_length for c in codes]
    girths = {girth_fast(REFERENCE_SEED, c.circulant_size).girth for c in codes}
    ok = (
        len(codes) == 30
        and girths == {12}
        and all(n < 2874 for n in lengths)
        and lengths == sorted(lengths)
        and elapsed < 5.0
    )
    _report(
        3,
        ok,
        f"{len(codes)} members, girths={girths}, max N={max(lengths)} < 2874, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_tightness_at_448():
    witness = tightness_witness(REFERENCE_SEED)
    fast = girth_fast(REFERENCE_SEED, 448).girth
    oracle = girth_oracle(REFERENCE_SEED, 448)
    ok = (
        witness.modulus == 448
        and set(witness.col_seq) == {0, 5}
        and witness.exponent_sum(REFERENCE_SEED) == 448
        and fast is not None
        and fast <= 8
        and fast == oracle
    )
    _report(
        4,
        ok,
        f"witness cols={sorted(set(witness.col_seq))}, sum="
        f"{witness.exponent_sum(REFERENCE_SEED)}, girth_fast={fast}, oracle={oracle}",
    )


def test_criterion_5_rank_dimensions():
    t0 = time.perf_counter()
    h449 = expand(QcCode(REFERENCE_SEED, 449))
    k449 = h449.n_cols - gf2_rank(h449)
    t449 = time.perf_counter() - t0
    t0 = time.perf_counter()
    h500 = expand(QcCode(REFERENCE_SEED, 500))
    k500 = h500.n_cols - gf2_rank(h500)
    t500 = time.perf_counter() - t0
    ok = k449 == 1349 and k500 == 1502 and t449 < 60.0 and t500 < 60.0
    _report(
        5,
        ok,
        f"(2694, {k449}) in {t449:.2f}s and (3000, {k500}) in {t500:.2f}s",
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260809)
    t0 = time.perf_counter()
    disagreements = 0
    samples = 200
    for _ in range(samples):
        j = rng.choice((2, 3))
        l = rng.randint(2, 6)
        p = rng.randint(2, 97)
        matrix = random_canonical_matrix(rng, j, l, p)
        if girth_fast(matrix, p).girth != girth_oracle(matrix, p):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 120.0
    _report(
        6,
        ok,
        f"{samples} random matrices, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_7_certified_seed_property_suite():
    rng = random.Random(7)
    failures = 0
    summaries = []
    for cols in (4, 5, 6):
        cfg = SearchConfig(
            cols=cols, q_cap=450, restarts=3
        )
        matrix, q, report = find_certified_seed(cfg)
        assert report.all_pass
        for _ in range(20):
            p = rng.randint(report.min_p, report.min_p + 500)
            if girth_fast(matrix, p).girth != 12:
                failures += 1
        # tightness at P = 2 * p2_max whenever the direct witness exists
        row2 = matrix.entries[2]
        max_cols = [v for v, e in enumerate(row2) if e == report.p2_max]
        if len(max_cols) == 1 and max_cols[0] != 0:
            g = girth_fast(matrix, 2 * report.p2_max).girth
            if g is None or g > 8:
                failures += 1
        summaries.append(f"L={cols}: Q={q}, min_P={report.min_p}")
    ok = failures == 0
    _report(7, ok, f"{'; '.join(summaries)}; {failures} girth failures over 60 samples")


def test_criterion_8_decoder_monotonicity_and_syndrome():
    code = QcCode(REFERENCE_SEED, 449)
    t0 = time.perf_counter()
    low = monte_carlo(
        code,
        ChannelParams(ebn0_db=1.0, rate=0.5, rng_seed=20260809),
        max_iter=80,
        min_error_frames=50,
        frame_cap=20_000,
    )
    high = monte_carlo(
        code,
        ChannelParams(ebn0_db=3.0, rate=0.5, rng_seed=20260809),
        max_iter=80,
        min_error_frames=50,
        frame_cap=20_000,
    )

    # independent syndrome re-check of converged decodes near the waterfall
    h = expand(code)
    sigma2 = ChannelParams(2.0, 0.5, 0).noise_variance
    frame_rng = np.random.default_rng(424242)
    syndrome_violations = 0
    converged_seen = 0
    for _ in range(200):
        received = 1.0 + frame_rng.normal(0.0, sigma2 ** 0.5, h.n_cols)
        result = decode_sp(h, 2.0 * received / sigma2, max_iter=80)
        if result.converged:
            converged_seen += 1
            if syndrome(h, result.decoded).any():
                syndrome_violations += 1
    elapsed = time.perf_counter() - t0

    points_ok = all(
        s.frame_errors >= 50 or s.cap_hit for s in (low, high)
    )
    ok = (
        high.fer < low.fer
        and points_ok
        and syndrome_violations == 0
        and converged_seen > 0
        and elapsed < 900.0
    )
    _report(
        8,
        ok,
        f"fer(1.0dB)={low.fer:.4g} ({low.frame_errors} err frames), "
        f"fer(3.0dB)={high.fer:.4g} ({high.frame_errors} err frames, "
        f"cap_hit={high.cap_hit}), {converged_seen} converged re-checked, "
        f"{syndrome_violations} syndrome violations, {elapsed:.0f}s",
    )


def test_criterion_9_alist_round_trip_identity():
    h = expand(QcCode(REFERENCE_SEED, 393))
    first = export_alist(h)
    reimported = import_alist(first)
    second = export_alist(reimported)
    ok = first == second and reimported == h
    _report(
        9,
        ok,
        f"{len(first)} bytes of alist text identical after import/export/export",
    )
