"""Metric definitions shared by run.py, child.py and BENCHMARK.json.

Regenerate BENCHMARK.json after editing: ``python3 bench/metrics.py > BENCHMARK.json``.

Every workload reports every end-to-end metric.  The three ``stageN_per_s``
metrics are the throughputs of the workload's three stages; STAGES gives
each one's name as a user reads it (``members_per_s_L6`` and so on).
"""

from __future__ import annotations

import json

# name, unit, better, bound (share of the parent's median).  The timing
# bounds are wide because a fixed pure-Python kernel on the 2-vCPU box this
# was tuned on ran anywhere from 16 to 65 ms, in phases of seconds to minutes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("stage1_per_s", "1/s", "higher", 0.24),
    ("stage2_per_s", "1/s", "higher", 0.24),
    ("stage3_per_s", "1/s", "higher", 0.24),
)

# workload -> the (stage key, user-facing metric name) of stages 1..3
STAGES = {
    "family": (
        ("L6", "members_per_s_L6"),
        ("L10", "members_per_s_L10"),
        ("crosscheck", "crosschecks_per_s"),
    ),
    "search": (
        ("L4", "searches_per_s_L4"),
        ("L5", "searches_per_s_L5"),
        ("L6", "searches_per_s_L6"),
    ),
    "simulate": (
        ("1db", "frames_per_s_1db"),
        ("3db", "frames_per_s_3db"),
        ("wide", "frames_per_s_wide"),
    ),
}

# The workloads BENCHMARK.json lists, with why each was chosen.  `search`
# runs here too, and every traced run measures its layers, but it is not
# listed: its operations take 1 to 10 s each, so a run holds only two or
# three of each, and across ten 30 s runs its throughputs spread by 0.19 to
# 0.24 of their median, too close to any usable bound.
WHY = {
    "family": "extend over P windows of a (3,6) seed (small cycle table) and a "
    "(3,10) seed (42 MB table), then oracle, rank and alist crosschecks",
    "simulate": "sum-product decoding at 1 dB (iteration-bound), 3 dB (per-frame "
    "cost) and on the N=44190 code (edge arrays beyond L2)",
}

RUN_SECONDS = 45

_F, _S, _M = "family", "search", "simulate"

# name, unit, better, [(end-to-end metric it should move, workload), ...]
PER_LAYER = (
    *(
        (f"girth.table_build_ms.{shape}", "ms", "lower", [("setup_s", w) for w in ws])
        for shape, ws in (("3x4", (_S,)), ("3x5", (_S,)), ("3x6", (_F, _S)), ("3x10", (_F,)))
    ),
    ("girth.fast_calls", "calls/round", "lower",
     [("members_per_s_L6", _F), ("members_per_s_L10", _F), ("wall_s", _S)]),
    ("girth.fast_self_ms", "ms/round", "lower",
     [("members_per_s_L6", _F), ("members_per_s_L10", _F), ("wall_s", _S)]),
    ("girth.find_cycle_calls", "calls/round", "lower", [("wall_s", _S)]),
    ("girth.find_cycle_self_ms", "ms/round", "lower", [("wall_s", _S)]),
    ("girth.oracle_ms", "ms", "lower", [("crosschecks_per_s", _F)]),
    ("extension.check_calls", "calls/round", "lower",
     [("members_per_s_L6", _F), ("members_per_s_L10", _F)]),
    ("extension.check_ms", "ms", "lower",
     [("members_per_s_L6", _F), ("members_per_s_L10", _F)]),
    ("extension.girth_calls_per_member", "calls", "lower",
     [("members_per_s_L6", _F), ("members_per_s_L10", _F)]),
    ("extension.extend_self_ms", "ms/round", "lower",
     [("members_per_s_L6", _F), ("members_per_s_L10", _F)]),
    ("matrices.expand_ms.P449", "ms", "lower",
     [("crosschecks_per_s", _F), ("frames_per_s_1db", _M), ("frames_per_s_3db", _M)]),
    ("matrices.expand_ms.P4419", "ms", "lower", [("frames_per_s_wide", _M)]),
    ("matrices.from_rows_calls", "calls/round", "lower", [("wall_s", _S)]),
    ("gf2.rank_ms", "ms", "lower", [("crosschecks_per_s", _F)]),
    ("alist.export_ms", "ms", "lower", [("crosschecks_per_s", _F)]),
    ("alist.import_ms", "ms", "lower", [("crosschecks_per_s", _F)]),
    *(
        (f"search.{part}_s.L{cols}", "s", "lower", [("wall_s", _S)])
        for part in ("greedy", "anneal")
        for cols in (4, 5, 6)
    ),
    ("search.anneal_improved", "count", "higher", [("p2_max_sum", _S)]),
    ("search.p2_max_sum", "count", "lower", [("p2_max_sum", _S)]),
    *(
        (f"decoder.{metric}.{point}", unit, better, [(moves, _M)])
        for point in ("1db", "3db", "wide")
        for metric, unit, better, moves in (
            ("iters_per_frame", "iter", "lower", "frames_per_s_" + point),
            ("fixed_call_ms", "ms", "lower", "frames_per_s_3db"),
            ("ms_per_iter", "ms", "lower", "frames_per_s_" + point),
            ("frame_ms_p50", "ms", "lower", "frames_per_s_" + point),
            ("frame_ms_p90", "ms", "lower", "frames_per_s_" + point),
            ("converged_ratio", "ratio", "higher", "frames_per_s_" + point),
            ("frames", "count", "higher", "frames_per_s_" + point),
        )
    ),
    ("cli.overhead_ms", "ms/round", "lower", [("wall_s", _F), ("wall_s", _S), ("wall_s", _M)]),
    ("trace.overhead_pct", "%", "lower", [("wall_s", _F), ("wall_s", _S), ("wall_s", _M)]),
)


def benchmark_json() -> dict:
    """The BENCHMARK.json these definitions describe."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": why} for w, why in WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
