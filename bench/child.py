"""One workload in a fresh process: set-up, timed phase, optional trace.

Started by run.py, with the checkout's ``src/`` on PYTHONPATH::

    python3 bench/child.py --workload W --seed S --seconds T --mode setup|run|trace

Every operation goes through ``qcgirth.cli.run(argv)`` in-process, the path
a user's command takes, except the library calls the CLI has no command
for (``gf2_rank``, ``import_alist`` and, in the traced run, ``decode_sp``).
Operations are looked up as module attributes at call time so that the
tracer's wrappers see them.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
from metrics import PER_LAYER, STAGES
from spans import SpanStats, Tracer, write_spans

import qcgirth.alist
import qcgirth.cli
import qcgirth.decoder
import qcgirth.extension
import qcgirth.gf2
import qcgirth.girth
import qcgirth.matrices
import qcgirth.search

INPUTS = checks.INPUTS
OUT = Path(__file__).resolve().parent / "out"

MAX_ITER = 80


def _input_path(name: str) -> str:
    return str(INPUTS / name)


def _cli(argv: list[str]):
    t0 = time.perf_counter()
    outcome = qcgirth.cli.run(argv)
    return outcome, time.perf_counter() - t0


class Workload:
    """A set-up plus three stages of operations, each checked on output.

    ``op(stage, i)`` runs the i-th operation of a stage and returns
    (seconds, units); its inputs depend only on (seed, stage, i).
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(key for key, _ in STAGES[self.name])

    def rng(self, stage: str, i: int) -> random.Random:
        return random.Random(f"{self.seed}:{stage}:{i}")

    def record(self, what: str, problems: list[str]) -> None:
        """Count one checked operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Checks that need set-up done but are not part of its cost."""

    def op(self, stage: str, i: int) -> tuple[float, int]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run."""


def _exit_problems(outcome) -> list[str]:
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}"]
    return []


def manifest_problems(outcome, entries, q: int, lo: int, hi: int) -> list[str]:
    """Checks of an `extend` manifest against values the benchmark derives."""
    problems = _exit_problems(outcome)
    if problems:
        return problems
    try:
        manifest = json.loads(outcome.stdout_payload)
        members = manifest["members"]
        if manifest["seed"]["entries"] != entries:
            problems.append("seed entries changed")
        if manifest["Q"] != q:
            problems.append(f"Q {manifest['Q']} != {q}")
        if manifest["min_P"] != checks.seed_facts(entries)["min_P"]:
            problems.append(f"min_P {manifest['min_P']}")
        if [m["P"] for m in members] != list(range(lo, hi + 1)):
            problems.append(f"members do not cover P {lo}..{hi}")
        cols = len(entries[0])
        bad = [m["P"] for m in members if m["N"] != cols * m["P"] or m["girth"] != 12]
        if bad:
            problems.append(f"wrong N or girth at P {bad[:5]}")
    except (ValueError, KeyError, TypeError) as e:
        problems.append(f"unreadable manifest: {e!r}")
    return problems


# (N, k) of the (3,6) seed's members given as reference points.
KNOWN_DIMENSIONS = {449: (2694, 1349), 500: (3000, 1502)}


def crosscheck_problems(entries, p, girth_outcome, h, rank, alist_back) -> list[str]:
    """Checks of one independently cross-checked family member."""
    problems = _exit_problems(girth_outcome)
    if not problems:
        report = json.loads(girth_outcome.stdout_payload)
        if report.get("girth") != 12 or report.get("method") != "GRAPH_BFS":
            problems.append(f"oracle report {report}")
    if not checks.supports_match(entries, p, h.row_supports):
        problems.append("expansion differs from the exponent matrix")
    if rank != checks.gf2_rank_dense(entries, p):
        problems.append(f"rank {rank} differs from dense elimination")
    n = len(entries[0]) * p
    if p in KNOWN_DIMENSIONS and (n, n - rank) != KNOWN_DIMENSIONS[p]:
        problems.append(f"(N, k) = {(n, n - rank)} != {KNOWN_DIMENSIONS[p]}")
    if alist_back != h:
        problems.append("alist round trip changed the matrix")
    return problems


class Family(Workload):
    """`extend` over P windows of two certified seeds, then crosschecks.

    The (3,6) seed's length-10 cycle table is 9,360 x 18 (1.3 MB), so
    per-call overhead dominates; the (3,10) seed's is 177,120 x 30
    (42.5 MB), beyond L2, so the exponent-sum scan dominates.
    Crosschecks cover P in 449..745, where gf2_rank stays within budget.
    """

    name = "family"
    SEEDS = {  # stage -> (file, Q, min_P, window size, window start span)
        "L6": ("seed_3x6.json", 393, 449, 200, 2000),
        "L10": ("seed_3x10.json", 2810, 4419, 20, 5000),
    }
    CROSSCHECK_P = (449, 745)
    STRATA = 8

    def setup(self) -> None:
        self.matrices, self.entries = {}, {}
        for stage, (name, q, min_p, _, _) in self.SEEDS.items():
            matrix = qcgirth.matrices.load_matrix(_input_path(name))
            self.matrices[stage] = matrix
            self.entries[stage] = checks.load_entries(name)
            report = qcgirth.extension.check_seed_conditions(matrix, q)
            facts = checks.seed_facts(self.entries[stage])
            problems = []
            if not report.all_pass:
                problems.append(f"conditions {report.to_json_dict()}")
            if report.min_p != min_p or facts["min_P"] != min_p:
                problems.append(f"min_P {report.min_p} / {facts['min_P']} != {min_p}")
            if not (facts["canonical"] and facts["elementwise"] and facts["gap"]):
                problems.append(f"seed facts {facts}")
            self.record(f"certify {name}", problems)
        qcgirth.matrices.expand(qcgirth.matrices.QcCode(self.matrices["L6"], 449))

    def after_setup(self) -> None:
        for stage, (name, _, _, _, _) in self.SEEDS.items():
            matrix = self.matrices[stage]
            p2_max = checks.seed_facts(self.entries[stage])["p2_max"]
            witness = qcgirth.extension.tightness_witness(matrix)
            girth = qcgirth.girth.girth_fast(matrix, 2 * p2_max).girth
            problems = []
            if not witness.holds_for(matrix) or witness.modulus != 2 * p2_max:
                problems.append(f"witness {witness} does not close")
            if girth is None or girth > 8:
                problems.append(f"girth {girth} at P=2*p2_max")
            self.record(f"tightness {name}", problems)

    def crosscheck_p(self, i: int) -> int:
        """P of the i-th crosscheck: the two reference sizes, then strata.

        Oracle and rank cost grow with P; cycling through equal strata keeps
        each run's mix of sizes, and so its crosscheck rate, seed-independent.
        """
        if i < len(KNOWN_DIMENSIONS):
            return sorted(KNOWN_DIMENSIONS)[i]
        lo, hi = self.CROSSCHECK_P
        width = (hi - lo + 1) / self.STRATA
        stratum = (i - len(KNOWN_DIMENSIONS)) % self.STRATA
        start = lo + int(stratum * width)
        stop = lo + int((stratum + 1) * width)
        return self.rng("crosscheck", i).randrange(start, stop)

    def op(self, stage: str, i: int) -> tuple[float, int]:
        if stage == "crosscheck":
            return self._crosscheck(i)
        name, q, min_p, window, span = self.SEEDS[stage]
        lo = min_p + self.rng(stage, i).randrange(span)
        hi = lo + window - 1
        outcome, dt = _cli(["extend", "--matrix", _input_path(name), "--q", str(q),
                            "--from", str(lo), "--to", str(hi)])
        self.record(f"extend {name} {lo}..{hi}",
                    manifest_problems(outcome, self.entries[stage], q, lo, hi))
        return dt, window

    def _crosscheck(self, i: int) -> tuple[float, int]:
        p = self.crosscheck_p(i)
        path = _input_path(self.SEEDS["L6"][0])
        t0 = time.perf_counter()
        girth_outcome = qcgirth.cli.run(["girth", "--matrix", path, "--p", str(p), "--oracle"])
        h = qcgirth.matrices.expand(qcgirth.matrices.QcCode(self.matrices["L6"], p))
        rank = qcgirth.gf2.gf2_rank(h)
        alist = qcgirth.cli.run(["export", "--matrix", path, "--p", str(p), "--format", "alist"])
        back = qcgirth.alist.import_alist(alist.stdout_payload) if alist.exit_code == 0 else None
        dt = time.perf_counter() - t0
        self.record(f"crosscheck P={p}",
                    crosscheck_problems(self.entries["L6"], p, girth_outcome, h, rank, back))
        return dt, 1


def search_problems(outcome, cols: int, q_cap: int, verified: dict) -> tuple[list[str], int | None]:
    """Checks of a `search` result; returns (problems, p2_max)."""
    problems = _exit_problems(outcome)
    if problems:
        return problems, None
    try:
        result = json.loads(outcome.stdout_payload)
        entries, q = result["seed"]["entries"], result["Q"]
        report = result["report"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable result: {e!r}"], None
    if len(entries) != 3 or any(len(row) != cols for row in entries):
        return [f"seed shape is not 3x{cols}"], None
    facts = checks.seed_facts(entries)
    if not (facts["canonical"] and facts["elementwise"] and facts["gap"]):
        problems.append(f"seed facts {facts}")
    if not 2 <= q <= q_cap or max(max(r) for r in entries) >= q:
        problems.append(f"Q={q} out of range")
    if report.get("p2_max") != facts["p2_max"] or report.get("min_P") != facts["min_P"]:
        problems.append(f"report {report} disagrees with the seed")
    if problems:
        return problems, facts["p2_max"]
    key = (json.dumps(entries), q)
    if key not in verified:
        matrix = qcgirth.matrices.ExponentMatrix.from_rows(entries)
        recert = qcgirth.extension.check_seed_conditions(matrix, q).all_pass
        oracle = qcgirth.girth.girth_oracle(matrix, q)
        verified[key] = [] if recert and oracle == 12 else [
            f"re-certification {recert}, oracle girth {oracle} at Q={q}"]
    return verified[key], facts["p2_max"]


class Search(Workload):
    """`search` for L = 4, 5, 6: hundreds of thousands of tiny find_cycle calls."""

    name = "search"
    Q_CAP, STEPS, RESTARTS = 450, 2000, 3

    def setup(self) -> None:
        # Cycle tables for every shape the greedy passes through, built from
        # column prefixes of a girth-12 seed so that no length returns early.
        seed6 = qcgirth.matrices.load_matrix(_input_path("seed_3x6.json"))
        for cols in range(2, 7):
            prefix = qcgirth.matrices.ExponentMatrix.from_rows(
                [row[:cols] for row in seed6.entries])
            for length in (4, 6, 8, 10):
                qcgirth.girth.find_cycle(prefix, 393, length)
        self.verified: dict = {}
        self.p2_max: dict[str, list[int]] = {s: [] for s in self.stages}

    def op(self, stage: str, i: int) -> tuple[float, int]:
        cols = int(stage[1:])
        seed = self.rng(stage, i).randrange(1 << 20)
        outcome, dt = _cli(["search", "--cols", str(cols), "--q-cap", str(self.Q_CAP),
                            "--seed", str(seed), "--steps", str(self.STEPS),
                            "--restarts", str(self.RESTARTS)])
        problems, p2_max = search_problems(outcome, cols, self.Q_CAP, self.verified)
        self.record(f"search L={cols} seed={seed}", problems)
        if p2_max is not None:
            self.p2_max[stage].append(p2_max)
        return dt, 1

    def anneal_improved(self, greedy_results) -> int:
        """Number of L whose searched seed beat the greedy start's p2_max."""
        start = {cols: max(m.entries[2]) for cols, m in greedy_results}
        return sum(1 for key, found in self.p2_max.items()
                   if found and int(key[1:]) in start and min(found) < start[int(key[1:])])

    def p2_max_sum(self) -> float:
        if not all(self.p2_max.values()):
            return 0.0
        return float(sum(statistics.median(v) for v in self.p2_max.values()))


def simulate_problems(outcome, ebn0: float, frames: int) -> tuple[list[str], int]:
    """Checks of a `simulate` CSV; returns (problems, frame errors)."""
    problems = _exit_problems(outcome)
    if problems:
        return problems, 0
    lines = outcome.stdout_payload.splitlines()
    if len(lines) != 2 or lines[0] != qcgirth.decoder.CSV_HEADER:
        return [f"unexpected CSV {lines[:3]}"], 0
    fields = lines[1].split(",")
    try:
        got_ebn0, got_frames, bit_errors, frame_errors = (
            float(fields[0]), int(fields[1]), int(fields[2]), int(fields[3]))
    except (ValueError, IndexError):
        return [f"unreadable CSV row {lines[1]!r}"], 0
    if got_ebn0 != ebn0:
        problems.append(f"Eb/N0 {got_ebn0} != {ebn0}")
    if got_frames != frames:
        problems.append(f"{got_frames} frames, requested {frames}")
    if not 0 <= frame_errors <= got_frames or (frame_errors == 0) != (bit_errors == 0):
        problems.append(f"inconsistent counts {lines[1]!r}")
    return problems, frame_errors


class Point(NamedTuple):
    seed_file: str
    p: int
    ebn0: float
    frames: int  # per `simulate` call
    ref_fer: float  # at max_iter 80, measured over many more frames
    probe_frames: int  # decoded one by one in the traced run


class Simulate(Workload):
    """`simulate` at three operating points, fixed frame counts per call."""

    name = "simulate"
    # Reference FERs: 319/400 frames at 1 dB, 0/3000 at 3 dB, 0/80 wide.
    POINTS = {
        "1db": Point("seed_3x6.json", 449, 1.0, 16, 0.80, 20),
        "3db": Point("seed_3x6.json", 449, 3.0, 40, 0.0, 100),
        "wide": Point("seed_3x10.json", 4419, 2.5, 3, 0.0, 8),
    }

    def setup(self) -> None:
        self.entries = {}
        for stage, point in self.POINTS.items():
            matrix = qcgirth.matrices.load_matrix(_input_path(point.seed_file))
            self.entries[stage] = checks.load_entries(point.seed_file)
            qcgirth.matrices.expand(qcgirth.matrices.QcCode(matrix, point.p))
        self.totals = {s: [0, 0] for s in self.stages}

    def op(self, stage: str, i: int) -> tuple[float, int]:
        pt = self.POINTS[stage]
        seed = self.rng(stage, i).randrange(1 << 20)
        outcome, dt = _cli(["simulate", "--matrix", _input_path(pt.seed_file), "--p", str(pt.p),
                            "--ebn0", str(pt.ebn0), "--max-iter", str(MAX_ITER),
                            "--min-error-frames", str(pt.frames), "--frame-cap", str(pt.frames),
                            "--seed", str(seed)])
        problems, errors = simulate_problems(outcome, pt.ebn0, pt.frames)
        self.record(f"simulate {stage} seed={seed}", problems)
        self.totals[stage][0] += pt.frames
        self.totals[stage][1] += errors
        return dt, pt.frames

    def finish(self) -> None:
        for stage, (frames, errors) in self.totals.items():
            ref = self.POINTS[stage].ref_fer
            self.record(f"FER {stage}", [] if checks.fer_within(frames, errors, ref) else [
                f"FER {errors}/{frames} outside the reference {ref}"])

    def decoder_probe(self) -> dict:
        """decode_sp on benchmark-made frames, per operating point."""
        out = {}
        for stage, pt in self.POINTS.items():
            entries, p, n_frames = self.entries[stage], pt.p, pt.probe_frames
            matrix = qcgirth.matrices.ExponentMatrix.from_rows(entries)
            h = qcgirth.matrices.expand(qcgirth.matrices.QcCode(matrix, p))
            n, rate = h.n_cols, 1.0 - len(entries) / len(entries[0])
            fixed = []
            for _ in range(5):
                t0 = time.perf_counter()
                res = qcgirth.decoder.decode_sp(h, np.full(n, 60.0), MAX_ITER)
                fixed.append(time.perf_counter() - t0)
            problems = [] if res.converged and res.iterations_used == 1 else [
                f"noiseless frame took {res.iterations_used} iterations"]
            seed = self.rng("probe", 0).randrange(1 << 20)
            times, iters, converged = [], [], 0
            for f in range(n_frames):
                llr = checks.channel_llr(n, rate, pt.ebn0, seed, f)
                t0 = time.perf_counter()
                res = qcgirth.decoder.decode_sp(h, llr, MAX_ITER)
                times.append(time.perf_counter() - t0)
                iters.append(res.iterations_used)
                if res.converged:
                    converged += 1
                    if not checks.syndrome_is_zero(entries, p, res.decoded):
                        problems.append(f"frame {f}: converged with nonzero syndrome")
            self.record(f"decode_sp {stage}", problems)
            fixed_s = statistics.median(fixed)
            extra_iters = sum(iters) - n_frames
            q = statistics.quantiles(times, n=10, method="inclusive")
            out[stage] = {
                "iters_per_frame": sum(iters) / n_frames,
                "fixed_call_ms": 1e3 * fixed_s,
                "ms_per_iter": 1e3 * (sum(times) - n_frames * fixed_s) / extra_iters
                if extra_iters else 0.0,
                "frame_ms_p50": 1e3 * statistics.median(times),
                "frame_ms_p90": 1e3 * q[8],
                "converged_ratio": converged / n_frames,
                "frames": n_frames,
            }
        return out


WORKLOADS = {w.name: w for w in (Family, Search, Simulate)}


def timed_pass(wl: Workload, seconds: float) -> dict[str, list[tuple[float, int]]]:
    """Round-robin over the stages until the next operation would overrun.

    Every stage runs at least once, and stages interleave so that each one
    samples the whole pass.
    """
    samples: dict[str, list[tuple[float, int]]] = {s: [] for s in wl.stages}
    t0 = time.perf_counter()
    i = 0
    while True:
        stage = wl.stages[i % len(wl.stages)]
        if all(samples.values()):
            typical = statistics.median(dt for dt, _ in samples[stage])
            if time.perf_counter() - t0 + typical > seconds:
                break
        samples[stage].append(wl.op(stage, i // len(wl.stages)))
        i += 1
    return samples


def stage_summary(samples: dict[str, list[tuple[float, int]]]) -> dict:
    """Per-stage throughput over the whole pass, and the mean round's wall time.

    Totals over the pass, not per-operation medians: the box's speed drifts
    in phases of seconds, and the 1 dB frames vary from 17 to 80 iterations,
    so the mean over all the work done is the steadier estimate.
    """
    stages = {}
    for stage, ops in samples.items():
        seconds = sum(dt for dt, _ in ops)
        stages[stage] = {
            "mean_s": seconds / len(ops),
            "per_s": sum(units for _, units in ops) / seconds,
            "samples": [[dt, units] for dt, units in ops],
        }
    return {"stages": stages, "wall_s": sum(s["mean_s"] for s in stages.values())}


def _median_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], setup_end: int, pass_start: int,
                  extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the traced set-up and the traced round."""
    setup = SpanStats(spans, 0, setup_end)
    run = SpanStats(spans, pass_start, len(spans))
    m = {name: 0.0 for name, *_ in PER_LAYER}

    warm = run.by_tag("girth.find_cycle")
    first: dict = {}
    for tag, d in zip(setup.tags["girth.find_cycle"], setup.durations["girth.find_cycle"]):
        first.setdefault(tag, d)
    for (j, l, length), cold in first.items():
        key = f"girth.table_build_ms.{j}x{l}"
        if key in m and warm.get((j, l, length)):
            m[key] += 1e3 * (cold - statistics.median(warm[(j, l, length)]))

    m["girth.fast_calls"] = run.calls("girth.fast")
    m["girth.fast_self_ms"] = 1e3 * run.self_s["girth.fast"]
    m["girth.find_cycle_calls"] = run.calls("girth.find_cycle")
    m["girth.find_cycle_self_ms"] = 1e3 * run.self_s["girth.find_cycle"]
    m["girth.oracle_ms"] = _median_ms(run.durations["girth.oracle"])
    m["extension.check_calls"] = run.calls("extension.check")
    m["extension.check_ms"] = _median_ms(run.durations["extension.check"])
    m["extension.girth_calls_per_member"] = (
        run.parent_names["girth.fast"]["extension.extend"] / extra["members"])
    m["extension.extend_self_ms"] = 1e3 * run.self_s["extension.extend"]
    expand = run.by_tag("matrices.expand")
    m["matrices.expand_ms.P449"] = _median_ms(expand.get(449, ()))
    m["matrices.expand_ms.P4419"] = _median_ms(expand.get(4419, ()))
    m["matrices.from_rows_calls"] = extra["from_rows"]
    m["gf2.rank_ms"] = _median_ms(run.durations["gf2.rank"])
    m["alist.export_ms"] = _median_ms(run.durations["alist.export"])
    m["alist.import_ms"] = _median_ms(run.durations["alist.import"])

    greedy = run.by_tag("search.greedy")
    certified = run.by_tag("search.find_certified")
    for cols in (4, 5, 6):
        if greedy.get(cols) and certified.get(cols):
            g = statistics.median(greedy[cols])
            m[f"search.greedy_s.L{cols}"] = g
            m[f"search.anneal_s.L{cols}"] = statistics.median(certified[cols]) - g
    m["search.anneal_improved"] = extra["anneal_improved"]
    m["search.p2_max_sum"] = extra["p2_max_sum"]

    for point, values in extra["decoder"].items():
        for metric, value in values.items():
            m[f"decoder.{metric}.{point}"] = value

    m["cli.overhead_ms"] = 1e3 * run.self_s["cli.run"]
    m["trace.overhead_pct"] = extra["overhead_pct"]
    return m


def trace_run(main: Workload, seconds: float) -> tuple[dict, list[Workload]]:
    """An untraced half of *main*, then one traced round of every workload.

    Every layer runs in every traced run, so no per-layer metric reads an
    idle zero; ``trace.overhead_pct`` compares *main*'s traced round with
    its untraced rounds.
    """
    wls = [main if cls is type(main) else cls(main.seed) for cls in WORKLOADS.values()]
    by_name = {wl.name: wl for wl in wls}
    tracer = Tracer()
    tracer.install()
    for wl in wls:
        wl.setup()
    setup_end = len(tracer.spans)
    tracer.remove()
    for wl in wls:
        wl.after_setup()
    untraced = stage_summary(timed_pass(main, seconds / 2))

    tracer.install()
    pass_start = len(tracer.spans)
    rounds = {wl.name: stage_summary({s: [wl.op(s, 0)] for s in wl.stages}) for wl in wls}
    decoder = by_name["simulate"].decoder_probe()
    tracer.remove()

    search = by_name["search"]
    family_stages = rounds["family"]["stages"]
    extra = {
        "from_rows": tracer.counts["matrices.from_rows"],
        "members": sum(units for st in ("L6", "L10") for _, units in family_stages[st]["samples"]),
        "overhead_pct": 100.0 * (rounds[main.name]["wall_s"] / untraced["wall_s"] - 1.0),
        "p2_max_sum": search.p2_max_sum(),
        "anneal_improved": search.anneal_improved(tracer.results["search.greedy"]),
        "decoder": decoder,
    }
    for wl in wls:
        wl.finish()
    OUT.mkdir(exist_ok=True)
    write_spans(OUT / f"spans_{main.name}.jsonl", tracer.spans)
    self_s = SpanStats(tracer.spans, pass_start, len(tracer.spans)).layer_self_s()
    result = {
        "timed": untraced,
        "traced": rounds,
        "layers": layer_metrics(tracer.spans, setup_end, pass_start, extra),
        "layer_self_ms": {layer: 1e3 * s for layer, s in sorted(self_s.items())},
        "absent": tracer.absent,
    }
    return result, wls


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    if args.mode == "trace":
        result, wls = trace_run(wl, args.seconds)
    else:
        wl.setup()
        result, wls = {"ready": time.monotonic()}, [wl]
        if args.mode == "run":
            wl.after_setup()
            result["timed"] = stage_summary(timed_pass(wl, args.seconds))
            wl.finish()
            if isinstance(wl, Search):
                result["p2_max_sum"] = wl.p2_max_sum()
    result["attempted"] = sum(w.attempted for w in wls)
    result["failures"] = [f for w in wls for f in w.failures]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
