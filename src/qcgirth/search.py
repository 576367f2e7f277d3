"""Greedy construction and simulated annealing for certifiable seeds.

The target is a canonical (3,L) exponent matrix that is girth-12 at some
size Q <= q_cap and satisfies the two ordering conditions, with the row-2
maximum as small as possible.  The family's shortest member length is
L * min_P, and min_P = max|S| + 1 (:meth:`CycleSpectrum.bound`) equals
2·p2_max + 1 when the row-1 maximum sits in the row-2 argmax column (see
:mod:`qcgirth.extension`), so p2_max is the cost annealing lowers.

Greedy placement picks, column by column, the lexicographically smallest
(p1, p2) pair with p1 <= p2 that keeps every cycle length through 10 open
at modulus q_cap.  Annealing then walks single-entry perturbations under a
penalized cost, repairing the row order by swapping.  Restart chains use
rng streams seed + i and the winner is the minimum-cost result with ties
broken by restart index, so the outcome does not depend on scheduling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import SearchBudgetError
from .extension import ConditionReport, _condition_report, check_seed_conditions
from .matrices import ExponentMatrix

_MOVE_SPAN = 8  # single-entry perturbation offsets drawn from [-8, 8] \ {0}
_PENALTY_FACTOR = 10  # penalty per violated condition is 10 * q_cap
_INITIAL_TEMPERATURE = 10.0
_COOLING_RATE = 0.995  # temperature factor per annealing step


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the seed search; only `cols` and `q_cap` are problem data."""

    cols: int
    q_cap: int
    seed: int = 0
    max_steps: int = 200_000
    restarts: int = 8

    def __post_init__(self):
        if self.cols < 1:
            raise ValueError("cols must be >= 1")
        if self.q_cap < 2:
            raise ValueError("q_cap must be >= 2")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _cost(matrix: ExponentMatrix, cfg: SearchConfig) -> int:
    report = _condition_report(matrix, cfg.q_cap)
    return report.p2_max + _PENALTY_FACTOR * cfg.q_cap * len(report.failures)


def greedy_seed(cfg: SearchConfig) -> ExponentMatrix:
    """Column-by-column lexicographic construction, girth-12 at q_cap.

    The output always keeps p1 <= p2 per column but may violate the row-2
    gap condition; it is a starting point for :func:`anneal`, not a
    certified seed.
    """
    p1s, p2s = [0], [0]
    for _ in range(1, cfg.cols):
        placed = None
        for a in range(cfg.q_cap):
            for b in range(a, cfg.q_cap):
                candidate = ExponentMatrix.from_rows(
                    [[0] * (len(p1s) + 1), p1s + [a], p2s + [b]]
                )
                if candidate.spectrum.shortest_cycle(cfg.q_cap):
                    continue
                placed = (a, b)
                break
            if placed:
                break
        if placed is None:
            raise SearchBudgetError(
                f"no feasible column within exponents < {cfg.q_cap}: "
                f"q_cap too small for L={cfg.cols}"
            )
        p1s.append(placed[0])
        p2s.append(placed[1])
    return ExponentMatrix.from_rows([[0] * cfg.cols, p1s, p2s])


def _perturb(entries: list[list[int]], cfg: SearchConfig, rng: random.Random) -> None:
    """Offset one non-first-column entry in place, repairing row order."""
    u = rng.randint(1, 2)
    v = rng.randint(1, cfg.cols - 1)
    offset = rng.randint(1, _MOVE_SPAN)
    if rng.random() < 0.5:
        offset = -offset
    entries[u][v] = min(max(entries[u][v] + offset, 0), cfg.q_cap - 1)
    if entries[1][v] > entries[2][v]:
        entries[1][v], entries[2][v] = entries[2][v], entries[1][v]


def _chain(start: ExponentMatrix, cfg: SearchConfig, stream: int) -> tuple[int, ExponentMatrix]:
    """One annealing chain on rng stream seed + stream; returns (cost, best)."""
    rng = random.Random(cfg.seed + stream)
    current = [list(row) for row in start.entries]
    current_cost = _cost(start, cfg)
    best, best_cost = start, current_cost
    temperature = _INITIAL_TEMPERATURE
    for _ in range(cfg.max_steps):
        proposal = [list(row) for row in current]
        _perturb(proposal, cfg, rng)
        candidate = ExponentMatrix.from_rows(proposal)
        candidate_cost = _cost(candidate, cfg)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            current, current_cost = proposal, candidate_cost
            if candidate_cost < best_cost:
                best, best_cost = candidate, candidate_cost
        temperature *= _COOLING_RATE
    return best_cost, best


def _ranked_chain_results(start: ExponentMatrix, cfg: SearchConfig) -> list[tuple[int, int, ExponentMatrix]]:
    if start.rows != 3:
        raise ValueError("annealing expects a (3,L) matrix")
    if not all(e == 0 for e in start.entries[0]):
        raise ValueError("annealing expects a canonical start")
    if cfg.cols < 2:
        raise ValueError(
            f"annealing needs at least 2 columns to perturb, got cols={cfg.cols}"
        )
    results = []
    for i in range(cfg.restarts):
        cost, matrix = _chain(start, cfg, i)
        results.append((cost, i, matrix))
    results.sort(key=lambda t: (t[0], t[1]))
    return results


def anneal(start: ExponentMatrix, cfg: SearchConfig) -> ExponentMatrix:
    """Best matrix over cfg.restarts Metropolis chains from *start*.

    Deterministic for fixed (start, cfg): chains derive their rng from
    cfg.seed and the winner is the minimum-cost result, ties to the lowest
    restart index.  Never worse than the best state seen, which includes
    the start itself.
    """
    return _ranked_chain_results(start, cfg)[0][2]


def find_certified_seed(cfg: SearchConfig) -> tuple[ExponentMatrix, int, ConditionReport]:
    """Greedy start, annealing restarts, then certification scan over Q.

    Candidates are examined in (cost, restart index) order; for each, Q
    scans upward from just above the largest entry to q_cap until the
    girth reaches 12, and the first candidate whose full condition report
    passes is returned with that Q.
    """
    start = greedy_seed(cfg)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for _, _, candidate in _ranked_chain_results(start, cfg):
        if candidate.entries in seen:
            continue
        seen.add(candidate.entries)
        flags = _condition_report(candidate, cfg.q_cap)
        if not (flags.cond2_elementwise and flags.cond3_gap):
            continue
        for q in range(max(2, candidate.max_entry + 1), cfg.q_cap + 1):
            # cond2 and cond3 do not depend on Q, so this report passes
            if candidate.spectrum.shortest_cycle(q) is None:
                return candidate, q, check_seed_conditions(candidate, q)
    raise SearchBudgetError(
        "search budget exhausted without a certified seed; "
        "increase q_cap / max_steps"
    )
