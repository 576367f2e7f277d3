"""Beam search over exponent-sum grids for certifiable (3,L) seeds.

A seed's shortest family member has length L * min_P, where min_P =
max|S| + 1 is :meth:`CycleSpectrum.bound`, so the beam ranks partial seeds
by that bound.  Cf. Tasdighi, Banihashemi and Sadeghi, "Efficient search of
girth-optimal QC-LDPC codes", IEEE Trans. IT, 2016.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SearchBudgetError
from .extension import ConditionReport, check_seed_conditions
from .girth import SHORT_CYCLE_LENGTHS, exponent_sums, girth_fast
from .matrices import ExponentMatrix, check_ints, check_size

_MAX_GRID_CELLS = 1 << 22  # (a, b) cells one window may lay out


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the seed search; only `cols` and `q_cap` are problem data.

    `restarts` is the beam width.  The beam expands at most
    restarts·(cols − 1) partial seeds, so no step budget is needed.  `cols`
    and `restarts` must be Python ints, not bools.
    """

    cols: int
    q_cap: int
    restarts: int = 8

    def __post_init__(self):
        check_ints(cols=self.cols, restarts=self.restarts)
        if self.cols < 2:
            raise ValueError(f"a seed needs at least 2 columns, got cols={self.cols}")
        check_size(self.q_cap, "q_cap")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _extended(parent: ExponentMatrix, a: int, b: int) -> ExponentMatrix:
    return ExponentMatrix.from_rows([[*row, e] for row, e in zip(parent.entries, (0, a, b))])


def _child_grid(parent: ExponentMatrix, q: int, a: np.ndarray, b: np.ndarray):
    """Per cell i, whether parent + column (0, a_i, b_i) has no exponent sum
    ≡ 0 mod q, and its max|S| + 1.  Each sum is linear in the new column,
    S = c + α·a + β·b, with c, α and β read from the sums with that column at
    (0,0,0), (0,1,0) and (0,0,1); one numpy pass per (α, β) group follows.
    """
    c, alpha, beta = (
        np.concatenate([exponent_sums(_extended(parent, *col), n) for n in SHORT_CYCLE_LENGTHS],
                       dtype=np.int64)  # reduced by a Python-int q below
        for col in ((0, 0), (1, 0), (0, 1))
    )
    alpha, beta = alpha - c, beta - c
    feasible = np.ones(a.shape, dtype=bool)
    top = np.zeros(a.shape, dtype=np.int64)
    for al, be in set(zip(alpha.tolist(), beta.tolist())):
        group = c[(alpha == al) & (beta == be)]
        t = al * a + be * b
        feasible &= ~np.isin(t % q, -group % q)
        # The group's largest |c + t| is at its smallest or largest c.
        np.maximum(top, np.maximum(group.max() + t, -(group.min() + t)), out=top)
    return feasible, top + 1


def _best_children(parent: ExponentMatrix, cfg: SearchConfig,
                   last: bool) -> list[tuple[int, int, int]]:
    """The cfg.restarts best children of *parent* as (bound, b, a), best first.

    Children are girth 12 at q_cap with a <= b < q_cap and b above the
    parent's last column; a last column also leaves the row-2 gap.  The
    4-cycle on rows 0, 2 and columns 0, v sums to b, so a child with b >= s
    has bound > s: the window b < s doubles until the last child kept has
    bound <= s, and no child past it can displace one kept.
    """
    b_prev, p1_max = parent.entries[2][-1], max(parent.entries[1])
    s = b_prev + 1
    while True:
        s = min(2 * s, cfg.q_cap)
        if s * (s - b_prev - 1) > _MAX_GRID_CELLS:
            raise SearchBudgetError(f"window b < {s} is over the cap of "
                                    f"{_MAX_GRID_CELLS} cells; lower q_cap or restarts")
        a, b = np.meshgrid(np.arange(s), np.arange(b_prev + 1, s))
        keep = (a <= b) & (b - b_prev >= np.maximum(a, p1_max)) if last else a <= b
        a, b = a[keep], b[keep]
        feasible, bound = _child_grid(parent, cfg.q_cap, a, b)
        a, b, bound = a[feasible], b[feasible], bound[feasible]
        best = np.lexsort((a, b, bound))[: cfg.restarts]
        if (best.size == cfg.restarts and bound[best[-1]] <= s) or s == cfg.q_cap:
            return list(zip(bound[best].tolist(), b[best].tolist(), a[best].tolist()))


def find_certified_seed(cfg: SearchConfig) -> tuple[ExponentMatrix, int, ConditionReport]:
    """The best seed, the smallest Q at which it is girth 12, and its report.

    Columns (0, a, b) are added in increasing b, which loses nothing:
    permuting columns keeps every sum, and equal b close a 4-cycle.  The beam
    keeps the cfg.restarts partial seeds of least bound per column count,
    ties to the smaller b, then a, then the better parent, so the result is
    deterministic.  Every beam state is girth 12 at q_cap, so the Q scan ends
    there.  Raises SearchBudgetError when the beam empties.
    """
    beam = [ExponentMatrix.from_rows([[0], [0], [0]])]
    for cols in range(2, cfg.cols + 1):
        last = cols == cfg.cols
        children = [(*child, i) for i, parent in enumerate(beam)
                    for child in _best_children(parent, cfg, last)]
        if not children:
            raise SearchBudgetError(f"no certifiable column {cols} below q_cap="
                                    f"{cfg.q_cap}: q_cap too small for L={cfg.cols}")
        beam = [_extended(beam[i], a, b) for _, b, a, i in sorted(children)[: cfg.restarts]]
    seed = beam[0]
    q = next(q for q in range(seed.max_entry + 1, cfg.q_cap + 1)
             if girth_fast(seed, q).girth == 12)
    return seed, q, check_seed_conditions(seed, q)
