from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qcgirth import ExponentMatrix, QcCode

REPO_ROOT = Path(__file__).resolve().parent.parent

# Known-good (3,6) seed: girth 12 at Q=393, row-2 max 224, certified bound
# P >= 449.  The JSON fixture in fixtures/ carries the same values.
REFERENCE_SEED = ExponentMatrix.from_rows(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 3, 14, 18, 24, 26],
        [0, 19, 62, 107, 170, 224],
    ]
)


@pytest.fixture
def ref_seed() -> ExponentMatrix:
    # a fresh equal matrix: no spectrum cached by an earlier test
    return ExponentMatrix(REFERENCE_SEED.entries)


@pytest.fixture
def built_codes(monkeypatch) -> list[int]:
    """The circulant size of every QcCode built while the test runs."""
    built, real = [], QcCode.__post_init__

    def counted(self):
        built.append(self.circulant_size)
        real(self)

    monkeypatch.setattr(QcCode, "__post_init__", counted)
    return built


@pytest.fixture
def no_leaked_children():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"child process {pid or '(still running)'} outlived the test")


@pytest.fixture
def seed_fixture_path() -> Path:
    return REPO_ROOT / "fixtures" / "seed_3x6.json"


def random_canonical_matrix(rng: random.Random, j: int, l: int, p: int) -> ExponentMatrix:
    """Canonical J x L matrix with free entries uniform in [0, p)."""
    rows = [[0] * l]
    for _ in range(j - 1):
        rows.append([0] + [rng.randrange(p) for _ in range(l - 1)])
    return ExponentMatrix.from_rows(rows)


@st.composite
def qc_codes(draw):
    """Small QC codes: canonical or free exponents, odd or even P, entries up to 3P."""
    j, l, p = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(2, 40))
    entries = st.lists(st.integers(0, 3 * p), min_size=l, max_size=l)
    rows = draw(st.lists(entries, min_size=j, max_size=j))
    if draw(st.booleans()):
        rows = [[0] * l] + [[0] + row[1:] for row in rows[1:]]
    return QcCode(ExponentMatrix.from_rows(rows), p)


@st.composite
def irregular_rows(draw, max_rows=12, max_cols=30):
    """(n_rows, n_cols, rows) of sorted int tuples, with empty and repeated rows."""
    n_rows, n_cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    width = draw(st.sampled_from([0, 1, 3, 12, n_cols]))
    row = st.sets(st.integers(0, n_cols - 1), max_size=width).map(lambda s: tuple(sorted(s)))
    pool = draw(st.lists(row, min_size=1, max_size=n_rows))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    return n_rows, n_cols, tuple(rows)
