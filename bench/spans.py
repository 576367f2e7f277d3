"""In-memory spans around the package's public functions.

The tracer replaces a function at the module attribute where its caller
looks it up (``qcgirth.extension.girth_fast``, ``qcgirth.search.find_cycle``,
...) with a wrapper that records ``[name, start, end, parent, tag]``.
Nothing under ``src/`` is edited; ``remove()`` puts the originals back.
A target that no longer exists is listed in ``absent`` instead of failing,
so a later refactor that deletes a name only empties its metrics.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict


def _cols(cfg, *_, **__):
    return cfg.cols


def _shape_and_length(matrix, p, length, *_, **__):
    return (matrix.rows, matrix.cols, length)


def _circulant_size(code, *_, **__):
    return code.circulant_size


# (module, attribute, span name, tag function).  A span name is
# "<layer>.<operation>"; the layer is the package module doing the work.
TARGETS = (
    ("qcgirth.cli", "run", "cli.run", None),
    ("qcgirth.cli", "load_matrix", "matrices.load", None),
    ("qcgirth.cli", "matrix_to_json", "matrices.to_json", None),
    ("qcgirth.cli", "expand", "matrices.expand", _circulant_size),
    ("qcgirth.cli", "check_seed_conditions", "extension.check", None),
    ("qcgirth.cli", "extend_family", "extension.extend", None),
    ("qcgirth.cli", "family_manifest", "extension.manifest", None),
    ("qcgirth.cli", "girth_fast", "girth.fast", None),
    ("qcgirth.cli", "girth_oracle", "girth.oracle", None),
    ("qcgirth.cli", "find_certified_seed", "search.find_certified", _cols),
    ("qcgirth.cli", "monte_carlo", "decoder.monte_carlo", None),
    ("qcgirth.cli", "export_alist", "alist.export", None),
    ("qcgirth.extension", "check_seed_conditions", "extension.check", None),
    ("qcgirth.extension", "girth_fast", "girth.fast", None),
    ("qcgirth.extension", "find_cycle", "girth.find_cycle", _shape_and_length),
    ("qcgirth.girth", "find_cycle", "girth.find_cycle", _shape_and_length),
    ("qcgirth.girth", "girth_oracle", "girth.oracle", None),
    ("qcgirth.girth", "expand", "matrices.expand", _circulant_size),
    ("qcgirth.search", "find_cycle", "girth.find_cycle", _shape_and_length),
    ("qcgirth.search", "girth_fast", "girth.fast", None),
    ("qcgirth.search", "check_seed_conditions", "extension.check", None),
    ("qcgirth.search", "greedy_seed", "search.greedy", _cols),
    ("qcgirth.decoder", "expand", "matrices.expand", _circulant_size),
    ("qcgirth.decoder", "decode_sp", "decoder.decode_sp", None),
    ("qcgirth.matrices", "expand", "matrices.expand", _circulant_size),
    ("qcgirth.gf2", "gf2_rank", "gf2.rank", None),
    ("qcgirth.alist", "import_alist", "alist.import", None),
)

# Spans whose return value is kept, as (tag, result), in Tracer.results.
KEEP_RESULTS = ("search.greedy",)

# Called too often for a span each; counted only.
COUNTED = (("qcgirth.matrices", "ExponentMatrix.from_rows", "matrices.from_rows"),)


class Tracer:
    """Spans and call counts for the functions in TARGETS and COUNTED."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, tag in TARGETS:
            owner = importlib.import_module(module)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._span_wrapper(orig, name, tag))
        for module, attr, name in COUNTED:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(module), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if not isinstance(raw, classmethod):
                self.absent.append(f"{module}.{attr}")
                continue
            self._saved.append((cls, meth, raw))
            setattr(cls, meth, classmethod(self._count_wrapper(raw.__func__, name)))

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _span_wrapper(self, fn, name, tag):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        kept = self.results[name] if name in KEEP_RESULTS else None

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tag(*args, **kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append((rec[4], result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class SpanStats:
    """Per-name aggregates over spans[lo:hi] (one phase of a run)."""

    def __init__(self, spans: list[list], lo: int, hi: int):
        child = defaultdict(float)
        for rec in spans[lo:hi]:
            if rec[3] >= lo:
                child[rec[3]] += rec[2] - rec[1]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.tags: dict[str, list] = defaultdict(list)
        self.self_s: Counter = Counter()
        self.parent_names: dict[str, Counter] = defaultdict(Counter)
        for i in range(lo, hi):
            name, start, end, parent, tag = spans[i]
            self.durations[name].append(end - start)
            self.tags[name].append(tag)
            self.self_s[name] += (end - start) - child[i]
            self.parent_names[name][spans[parent][0] if parent >= lo else None] += 1

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def layer_self_s(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return dict(out)

    def by_tag(self, name: str) -> dict[object, list[float]]:
        out = defaultdict(list)
        for tag, d in zip(self.tags.get(name, ()), self.durations.get(name, ())):
            out[tag].append(d)
        return out


def write_spans(path, spans: list[list]) -> None:
    """One JSON array per line: name, start, end, parent index, tag."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in spans:
            f.write(json.dumps(rec) + "\n")
