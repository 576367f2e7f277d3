"""Self-test of the benchmark.  Run from the repository root::

    python3 bench/selftest.py

It checks that BENCHMARK.json matches metrics.py, that each workload at
minimal length (``--seconds 1``) emits every metric with its unit and no
failure, that corrupted program outputs are counted as failures, and that
the benchmark refuses to run in a directory without the program.
Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
from metrics import END_TO_END, PER_LAYER, STAGES, benchmark_json  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_definitions() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(on_disk == benchmark_json(), "BENCHMARK.json matches metrics.py")


def check_workloads() -> None:
    for workload in STAGES:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run_bench(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what} fail_ratio = 0 ({result['failed']}/{result['attempted']})")
            units = {name: unit for name, unit, *_ in wanted}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == units, f"{what} emits every metric with its unit")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{what} end-to-end metrics are positive")


def check_corruption() -> None:
    """Corrupted outputs of each kind are counted as failures."""
    entries6 = checks.load_entries("seed_3x6.json")
    outcome = child.qcgirth.cli.run(
        ["extend", "--matrix", child._input_path("seed_3x6.json"), "--q", "393",
         "--from", "449", "--to", "452"])
    expect(child.manifest_problems(outcome, entries6, 393, 449, 452) == [],
           "an intact manifest passes")
    manifest = json.loads(outcome.stdout_payload)
    manifest["members"][2]["girth"] = 10
    bad = SimpleNamespace(exit_code=0, stdout_payload=json.dumps(manifest))
    expect(bool(child.manifest_problems(bad, entries6, 393, 449, 452)),
           "a manifest member with girth 10 is a failure")
    manifest["members"][2]["girth"] = 12
    del manifest["members"][3]
    bad = SimpleNamespace(exit_code=0, stdout_payload=json.dumps(manifest))
    expect(bool(child.manifest_problems(bad, entries6, 393, 449, 452)),
           "a manifest missing a member is a failure")

    family = child.Family(seed=1)
    family.setup()
    p = 449
    girth = child.qcgirth.cli.run(["girth", "--matrix", child._input_path("seed_3x6.json"),
                                   "--p", str(p), "--oracle"])
    h = child.qcgirth.matrices.expand(child.qcgirth.matrices.QcCode(family.matrices["L6"], p))
    rank = child.qcgirth.gf2.gf2_rank(h)
    expect(child.crosscheck_problems(entries6, p, girth, h, rank, h) == [],
           "an intact crosscheck passes")
    expect(bool(child.crosscheck_problems(entries6, p, girth, h, rank + 1, h)),
           "a wrong rank is a failure")
    other = child.qcgirth.matrices.expand(child.qcgirth.matrices.QcCode(family.matrices["L6"], p + 1))
    expect(bool(child.crosscheck_problems(entries6, p, girth, h, rank, other)),
           "an alist round trip that changes the matrix is a failure")

    csv = f"{child.qcgirth.decoder.CSV_HEADER}\n1.0,15,300,12,0.1,0.8,true"
    expect(bool(child.simulate_problems(SimpleNamespace(exit_code=0, stdout_payload=csv),
                                        1.0, 16)[0]),
           "a simulate run with the wrong frame count is a failure")

    uncertified = {"seed": {"entries": [[0] * 4, [0, 1, 2, 3], [0, 2, 4, 6]]}, "Q": 100,
                   "report": {"p2_max": 6, "min_P": 13}}
    bad = SimpleNamespace(exit_code=0, stdout_payload=json.dumps(uncertified))
    expect(bool(child.search_problems(bad, 4, 450, {})[0]),
           "a searched seed that does not certify is a failure")

    family.record("corrupted", ["girth 10"])
    expect(len(family.failures) == 1 and family.attempted == 3,
           "a failed check is counted against the operations attempted")


def check_bare_directory() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "family", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and '"metrics"' not in last[0],
               "without the program the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_definitions()
    check_corruption()
    check_bare_directory()
    check_workloads()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
