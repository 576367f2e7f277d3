"""qcgirth benchmark: one workload, set-up probes, checks, metrics.

Run from the root of a checkout (the directory holding ``src/qcgirth``)::

    python3 bench/run.py --workload family --seed 1 --seconds 15 --trace 0

Each workload runs in fresh single-threaded Python processes (bench/child.py):
four that only set up, then one that sets up and runs the timed phase, so
``setup_s`` is the median of five fresh set-ups.  ``--trace 1`` instead
starts one process that reports the per-layer metrics (see child.trace_run).
The last stdout line is one JSON object: correct, attempted, failed, metrics.
The whole run record (environment, raw samples, calibration) goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, STAGES

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0


def _calibration_s() -> float:
    """Median time of a fixed pure-Python kernel; tracks the box's speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        sorted(range(100_000, 0, -1))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _child(root: Path, env: dict, args, mode: str, deadline: float) -> dict:
    """Run bench/child.py once and return its result.

    ``setup_s`` in the result is the time from spawn to the end of set-up.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} process overran the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    return result


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(STAGES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "qcgirth" / "__init__.py").is_file():
        print(f"error: no src/qcgirth under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _git_commit(root),
        "calibration_before_s": _calibration_s(),
    }
    try:
        if args.trace:
            result = _child(root, env, args, "trace", deadline)
        else:
            setups = [_child(root, env, args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = _child(root, env, args, "run", deadline)
            setups.append(result["setup_s"])
            record["setup_samples_s"] = setups
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    record["calibration_after_s"] = _calibration_s()
    record["child"] = result

    failures = result["failures"]
    attempted = max(result["attempted"], 1)
    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    else:
        timed = result["timed"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": timed["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        for n, (key, _) in enumerate(STAGES[args.workload], start=1):
            values[f"stage{n}_per_s"] = timed["stages"][key]["per_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calibration {record['calibration_before_s'] * 1e3:.1f} -> "
          f"{record['calibration_after_s'] * 1e3:.1f} ms")
    if args.trace:
        moves = {name: m for name, _, _, m in PER_LAYER}
        for name, m in metrics.items():
            targets = ", ".join(f"{e2e} on {w}" for e2e, w in moves[name])
            print(f"  {name:38s} {m['value']:12.4f} {m['unit']:12s} moves {targets}")
        print("  self time per layer, traced round: " + ", ".join(
            f"{layer} {ms:.1f} ms" for layer, ms in result["layer_self_ms"].items()))
        if result["absent"]:
            print("  absent (not traced): " + ", ".join(result["absent"]))
    else:
        for name, m in metrics.items():
            label = name
            if name.startswith("stage"):
                label = f"{STAGES[args.workload][int(name[5]) - 1][1]} ({name})"
            print(f"  {label:38s} {m['value']:12.4f} {m['unit']}")
        if "p2_max_sum" in result:
            print(f"  {'p2_max_sum':38s} {result['p2_max_sum']:12.0f} count")
    print(f"  {'fail_ratio':38s} {len(failures) / attempted:12.4f} "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
