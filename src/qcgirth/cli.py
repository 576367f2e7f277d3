"""Command-line interface.

Machine-readable payloads (JSON or CSV) go to stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or input
error, 3 budget error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .alist import export_alist
from .decoder import ChannelParams, monte_carlo, summaries_to_csv
from .errors import BudgetError
from .extension import check_seed_conditions, extend_family, family_columns, family_manifest
from .girth import GRAPH_BFS, GirthReport, girth_fast, girth_oracle
from .matrices import QcCode, load_matrix, matrix_to_json, qc_layout
from .search import SearchConfig, find_certified_seed

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    stdout_payload: str


@lru_cache(maxsize=None)  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcgirth",
        description="girth-12 quasi-cyclic LDPC code construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate the seed extension conditions")
    p.add_argument("--matrix", required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("girth", help="compute the girth at one circulant size")
    p.add_argument("--matrix", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="force the BFS oracle")

    p = sub.add_parser("extend", help="generate a certified girth-12 family")
    p.add_argument("--matrix", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--from", dest="p_lo", type=int, required=True)
    p.add_argument("--to", dest="p_hi", type=int, required=True)

    p = sub.add_parser("search", help="search for a certified seed")
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--q-cap", dest="q_cap", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="accepted; does not change the result")
    p.add_argument("--steps", type=int, help="accepted; does not change the result")
    p.add_argument("--restarts", type=int, default=SearchConfig.restarts, help="beam width")

    p = sub.add_parser("export", help="expand and write the parity-check matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--format", choices=("alist", "json"), required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="BPSK/AWGN Monte Carlo, CSV per SNR point")
    p.add_argument("--matrix", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ebn0", required=True, help="comma-separated Eb/N0 list in dB")
    p.add_argument("--max-iter", dest="max_iter", type=int, required=True)
    p.add_argument("--min-error-frames", dest="min_error_frames", type=int, required=True)
    p.add_argument("--frame-cap", dest="frame_cap", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _cmd_verify(args) -> CommandOutcome:
    report = check_seed_conditions(load_matrix(args.matrix), args.q)
    payload = json.dumps(report.to_json_dict(), indent=2)
    return CommandOutcome(EXIT_OK if report.all_pass else EXIT_VERIFICATION, payload)


def _cmd_girth(args) -> CommandOutcome:
    matrix = load_matrix(args.matrix)
    if args.oracle:
        report = GirthReport(
            girth=girth_oracle(matrix, args.p), method=GRAPH_BFS, witness=None
        )
    else:
        report = girth_fast(matrix, args.p)
    return CommandOutcome(EXIT_OK, json.dumps(report.to_json_dict(), indent=2))


def _dumps_table(head: dict, key: str, item: str, values: list[int]) -> str:
    """``json.dumps({**head, key: items}, indent=2)``, items from one template.

    Every item is *item*, its ``%d`` fields filled from *values* in order,
    in one ``%`` format: the indent encoder of the standard library is pure
    Python and walks every value.
    """
    text = json.dumps({**head, key: []}, indent=2)
    body = ",\n".join([item] * (len(values) // item.count("%d"))) % tuple(values)
    return text[: -len("[]\n}")] + "[\n" + body + "\n  ]\n}"


# One manifest member as json.dumps(..., indent=2) lays it out in the list.
_MEMBER = '    {\n      "P": %d,\n      "N": %d,\n      "girth": %d\n    }'


def _cmd_extend(args) -> CommandOutcome:
    family = extend_family(load_matrix(args.matrix), args.q, args.p_lo, args.p_hi)
    head = family_manifest(family[:0], args.q)  # seed, Q and min_P, with no members
    values = family_columns(family).ravel().tolist()
    return CommandOutcome(EXIT_OK, _dumps_table(head, "members", _MEMBER, values))


def _cmd_search(args) -> CommandOutcome:
    cfg = SearchConfig(args.cols, args.q_cap, args.restarts)
    matrix, q, report = find_certified_seed(cfg)
    payload = json.dumps(
        {"seed": matrix_to_json(matrix), "Q": q, "report": report.to_json_dict()},
        indent=2,
    )
    return CommandOutcome(EXIT_OK, payload)


def _cmd_export(args) -> CommandOutcome:
    code = QcCode(load_matrix(args.matrix), args.p)
    size = {"n_rows": code.parity_rows, "n_cols": code.block_length}
    if args.format == "alist":
        text = export_alist(code)
    else:
        cols = qc_layout(code)[0]  # row r's columns are cols[:, r], ascending
        row = "    [\n" + ",\n".join(["      %d"] * cols.shape[0]) + "\n    ]"
        text = _dumps_table(size, "row_supports", row, cols.T.ravel().tolist()) + "\n"
    if args.out is None:
        return CommandOutcome(EXIT_OK, text.rstrip("\n"))
    Path(args.out).write_text(text, encoding="utf-8")
    return CommandOutcome(EXIT_OK, json.dumps({"written": args.out, **size}))


def _cmd_simulate(args) -> CommandOutcome:
    matrix = load_matrix(args.matrix)
    code = QcCode(matrix, args.p)
    rate = 1.0 - matrix.rows / matrix.cols
    tokens = [tok.strip() for tok in args.ebn0.split(",") if tok.strip()]
    try:
        points = [float(tok) for tok in tokens]
    except ValueError as e:
        raise ValueError(f"bad --ebn0 list: {args.ebn0!r}") from e
    for tok, ebn0 in zip(tokens, points):
        # Only a literal inf selects the noiseless sentinel; 1e400 overflows to it.
        if ebn0 == math.inf and tok.lower() not in ("inf", "+inf"):
            raise ValueError(f"Eb/N0 {tok!r} overflows a float")
    if not points:
        raise ValueError("empty --ebn0 list")
    summaries = []
    for ebn0 in points:
        channel = ChannelParams(ebn0_db=ebn0, rate=rate, rng_seed=args.seed)
        summaries.append(
            monte_carlo(
                code,
                channel,
                max_iter=args.max_iter,
                min_error_frames=args.min_error_frames,
                frame_cap=args.frame_cap,
            )
        )
        print(
            f"simulated {summaries[-1].frames} frames at {ebn0} dB "
            f"(fer={summaries[-1].fer:.3g})",
            file=sys.stderr,
        )
    return CommandOutcome(EXIT_OK, summaries_to_csv(summaries).rstrip("\n"))


_HANDLERS = {
    "verify": _cmd_verify,
    "girth": _cmd_girth,
    "extend": _cmd_extend,
    "search": _cmd_search,
    "export": _cmd_export,
    "simulate": _cmd_simulate,
}


def run(argv: list[str]) -> CommandOutcome:
    """Dispatch one command; never raises for expected failure modes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else EXIT_USAGE
        return CommandOutcome(code, "")
    try:
        return _HANDLERS[args.command](args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return CommandOutcome(EXIT_BUDGET, "")
    except (ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return CommandOutcome(EXIT_USAGE, "")


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.stdout_payload:
        print(outcome.stdout_payload)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
