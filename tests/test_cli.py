from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcgirth
from qcgirth import (
    ExponentMatrix,
    QcCode,
    check_seed_conditions,
    expand,
    export_alist,
    extend_family,
    family_manifest,
    girth_oracle,
    import_alist,
    load_matrix,
    save_matrix,
)
from qcgirth.cli import run

from conftest import REFERENCE_SEED, REPO_ROOT

# simulate may fork decoder workers; none may outlive a test
pytestmark = pytest.mark.usefixtures("no_leaked_children")


@pytest.fixture
def seed_path(seed_fixture_path):
    return str(seed_fixture_path)


@pytest.fixture
def formula_counterexample_path(tmp_path):
    # passes all three conditions at Q = 43, but 2 * p2_max + 1 = 79 is not
    # girth 12: a 10-cycle sums to 79, so the family starts at 80
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": [[0, 0, 0], [0, 8, 9], [0, 39, 25]]}))
    return str(path)


class TestVerify:
    def test_reference_seed_all_pass(self, seed_path):
        outcome = run(["verify", "--matrix", seed_path, "--q", "393"])
        assert outcome.exit_code == 0
        report = json.loads(outcome.stdout_payload)
        assert report == {
            "cond1_girth12": True,
            "cond2_elementwise": True,
            "cond3_gap": True,
            "p2_max": 224,
            "p2_second": 170,
            "p1_max": 26,
            "min_P": 449,
        }

    def test_failing_seed_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "rows": 3,
                    "cols": 3,
                    "entries": [[0, 0, 0], [0, 5, 2], [0, 3, 6]],
                }
            )
        )
        outcome = run(["verify", "--matrix", str(path), "--q", "9"])
        assert outcome.exit_code == 1
        report = json.loads(outcome.stdout_payload)
        assert not report["cond2_elementwise"]

    def test_bound_is_max_sum_plus_one(self, formula_counterexample_path):
        outcome = run(["verify", "--matrix", formula_counterexample_path, "--q", "43"])
        assert outcome.exit_code == 0
        report = json.loads(outcome.stdout_payload)
        assert (report["p2_max"], report["min_P"]) == (39, 80)

    def test_zero_sum_seed_has_null_bound(self, tmp_path):
        # a repeated row-2 value closes a 4-cycle at every P
        path = tmp_path / "tied.json"
        path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": [[0, 0, 0], [0, 1, 2], [0, 9, 9]]}))
        outcome = run(["verify", "--matrix", str(path), "--q", "11"])
        assert outcome.exit_code == 1
        report = json.loads(outcome.stdout_payload)
        assert not report["cond1_girth12"]
        assert report["min_P"] is None

    def test_single_column_seed_has_null_bound(self, tmp_path):
        # one column is acyclic at every P, so no size is girth 12
        path = tmp_path / "one_column.json"
        path.write_text(json.dumps({"rows": 3, "cols": 1, "entries": [[0], [0], [0]]}))
        outcome = run(["verify", "--matrix", str(path), "--q", "5"])
        assert outcome.exit_code == 1
        report = json.loads(outcome.stdout_payload)
        assert not report["cond1_girth12"]
        assert report["min_P"] is None

    @pytest.mark.parametrize("q", ["1", str(2 ** 59 + 1)])
    def test_q_out_of_range_is_input_error(self, seed_path, q, capsys):
        outcome = run(["verify", "--matrix", seed_path, "--q", q])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            f"error: Q must be an integer in [2, 576460752303423488], got {q}\n")


class TestGirth:
    def test_girth_at_448(self, seed_path):
        outcome = run(["girth", "--matrix", seed_path, "--p", "448"])
        assert outcome.exit_code == 0
        report = json.loads(outcome.stdout_payload)
        assert report["girth"] == 8
        assert report["method"] == "EXPONENT_CHECK"
        assert report["witness"]["cols"] == [0, 5, 0, 5]

    def test_oracle_flag(self, seed_path):
        outcome = run(["girth", "--matrix", seed_path, "--p", "393", "--oracle"])
        report = json.loads(outcome.stdout_payload)
        assert report == {"girth": 12, "method": "GRAPH_BFS", "witness": None}

    def test_oracle_budget_exit(self, seed_path):
        # 3 * 6 * 277778 = 5,000,004 edges, past the layout budget
        outcome = run(["girth", "--matrix", seed_path, "--p", "277778", "--oracle"])
        assert outcome.exit_code == 3

    def test_one_row_oracle_keeps_the_layout_budget(self, tmp_path):
        # one block row gives no BFS root, yet past the edge budget still exits 3
        path = tmp_path / "one_row.json"
        path.write_text(json.dumps({"rows": 1, "cols": 4, "entries": [[0, 1, 2, 3]]}))
        at_budget = run(["girth", "--matrix", str(path), "--p", "1250000", "--oracle"])
        assert at_budget.exit_code == 0
        assert json.loads(at_budget.stdout_payload) == {
            "girth": None, "method": "GRAPH_BFS", "witness": None}
        assert run(["girth", "--matrix", str(path), "--p", "1250001", "--oracle"]).exit_code == 3

    def test_two_row_girth_past_the_oracle_budget(self, tmp_path):
        # 2 * 3 * 20011 edges; the girth-12 rule answers without expanding
        path = tmp_path / "two_rows.json"
        path.write_text(json.dumps({"rows": 2, "cols": 3, "entries": [[0, 0, 0], [0, 1, 3]]}))
        outcome = run(["girth", "--matrix", str(path), "--p", "20011"])
        assert outcome.exit_code == 0
        assert json.loads(outcome.stdout_payload) == {
            "girth": 12, "method": "EXPONENT_CHECK", "witness": None}

    def test_three_by_two_past_oracle_budget_is_girth_12(self, tmp_path):
        # 3 * 2 * 833334 edges are past the layout budget; below it the girth-12
        # rule and the oracle both read 12
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"rows": 3, "cols": 2, "entries": [[0, 0], [0, 1], [0, 3]]}))
        assert run(["girth", "--matrix", str(path), "--p", "833334", "--oracle"]).exit_code == 3
        outcome = run(["girth", "--matrix", str(path), "--p", "20000"])
        assert outcome.exit_code == 0
        report = json.loads(outcome.stdout_payload)
        assert report == {"girth": 12, "method": "EXPONENT_CHECK", "witness": None}
        oracle = run(["girth", "--matrix", str(path), "--p", "20000", "--oracle"])
        assert oracle.exit_code == 0
        assert json.loads(oracle.stdout_payload)["girth"] == 12
        oracle = run(["girth", "--matrix", str(path), "--p", "101", "--oracle"])
        assert json.loads(oracle.stdout_payload)["girth"] == 12

    @pytest.mark.parametrize("entries", [[[0, 1, 2]], [[0], [1], [2]]])
    @pytest.mark.parametrize("p", ["0", "1", "-5", str(2 ** 59 + 1)])
    def test_invalid_p_on_one_row_or_column_is_input_error(self, tmp_path, entries, p, capsys):
        # the acyclic shortcut used to answer "girth": null before checking P
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"rows": len(entries), "cols": len(entries[0]), "entries": entries}))
        outcome = run(["girth", "--matrix", str(path), "--p", p])
        assert outcome.exit_code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["fast", "oracle"])
    @pytest.mark.parametrize("p", ["1", str(2 ** 70)])
    def test_out_of_range_p_is_input_error(self, seed_path, p, oracle, capsys):
        # the oracle used to read its edge budget first: 2**70 exited 3
        outcome = run(["girth", "--matrix", seed_path, "--p", p, *oracle])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            f"error: modulus must be an integer in [2, 576460752303423488], got {p}\n")


class TestExtend:
    def test_thirty_member_manifest(self, seed_path):
        outcome = run(
            ["extend", "--matrix", seed_path, "--q", "393", "--from", "449", "--to", "478"]
        )
        assert outcome.exit_code == 0
        manifest = json.loads(outcome.stdout_payload)
        assert manifest["min_P"] == 449
        assert len(manifest["members"]) == 30
        assert manifest["members"][-1] == {"P": 478, "N": 2868, "girth": 12}

    def test_below_bound_is_input_error(self, seed_path):
        outcome = run(
            ["extend", "--matrix", seed_path, "--q", "393", "--from", "448", "--to", "478"]
        )
        assert outcome.exit_code == 2

    def test_family_starts_at_the_exact_bound(self, formula_counterexample_path, capsys):
        argv = ["extend", "--matrix", formula_counterexample_path, "--q", "43", "--to", "90"]
        assert run(argv + ["--from", "79"]).exit_code == 2
        assert "79 < min_P=80" in capsys.readouterr().err
        outcome = run(argv + ["--from", "80"])
        assert outcome.exit_code == 0
        manifest = json.loads(outcome.stdout_payload)
        assert manifest["min_P"] == 80
        assert {m["girth"] for m in manifest["members"]} == {12}
        for p, girth in (("80", 12), ("79", 10)):
            oracle = run(["girth", "--matrix", formula_counterexample_path, "--p", p, "--oracle"])
            assert json.loads(oracle.stdout_payload)["girth"] == girth

    @pytest.mark.parametrize("p_hi", [str(449 + 1_000_000), str(10 ** 20)])
    def test_window_over_member_cap_is_budget_error(self, seed_path, p_hi, capsys):
        # a 10**20-member window used to loop for hours building QcCode objects
        outcome = run(
            ["extend", "--matrix", seed_path, "--q", "393", "--from", "449", "--to", p_hi]
        )
        assert outcome.exit_code == 3
        assert "cap of 1000000" in capsys.readouterr().err

    def test_window_past_max_value_is_input_error(self, seed_path, capsys):
        outcome = run(
            [
                "extend", "--matrix", seed_path, "--q", "393",
                "--from", "576460752303423487", "--to", "576460752303423489",
            ]
        )
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            "error: circulant size must be an integer in [2, 576460752303423488], "
            "got 576460752303423489\n"
        )

    @pytest.mark.parametrize("command", ["verify", "extend"])
    def test_seed_past_the_sequence_budget_is_budget_error(self, tmp_path, command, capsys):
        # a 4-cycle fails condition 1 at Q, but min_P needs the (3,13) 10-cycle
        # table, which is over the sequence budget
        path = tmp_path / "wide.json"
        save_matrix(path, ExponentMatrix.from_rows(
            [[0] * 13, [0] + [1] * 12, list(range(0, 260, 20))]))
        window = ["--from", "400", "--to", "410"] if command == "extend" else []
        outcome = run([command, "--matrix", str(path), "--q", "300", *window])
        assert outcome.exit_code == 3
        assert "exceed the budget" in capsys.readouterr().err

    def test_reversed_window_is_input_error(self, seed_path, capsys):
        # a window with --to below --from is empty, even when --from is below min_P
        for p_lo, p_hi in (("500", "400"), ("400", "300")):
            outcome = run(["extend", "--matrix", seed_path, "--q", "393",
                           "--from", p_lo, "--to", p_hi])
            assert outcome.exit_code == 2
            assert capsys.readouterr().err == f"error: empty range: {p_hi} < {p_lo}\n"

    def test_full_cap_builds_no_member(self, seed_path, built_codes):
        outcome = run(
            ["extend", "--matrix", seed_path, "--q", "393", "--from", "449", "--to", "1000448"]
        )
        assert outcome.exit_code == 0
        assert outcome.stdout_payload.endswith('"P": 1000448,\n      "N": 6002688,\n'
                                               '      "girth": 12\n    }\n  ]\n}')
        assert built_codes == []

    def test_no_verify_flag_is_gone(self, seed_path):
        outcome = run(
            [
                "extend", "--matrix", seed_path, "--q", "393",
                "--from", "449", "--to", "452", "--no-verify",
            ]
        )
        assert outcome.exit_code == 2

    def test_threads_flag_is_gone(self, seed_path):
        outcome = run(
            [
                "--threads", "4", "extend", "--matrix", seed_path, "--q", "393",
                "--from", "449", "--to", "452",
            ]
        )
        assert outcome.exit_code == 2


def _certified_seeds():
    """(matrix, Q, min_P) of the reference seed and of every search golden seed."""
    golden = json.loads((REPO_ROOT / "tests/data/search_stdout_golden.json").read_text())
    found = [json.loads(case["stdout"]) for case in golden]
    return [(REFERENCE_SEED, 393, 449)] + [
        (ExponentMatrix.from_rows(f["seed"]["entries"]), f["Q"], f["report"]["min_P"])
        for f in found
    ]


CERTIFIED_SEEDS = _certified_seeds()


@pytest.fixture(scope="module")
def certified_seed_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeds")
    paths = []
    for i, (matrix, _, _) in enumerate(CERTIFIED_SEEDS):
        save_matrix(root / f"seed{i}.json", matrix)
        paths.append(str(root / f"seed{i}.json"))
    return paths


class TestManifestText:
    """The extend payload is byte for byte json.dumps(manifest, indent=2)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        index=st.integers(0, len(CERTIFIED_SEEDS) - 1),
        offset=st.integers(0, 3000),
        width=st.integers(1, 400),
    )
    def test_extend_payload_is_json_dumps_of_the_manifest(
        self, certified_seed_paths, index, offset, width
    ):
        matrix, q, min_p = CERTIFIED_SEEDS[index]
        p_lo, p_hi = min_p + offset, min_p + offset + width - 1
        outcome = run(["extend", "--matrix", certified_seed_paths[index], "--q", str(q),
                       "--from", str(p_lo), "--to", str(p_hi)])
        assert outcome.exit_code == 0
        manifest = family_manifest(extend_family(matrix, q, p_lo, p_hi), q)
        assert outcome.stdout_payload == json.dumps(manifest, indent=2)


class TestSearch:
    def test_small_search(self):
        outcome = run(
            [
                "search", "--cols", "3", "--q-cap", "200", "--seed", "0",
                "--steps", "400", "--restarts", "2",
            ]
        )
        assert outcome.exit_code == 0
        payload = json.loads(outcome.stdout_payload)
        assert payload["report"]["cond1_girth12"]
        assert payload["seed"]["rows"] == 3
        assert payload["Q"] <= 200

    def test_stdout_matches_golden(self):
        # recorded from the beam search; no case has a larger min_P than annealing gave
        golden = json.loads((REPO_ROOT / "tests/data/search_stdout_golden.json").read_text())
        assert len(golden) >= 5
        for case in golden:
            outcome = run(case["argv"].split())
            assert outcome.exit_code == 0
            assert outcome.stdout_payload == case["stdout"], case["argv"]

    def test_single_column_is_input_error(self, capsys):
        outcome = run(["search", "--cols", "1", "--q-cap", "50", "--seed", "0"])
        assert outcome.exit_code == 2
        assert "cols=1" in capsys.readouterr().err

    def test_steps_do_not_change_the_result(self):
        # the beam expands at most restarts * (cols - 1) partial seeds
        argv = ["search", "--cols", "6", "--q-cap", "450", "--seed", "0", "--restarts", "3"]
        few, many = run(argv + ["--steps", "1"]), run(argv + ["--steps", "2000"])
        assert few.exit_code == many.exit_code == 0
        assert few.stdout_payload == many.stdout_payload == run(argv).stdout_payload

    @pytest.mark.parametrize("q_cap", ["1", str(2**59 + 1), str(10**20)])
    def test_q_cap_out_of_range_is_input_error(self, q_cap, capsys):
        outcome = run(["search", "--cols", "3", "--q-cap", q_cap, "--seed", "0"])
        assert outcome.exit_code == 2
        assert "q_cap" in capsys.readouterr().err

    def test_budget_exhaustion_exit(self):
        outcome = run(
            ["search", "--cols", "3", "--q-cap", "2", "--seed", "0", "--steps", "10"]
        )
        assert outcome.exit_code == 3

    def test_golden_seeds_certify_at_their_q(self):
        for matrix, q, _ in CERTIFIED_SEEDS[1:]:
            assert check_seed_conditions(matrix, q).all_pass
            assert girth_oracle(matrix, q) == 12

    def test_large_q_cap_is_quick(self):
        t0 = time.perf_counter()
        outcome = run(["search", "--cols", "3", "--q-cap", "100000", "--seed", "0",
                       "--steps", "200", "--restarts", "1"])
        assert outcome.exit_code == 0
        assert time.perf_counter() - t0 < 5.0

    def test_window_past_the_cell_cap_exit(self, monkeypatch, capsys):
        monkeypatch.setattr("qcgirth.search._MAX_GRID_CELLS", 20)
        outcome = run(["search", "--cols", "3", "--q-cap", "450", "--seed", "0"])
        assert outcome.exit_code == 3
        assert "cells" in capsys.readouterr().err


class TestExport:
    def test_alist_round_trip_via_stdout(self, seed_path):
        outcome = run(["export", "--matrix", seed_path, "--p", "7", "--format", "alist"])
        assert outcome.exit_code == 0
        h = import_alist(outcome.stdout_payload + "\n")
        assert h.n_rows == 21 and h.n_cols == 42

    def test_json_format(self, seed_path):
        outcome = run(["export", "--matrix", seed_path, "--p", "5", "--format", "json"])
        payload = json.loads(outcome.stdout_payload)
        assert payload["n_rows"] == 15
        assert len(payload["row_supports"]) == 15

    def test_out_file(self, seed_path, tmp_path):
        target = tmp_path / "h.alist"
        outcome = run(
            [
                "export", "--matrix", seed_path, "--p", "7",
                "--format", "alist", "--out", str(target),
            ]
        )
        assert outcome.exit_code == 0
        assert json.loads(outcome.stdout_payload)["written"] == str(target)
        assert import_alist(target.read_text()).n_cols == 42

    @pytest.mark.parametrize("p", [449, 745, 4000])
    def test_payloads_equal_the_expansion_reference(self, seed_path, tmp_path, p):
        h = expand(QcCode(load_matrix(seed_path), p))
        rows = [list(s) for s in h.row_supports]
        expected = {
            "alist": export_alist(h),
            "json": json.dumps(
                {"n_rows": h.n_rows, "n_cols": h.n_cols, "row_supports": rows}, indent=2
            ) + "\n",
        }
        for fmt, text in expected.items():
            argv = ["export", "--matrix", seed_path, "--p", str(p), "--format", fmt]
            outcome = run(argv)
            assert outcome.exit_code == 0
            assert outcome.stdout_payload == text.rstrip("\n")
            target = tmp_path / f"h.{fmt}"
            outcome = run(argv + ["--out", str(target)])
            assert outcome.exit_code == 0
            assert target.read_bytes() == text.encode()
            assert outcome.stdout_payload == json.dumps(
                {"written": str(target), "n_rows": h.n_rows, "n_cols": h.n_cols}
            )

    def test_alist_peak_memory_at_the_edge_budget(self, seed_path, tmp_path):
        # 3 * 6 * 277777 edges, the most the layout budget allows.  The former
        # writer, one "%" format over a tuple of Python ints, peaked at 480 MB
        # here: 6.3 traced bytes per byte of the 76 MB file.
        target = tmp_path / "h.alist"
        argv = ["export", "--matrix", seed_path, "--p", "277777", "--format", "alist",
                "--out", str(target)]
        tracemalloc.start()
        try:
            outcome = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        try:
            assert outcome.exit_code == 0
            with target.open() as f:
                assert f.readline() == "1666662 833331\n"
            assert peak <= 6 * target.stat().st_size
        finally:
            target.unlink()

    @pytest.mark.parametrize("p", ["277778", "100000000"])
    def test_code_over_edge_budget_is_budget_error(self, seed_path, tmp_path, p, capsys):
        # 3 * 6 * P edges past the layout budget; P = 10**8 used to die
        # allocating with a numpy memory-error traceback (exit 1)
        target = tmp_path / "h.json"
        outcome = run(
            ["export", "--matrix", seed_path, "--p", p, "--format", "json", "--out", str(target)]
        )
        assert outcome.exit_code == 3
        assert outcome.stdout_payload == ""
        assert not target.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "5000000" in err
        assert "Traceback" not in err


class TestSimulate:
    def test_csv_output(self, seed_path):
        outcome = run(
            [
                "simulate", "--matrix", seed_path, "--p", "29",
                "--ebn0", "3.0,5.0", "--max-iter", "10",
                "--min-error-frames", "2", "--frame-cap", "20", "--seed", "5",
            ]
        )
        assert outcome.exit_code == 0
        lines = outcome.stdout_payload.split("\n")
        assert lines[0] == "ebn0_db,frames,bit_errors,frame_errors,ber,fer,cap_hit"
        assert len(lines) == 3
        assert lines[1].startswith("3.0,")

    def test_bad_ebn0_list(self, seed_path, capsys):
        for ebn0, message in (("abc", "bad --ebn0 list: 'abc'"), (",", "empty --ebn0 list")):
            outcome = run(
                [
                    "simulate", "--matrix", seed_path, "--p", "29",
                    "--ebn0", ebn0, "--max-iter", "10",
                    "--min-error-frames", "2", "--frame-cap", "5", "--seed", "5",
                ]
            )
            assert outcome.exit_code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rows, seed, message", [
        ([[0, 0, 0], [0, 1, 2], [0, 3, 7]], "5",
         "rate must be in (0, 1), got 0.0; simulation needs more columns than rows"),
        (REFERENCE_SEED.entries, "-1", "rng_seed must be non-negative"),
    ], ids=["square_seed", "negative_seed"])
    def test_bad_channel_is_input_error(self, tmp_path, rows, seed, message, capsys):
        path = tmp_path / "seed.json"
        save_matrix(path, ExponentMatrix.from_rows(rows))
        outcome = run(
            [
                "simulate", "--matrix", str(path), "--p", "29", "--ebn0", "3",
                "--max-iter", "10", "--min-error-frames", "2", "--frame-cap", "5",
                "--seed", seed,
            ]
        )
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("ebn0", ["-inf", "-3100", "3080", "1e400"])
    def test_unusable_ebn0_is_input_error(self, seed_path, ebn0, capsys):
        # -inf used to divide by zero; -3100 overflowed the noise variance
        # to inf and reported fer=0; 3080 gives infinite channel LLRs;
        # 1e400 overflowed to the noiseless sentinel
        outcome = run(
            [
                "simulate", "--matrix", seed_path, "--p", "29",
                f"--ebn0={ebn0}", "--max-iter", "10",
                "--min-error-frames", "2", "--frame-cap", "5", "--seed", "5",
            ]
        )
        assert outcome.exit_code == 2
        assert outcome.stdout_payload == ""
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_non_positive_max_iter_is_input_error(self, seed_path, max_iter, capsys):
        # no iteration used to leave every frame at the all-zero word: fer=0
        outcome = run(
            [
                "simulate", "--matrix", seed_path, "--p", "29", "--ebn0", "0",
                "--max-iter", max_iter, "--min-error-frames", "2", "--frame-cap", "3",
                "--seed", "1",
            ]
        )
        assert outcome.exit_code == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_infinite_channel_llrs_exit_without_warning(self, seed_path, capsys):
        # 2 / sigma^2 overflows at 3080 dB; numpy used to warn before the error
        outcome = run(
            [
                "simulate", "--matrix", seed_path, "--p", "29", "--ebn0", "3080",
                "--max-iter", "10", "--min-error-frames", "2", "--frame-cap", "5",
                "--seed", "5",
            ]
        )
        assert outcome.exit_code == 2
        assert capsys.readouterr().err.startswith("error: channel LLRs at 3080.0 dB")

    @pytest.mark.parametrize("p", ["277778", "1099511627776"])
    def test_code_over_edge_budget_is_budget_error(self, seed_path, p, capsys):
        # 3 * 6 * P edges past matrices.MAX_LAYOUT_EDGES; the layout used to die
        # allocating with a numpy memory-error traceback (exit 1)
        outcome = run(
            [
                "simulate", "--matrix", seed_path, "--p", p, "--ebn0", "3",
                "--max-iter", "10", "--min-error-frames", "2", "--frame-cap", "3",
                "--seed", "5",
            ]
        )
        assert outcome.exit_code == 3
        assert outcome.stdout_payload == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and "5000000" in err
        assert "Traceback" not in err

    def test_stdout_matches_golden(self, monkeypatch):
        # written by the bincount decoder before the fixed-degree layout
        golden = json.loads((REPO_ROOT / "tests/data/simulate_stdout_golden.json").read_text())
        assert len(golden) >= 5
        monkeypatch.chdir(REPO_ROOT)
        for case in golden:
            outcome = run(case["argv"].split())
            assert outcome.exit_code == 0
            assert outcome.stdout_payload == case["stdout"], case["argv"]

    def test_literal_inf_is_noiseless(self, seed_path):
        outcome = run(
            [
                "simulate", "--matrix", seed_path, "--p", "29",
                "--ebn0", "inf, +INF", "--max-iter", "10",
                "--min-error-frames", "2", "--frame-cap", "3", "--seed", "5",
            ]
        )
        assert outcome.exit_code == 0
        assert outcome.stdout_payload.split("\n")[1:] == ["inf,3,0,0,0.0,0.0,true"] * 2


# Matrix files every command must refuse with exit 2, and no traceback.
_HOSTILE_FILES = {
    "list": b"[[0, 0], [0, 1]]",
    "nan": b'{"rows": 1, "cols": 2, "entries": [[0, NaN]]}',
    "digits": b'{"rows": 1, "cols": 2, "entries": [[0, ' + b"7" * 5000 + b"]]}",
    "non_utf8": b'{"rows": 1, "cols": 2, "entries": [[0, 1]]}\xff\xfe',
    "true": b'{"rows": 1, "cols": 2, "entries": [[0, true]]}',
    "float": b'{"rows": 1, "cols": 2, "entries": [[0, 1.5]]}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
}
_MATRIX_COMMANDS = {
    "verify": ["verify", "--q", "393"],
    "girth": ["girth", "--p", "29"],
    "oracle": ["girth", "--p", "29", "--oracle"],
    "extend": ["extend", "--q", "393", "--from", "449", "--to", "451"],
    "export": ["export", "--p", "29", "--format", "alist"],
    "simulate": ["simulate", "--p", "29", "--ebn0", "3", "--max-iter", "5",
                 "--min-error-frames", "1", "--frame-cap", "2", "--seed", "0"],
}


class TestErrorPaths:
    def test_unknown_command(self):
        assert run(["bogus"]).exit_code == 2

    def test_missing_required_flag(self):
        assert run(["girth", "--p", "5"]).exit_code == 2

    def test_missing_file(self):
        outcome = run(["girth", "--matrix", "/nonexistent.json", "--p", "5"])
        assert outcome.exit_code == 2

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["girth", "--matrix", str(path), "--p", "5"]).exit_code == 2

    def test_wrong_schema_file(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"rows": 1}))
        assert run(["girth", "--matrix", str(path), "--p", "5"]).exit_code == 2

    @pytest.mark.parametrize("content", _HOSTILE_FILES.values(), ids=list(_HOSTILE_FILES))
    @pytest.mark.parametrize("argv", _MATRIX_COMMANDS.values(), ids=list(_MATRIX_COMMANDS))
    def test_hostile_matrix_file_is_input_error(self, tmp_path, argv, content, capsys):
        # deep nesting used to raise RecursionError out of run
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        outcome = run([argv[0], "--matrix", str(path), *argv[1:]])
        assert (outcome.exit_code, outcome.stdout_payload) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "command, entry, size",
        [
            ("girth", 1, 10 ** 20),
            ("girth", 1, 2 ** 59 + 1),
            ("girth", 2 ** 59 + 1, 7),
            ("verify", 2 ** 63, 2 ** 63 + 1),
        ],
    )
    def test_values_past_the_limit_are_input_errors(self, tmp_path, command, entry, size, capsys):
        # such values used to overflow int64 with an OverflowError (exit 1)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rows": 3, "cols": 2, "entries": [[0, 0], [0, 0], [0, entry]]}))
        flag = "--p" if command == "girth" else "--q"
        outcome = run([command, "--matrix", str(path), flag, str(size)])
        assert outcome.exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_values_at_the_limit_are_accepted(self, tmp_path):
        path = tmp_path / "big.json"
        limit = 2 ** 59
        path.write_text(json.dumps({"rows": 3, "cols": 2, "entries": [[0, 0], [0, 0], [0, limit]]}))
        outcome = run(["girth", "--matrix", str(path), "--p", str(limit)])
        assert outcome.exit_code == 0
        assert json.loads(outcome.stdout_payload)["girth"] == 4


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "seed.json"
        save_matrix(path, REFERENCE_SEED)
        # The child must import the same package as this test, installed or not.
        package_root = str(Path(qcgirth.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""),
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "qcgirth.cli",
                "girth", "--matrix", str(path), "--p", "393",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["girth"] == 12
