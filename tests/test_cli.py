"""Command line front end: exit codes, output formats, determinism."""

import concurrent.futures
import gc
import importlib.util
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

from qek import cli, inequalities
from qek.ekoperator import _s_record
from qek.errors import QekError
from qek.functions import check_synchronous, compile_expr
from qek.cli import (
    REPORT_COLUMNS,
    CampaignConfig,
    derive_case,
    main,
    mix_seed,
    report_row,
    rows_to_csv,
    rows_to_jsonl,
    run_campaign,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_unit_operator_value(self, capsys):
        code, out, _ = run(
            ["eval", "--q", "0.5", "--eta", "0", "--mu", "1", "--beta", "1",
             "--t", "1", "--f", "(const 1)"],
            capsys,
        )
        assert code == 0
        value = float(out.split("value=")[1].split()[0])
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_invalid_q_exits_two(self, capsys):
        code, _, err = run(["eval", "--q", "1.2", "--f", "(const 1)"], capsys)
        assert code == 2
        assert "q must lie in (0,1)" in err

    def test_both_forms_agree(self, capsys):
        code, out, _ = run(
            ["eval", "--q", "0.6", "--eta", "0.5", "--mu", "0.7", "--beta", "2",
             "--t", "1.5", "--f", "(power 1)", "--form", "both"],
            capsys,
        )
        assert code == 0
        rel = float(out.split("relative_difference=")[1].split()[0])
        assert rel <= 1e-8

    def test_malformed_sexpr_exits_two(self, capsys):
        code, _, err = run(["eval", "--q", "0.5", "--f", "(const"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_nonpositive_t_exits_two(self, capsys):
        code, _, _ = run(
            ["eval", "--q", "0.5", "--t", "-1", "--f", "(const 1)"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--f", "(const inf)"],
        ["--f", "(power nan)"],
        ["--beta", "inf"],
        ["--eta", "inf"],
        ["--mu", "nan"],
        ["--t", "inf"],
        ["--t", "nan"],
    ])
    def test_non_finite_input_exits_two(self, capsys, flags):
        code, out, err = run(
            ["eval", "--q", "0.5", "--f", "(const 1)", *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_budget_cut_near_one_exits_two(self, capsys):
        # five product factors at q = 0.9999 leave a log error bound of
        # about 768: a "no convergence" error, not an OverflowError
        code, out, err = run(
            ["eval", "--q", "0.9999", "--mu", "0.7", "--max-terms", "5",
             "--f", "(const 1)"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: operator series: no convergence within 5 "
                       "product factors\n")

    def test_underflowed_nodes_exit_two(self, capsys):
        code, _, err = run(
            ["eval", "--form", "integral", "--q", "1e-120", "--eta", "-0.5",
             "--f", "(const 1)"], capsys)
        assert code == 2
        assert err.startswith("error: operator integral: nodes underflow")


class TestMixSeed:
    def test_stable_values(self):
        # frozen reference values pin the case-derivation scheme
        assert mix_seed(0, 0) == mix_seed(0, 0)
        assert mix_seed(0, 0) != mix_seed(0, 1)
        assert mix_seed(1, 0) != mix_seed(0, 0)

    def test_derive_case_deterministic(self):
        cfg = CampaignConfig(theorems=("T1",), cases=4, seed=9)
        a = derive_case(cfg, "T1", 2)
        b = derive_case(cfg, "T1", 2)
        assert a == b


_ALL = ("T1", "T2", "T3", "T4", "T5", "T6")


class TestIndexCases:
    """``cli._index_cases`` draws one case index once for all theorems."""

    # the ids name the family T1/T2 draw under each expectation
    @pytest.mark.parametrize("expect", ["holds", "reversed"],
                             ids=["synchronous", "asynchronous"])
    @pytest.mark.parametrize("grid", [(0.3, 0.6, 0.9), (0.97, 0.99)])
    def test_cases_equal_derive_case(self, expect, grid):
        config = CampaignConfig(theorems=_ALL, cases=30, seed=601,
                                expect=expect, q1_grid=grid, q2_grid=grid)
        for index in range(config.cases):
            cases = cli._index_cases(config, config.theorems, index)
            assert [c.theorem_id for c in cases] == list(_ALL)
            for case in cases:
                alone = derive_case(config, case.theorem_id, index)
                for name in case._fields:
                    assert getattr(case, name) == getattr(alone, name), (
                        index, case.theorem_id, name)

    def test_inputs_built_once_per_index(self):
        config = CampaignConfig(theorems=_ALL, cases=10, seed=601)
        for index in range(config.cases):
            t1, t2, t3, t4, t5, t6 = cli._index_cases(config, _ALL, index)
            assert all(c.u is t1.u for c in (t2, t3, t4, t5, t6))
            assert t4.v is t2.v and t6.v is t2.v and t1.v is None
            # T1-T4 share one triple, and only T3/T4 get its bounds
            assert t1.bounds is None and t3.bounds is not None
            for a, b in ((t1, t2), (t1, t3), (t3, t4), (t5, t6)):
                assert (a.f, a.g, a.h) == (b.f, b.g, b.h)
                assert a.f is b.f and a.g is b.g and a.h is b.h

    def test_one_draw_per_family_kind_and_weight(self, monkeypatch):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cli, "generate_family",
                            counted("family", cli.generate_family))
        monkeypatch.setattr(cli, "generate_weight",
                            counted("weight", cli.generate_weight))
        config = CampaignConfig(theorems=_ALL, cases=20, seed=601)
        run_campaign(config)
        assert counts == {"family": 2 * 20, "weight": 2 * 20}

    def test_campaign_compiles_no_closure(self):
        before = compile_expr.cache_info()
        run_campaign(CampaignConfig(theorems=_ALL, cases=20, seed=601))
        after = compile_expr.cache_info()
        assert after.hits + after.misses == before.hits + before.misses


class TestVerify:
    def test_small_campaign_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "reports.jsonl"
        code, _, err = run(
            ["verify", "--theorem", "T1", "--cases", "6", "--seed", "3",
             "--output", str(out_path), "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert "summary T1" in err
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 6
        row = json.loads(lines[0])
        assert tuple(row.keys()) == REPORT_COLUMNS

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        args = ["verify", "--theorem", "T1", "--cases", "5", "--seed", "11",
                "--no-timestamp"]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timestamp_header_line(self, capsys):
        code, out, _ = run(
            ["verify", "--theorem", "T1", "--cases", "2", "--seed", "1"],
            capsys,
        )
        assert code == 0
        first = json.loads(out.strip().split("\n")[0])
        assert "timestamp" in first

    def test_csv_format_columns(self, capsys):
        code, out, _ = run(
            ["verify", "--theorem", "T1", "--cases", "2", "--seed", "1",
             "--format", "csv", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        header = out.split("\n")[0]
        assert header == ",".join(REPORT_COLUMNS)

    def test_reversal_campaign_exit_zero(self, capsys):
        code, _, err = run(
            ["verify", "--theorem", "T1", "--cases", "10", "--seed", "5",
             "--expect", "reversed", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert "summary T1" in err

    @pytest.mark.parametrize("factor,expected", [(10.0, 0), (2.0, 1)])
    def test_reversal_threshold_follows_safety_factor(self, capsys,
                                                      monkeypatch, factor,
                                                      expected):
        def noisy(case, policy, shared=None):
            # a positive margin of five worst tails: inside the noise band
            # at SAFETY_FACTOR 10, a failed reversal at SAFETY_FACTOR 2
            rep = inequalities.evaluate_case(case, policy, shared)
            assert rep.worst_tail > 0.0
            margin = 5.0 * rep.worst_tail
            return rep._replace(
                margin=margin,
                verdict=inequalities._verdict(margin, rep.worst_tail))

        monkeypatch.setattr(cli, "evaluate_case", noisy)
        monkeypatch.setattr(inequalities, "SAFETY_FACTOR", factor)
        code, _, _ = run(
            ["verify", "--theorem", "T1", "--cases", "3", "--seed", "5",
             "--expect", "reversed", "--no-timestamp"],
            capsys,
        )
        assert code == expected

    def test_budget_cut_near_one_is_inconclusive(self, capsys):
        # the same budget as TestEval's: every case is a NaN, inconclusive
        # row and the run exits 0, not 1 on an OverflowError
        code, out, err = run(
            ["verify", "--theorem", "T1", "--cases", "3", "--seed", "1",
             "--grid-q1", "0.9999", "--grid-q2", "0.9999", "--grid-mu", "0.7",
             "--max-terms", "5", "--no-timestamp"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["verdict"] for row in rows] == ["inconclusive"] * 3
        assert all(math.isnan(row["margin"]) for row in rows)
        assert "summary T1: holds=0 violated=0 inconclusive=3" in err

    def test_budget_cut_rows_print_no_zero_error_budget(self, capsys):
        # a side that did not converge has no error bound: the row's
        # worst_tail is inf, printed as JSON prints NaN, never 0.0
        code, out, _ = run(
            ["verify", "--theorem", "T1", "--theorem", "T6", "--cases", "2",
             "--seed", "1", "--grid-q1", "0.9999", "--grid-q2", "0.9999",
             "--grid-mu", "0.7", "--max-terms", "5", "--no-timestamp"],
            capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        assert all(row["worst_tail"] == math.inf for row in rows)
        assert out.count('"worst_tail": Infinity') == 4

    def test_unknown_theorem_exits_two(self, capsys):
        code, _, _ = run(["verify", "--theorem", "T7", "--cases", "2"], capsys)
        assert code == 2

    def test_duplicate_theorem_exits_two_before_output(self, capsys,
                                                       tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, out, err = run(
            ["verify", "--theorem", "T1", "--theorem", "T1", "--cases", "2",
             "--output", str(out_path)], capsys)
        assert code == 2 and out == "" and "given twice" in err
        assert not out_path.exists()
        with pytest.raises(ValueError, match="given twice"):
            CampaignConfig(theorems=("T2", "T5", "T2"))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("grid", [
        "t_values", "q1_grid", "q2_grid", "eta_grid", "mu_grid",
        "beta_grid", "zeta_grid", "nu_grid", "delta_grid"])
    def test_non_finite_grid_value_rejected(self, grid, value):
        with pytest.raises(ValueError, match="finite"):
            CampaignConfig(**{grid: (0.5, value)})

    @pytest.mark.parametrize("flag", ["--grid-t", "--grid-eta", "--grid-nu"])
    def test_non_finite_grid_flag_exits_two(self, capsys, tmp_path, flag):
        out_path = tmp_path / "report.jsonl"
        code, out, err = run(
            ["verify", "--theorem", "T1", "--cases", "2", flag, "inf",
             "--output", str(out_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err
        assert not out_path.exists()

    def test_bad_grid_exits_two(self, capsys):
        code, _, err = run(
            ["verify", "--theorem", "T1", "--cases", "2", "--grid-q1", "1.5"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("kwargs", [{"rel_tol": -1.0}, {"rel_tol": 0.0},
                                        {"rel_tol": math.inf},
                                        {"rel_tol": math.nan},
                                        {"max_terms": 2}])
    def test_invalid_policy_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_invalid_tolerance_leaves_output_untouched(self, capsys, tmp_path,
                                                       fmt):
        out_path = tmp_path / "report.txt"
        out_path.write_text("earlier report\n")
        code, out, err = run(
            ["verify", "--theorem", "T1", "--cases", "2", "--tol", "0",
             "--output", str(out_path), "--format", fmt], capsys)
        assert code == 2
        assert "rel_tol" in err
        assert out_path.read_text() == "earlier report\n"

    def test_config_file_matches_flags(self, capsys, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(
            "# reproducible campaign\n"
            "theorem = T1\n"
            "cases = 4\n"
            "seed = 21\n"
            "grid.q1 = 0.3\n"
            "grid.q1 = 0.6\n"
            "grid.t = 1\n"
        )
        code1, out1, _ = run(["verify", "--config", str(cfg), "--no-timestamp"],
                             capsys)
        code2, out2, _ = run(
            ["verify", "--theorem", "T1", "--cases", "4", "--seed", "21",
             "--grid-q1", "0.3,0.6", "--grid-t", "1", "--no-timestamp"],
            capsys,
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unknown_grid_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("theorem = T1\ncases = 2\ngrid.bogus = 1\n")
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "unknown config key 'grid.bogus'" in err

    def test_family_is_not_a_setting(self, capsys, tmp_path):
        # --expect decides the T1/T2 family; there is no key or flag for it
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("theorem = T1\ncases = 2\nfamily = asynchronous\n")
        code, _, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key 'family'" in err
        code, _, err = run(["verify", "--theorem", "T1", "--family",
                            "asynchronous"], capsys)
        assert code == 2
        assert "unrecognized arguments" in err

    def test_config_file_io_keys(self, capsys, tmp_path):
        out_path = tmp_path / "from_config.csv"
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(
            "theorem = T1\ncases = 3\nseed = 2\n"
            f"output = {out_path}\nformat = csv\nno_timestamp = true\n"
        )
        code, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == ""  # everything went to the configured file
        assert out_path.read_text().startswith(",".join(REPORT_COLUMNS))

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("theorem = T1\ncases = 4\nseed = 21\n")
        code1, out1, _ = run(
            ["verify", "--config", str(cfg), "--seed", "22", "--no-timestamp"],
            capsys,
        )
        code2, out2, _ = run(
            ["verify", "--theorem", "T1", "--cases", "4", "--seed", "22",
             "--no-timestamp"],
            capsys,
        )
        assert out1 == out2

    def test_parallel_output_matches_serial(self, capsys):
        base = ["verify", "--theorem", "T2", "--cases", "6", "--seed", "4",
                "--no-timestamp"]
        code1, out1, _ = run(base, capsys)
        code2, out2, _ = run(base + ["--jobs", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


ALL_THEOREMS = ("T1", "T2", "T3", "T4", "T5", "T6")


def _theorem_flags(theorems):
    return [arg for t in theorems for arg in ("--theorem", t)]


def _expected_summary_lines(result):
    """The stderr summary, computed from the kept reports directly."""
    lines = []
    for theorem in result.config.theorems:
        reps = [rep for _, rep in result.reports
                if rep.case.theorem_id == theorem]
        counts = {v: sum(rep.verdict == v for rep in reps)
                  for v in ("holds", "violated", "inconclusive")}
        margins = [rep.margin for rep in reps if rep.margin == rep.margin]
        line = (f"summary {theorem}: holds={counts['holds']} "
                f"violated={counts['violated']} "
                f"inconclusive={counts['inconclusive']} "
                f"min_margin={min(margins, default=float('nan')):.6e}")
        if theorem in ("T5", "T6"):
            pos = sum(rep.bracket >= 0.0 for rep in reps)
            line += f" bracket_nonneg={pos} bracket_neg={len(reps) - pos}"
        lines.append(line)
    return lines


class TestStreaming:
    """`qek verify` writes each row as it finishes; the bytes, the summary
    and the exit code match the collect-then-serialize route."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_matches_run_campaign(self, capsys, jobs, fmt):
        cfg = CampaignConfig(theorems=ALL_THEOREMS, cases=4, seed=17)
        result = run_campaign(cfg)
        rows = [report_row(i, rep) for i, rep in result.reports]
        serialize = rows_to_csv if fmt == "csv" else rows_to_jsonl
        code, out, err = run(
            ["verify", *_theorem_flags(ALL_THEOREMS), "--cases", "4",
             "--seed", "17", "--format", fmt, "--jobs", str(jobs),
             "--no-timestamp"],
            capsys,
        )
        assert out == serialize(rows, timestamp=False)
        assert err.splitlines() == _expected_summary_lines(result)
        violated = any(rep.verdict == "violated" for _, rep in result.reports)
        assert code == (1 if violated else 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    # family: the pair f, g a reversed campaign draws for these theorems
    @pytest.mark.parametrize("theorems,family", [
        (("T1", "T2"), "asynchronous"),
        (("T3", "T5"), "synchronous"),
    ])
    def test_reversed_exit_code(self, capsys, jobs, theorems, family):
        cfg = CampaignConfig(theorems=theorems, cases=5, seed=8,
                             expect="reversed")
        reports = [rep for _, rep in run_campaign(cfg).reports]
        for rep in reports:
            case = rep.case
            assert check_synchronous(case.f, case.g, case.t) in (family,
                                                                 "both")
        unreversed = any(
            rep.margin == rep.margin
            and rep.margin > rep.worst_tail * inequalities.SAFETY_FACTOR
            for rep in reports)
        code, _, _ = run(
            ["verify", *_theorem_flags(theorems), "--cases", "5", "--seed",
             "8", "--expect", "reversed", "--jobs", str(jobs),
             "--no-timestamp"],
            capsys,
        )
        assert code == (1 if unreversed else 0)

    def test_pool_window_is_bounded(self, capsys, monkeypatch):
        # An in-process stand-in for the pool: counts the tasks submitted
        # and not yet read, and pickles what a worker would send back.
        state = {"open": 0, "most": 0, "tasks": 0}

        class Tracked(Future):
            def result(self, timeout=None):
                state["open"] -= 1
                return super().result(timeout)

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                out = pickle.loads(pickle.dumps(fn(*args)))
                for rows in out:  # one list of rows per case index
                    for line, fields in rows:
                        assert isinstance(line, str) and len(fields) == 4
                fut = Tracked()
                fut.set_result(out)
                state["open"] += 1
                state["tasks"] += 1
                state["most"] = max(state["most"], state["open"])
                return fut

            def shutdown(self, cancel_futures=False):
                pass

        base = ["verify", "--theorem", "T1", "--cases", "100", "--seed", "6",
                "--no-timestamp"]
        _, serial, _ = run(base, capsys)
        # the pool is imported where a --jobs N run starts it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        _, pooled, _ = run(base + ["--jobs", "2"], capsys)
        assert pooled == serial
        assert state["tasks"] == 13 and state["open"] == 0
        assert state["most"] <= 2 * cli._CHUNKS_AHEAD < state["tasks"]

    def test_failed_run_keeps_rows_written(self, capsys, monkeypatch,
                                           tmp_path):
        evaluate = cli.evaluate_case

        def fail_at_third(case, policy, shared=None):
            report = evaluate(case, policy, shared)
            if fail_at_third.calls == 3:
                raise QekError("stop")
            fail_at_third.calls += 1
            return report

        fail_at_third.calls = 0
        monkeypatch.setattr(cli, "evaluate_case", fail_at_third)
        out_path = tmp_path / "partial.jsonl"
        code, _, err = run(
            ["verify", "--theorem", "T1", "--cases", "6", "--seed", "3",
             "--output", str(out_path), "--no-timestamp"],
            capsys,
        )
        assert code == 2 and "stop" in err
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [row["case_index"] for row in rows] == [0, 1, 2]

    def test_crash_exits_three_and_keeps_rows_written(self, capsys,
                                                      monkeypatch, tmp_path):
        evaluate = cli.evaluate_case

        def crash_at_third(case, policy, shared=None):
            if crash_at_third.calls == 2:
                raise RuntimeError("unexpected")
            crash_at_third.calls += 1
            return evaluate(case, policy, shared)

        crash_at_third.calls = 0
        monkeypatch.setattr(cli, "evaluate_case", crash_at_third)
        out_path = tmp_path / "partial.jsonl"
        code, _, err = run(
            ["verify", "--theorem", "T1", "--cases", "6", "--seed", "3",
             "--output", str(out_path), "--no-timestamp"],
            capsys,
        )
        assert code == 3
        assert err.startswith("Traceback (most recent call last):")
        assert "RuntimeError: unexpected" in err
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [row["case_index"] for row in rows] == [0, 1]

    @pytest.mark.parametrize("fails", ["T1", "T3", None])
    def test_raising_run_keeps_finished_indices_theorem_major(
            self, capsys, monkeypatch, tmp_path, fails):
        # T1 and T3 run case-major (T1 0, T3 0, T1 1, ...); the case of
        # index 3 of ``fails`` raises
        evaluate = cli.evaluate_case
        make_spool = cli.tempfile.TemporaryFile
        spools = []
        calls = Counter()

        def fail_at_index_three(case, policy, shared=None):
            calls[case.theorem_id] += 1
            if case.theorem_id == fails and calls[fails] == 4:
                raise QekError("stop")
            return evaluate(case, policy, shared)

        def tracked_spool(*args, **kwargs):
            spools.append(make_spool(*args, **kwargs))
            return spools[-1]

        monkeypatch.setattr(cli, "evaluate_case", fail_at_index_three)
        monkeypatch.setattr(cli.tempfile, "TemporaryFile", tracked_spool)
        out_path = tmp_path / "partial.jsonl"
        code, _, err = run(
            ["verify", "--theorem", "T1", "--theorem", "T3", "--cases", "6",
             "--seed", "3", "--output", str(out_path), "--no-timestamp"],
            capsys,
        )
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        done = 6 if fails is None else 3
        if fails is not None:
            assert code == 2 and "stop" in err
        assert [(row["theorem"], row["case_index"]) for row in rows] == [
            (theorem, index) for theorem in ("T1", "T3")
            for index in range(done)]
        assert len(spools) == 1 and spools[0].closed

    def test_no_report_outlives_its_row(self, capsys, monkeypatch):
        evaluate = cli.evaluate_case
        earlier = []

        def tracked(case, policy, shared=None):
            assert all(ref() is None for ref in earlier)
            report = evaluate(case, policy, shared)
            earlier.append(weakref.ref(report))
            return report

        monkeypatch.setattr(cli, "evaluate_case", tracked)
        code, out, _ = run(
            ["verify", "--theorem", "T1", "--theorem", "T5", "--cases", "5",
             "--seed", "2", "--no-timestamp"],
            capsys,
        )
        assert len(earlier) == 10 and len(out.splitlines()) == 10

    def test_peak_memory_does_not_grow_with_cases(self, tmp_path):
        def peak_bytes(cases):
            argv = ["verify", *_theorem_flags(("T1", "T3", "T5")),
                    "--cases", str(cases), "--seed", "1", "--grid-q1", "0.3",
                    "--grid-q2", "0.3", "--no-timestamp",
                    "--output", str(tmp_path / f"{cases}.jsonl")]
            # same start for both runs, whatever ran before in this process
            compile_expr.cache_clear()
            gc.collect()
            tracemalloc.start()
            try:
                main(argv)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(50), peak_bytes(200)
        # Collecting every report, row and the output text before writing
        # holds about 6 kB per case. Streaming leaves the bounded compile
        # cache and the interpreter's free lists filling up, under 1 kB per
        # case at these sizes and less the longer the campaign.
        per_case = (large - small) / (3 * (200 - 50))
        assert per_case < 2048, (small, large, per_case)


class TestSweep:
    def test_terms_grow_toward_q_one(self, capsys):
        code, out, _ = run(
            ["sweep", "--axis", "q", "--start", "0.1", "--stop", "0.9",
             "--steps", "9", "--eta", "0", "--mu", "0.5", "--beta", "1",
             "--f", "(power 1)"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("q,terms_used")
        rows = [line.split(",") for line in lines[1:]]
        # (power 1) has no knot: the cost is S's two q-products, each
        # log 2/|log q| leading factors plus at most 60 log-series terms,
        # which dips by a series term or two where a factor is added
        terms = [int(row[1]) for row in rows]
        assert terms[-1] > terms[0]
        for row, used in zip(rows, terms):
            leading = math.log(2.0) / -math.log(float(row[0])) + 1.0
            assert used <= 2.0 * (leading + 60.0)

    def test_closed_form_table_stays_bounded(self, capsys):
        # every q step meets two new S records, (power 1) at mu = 0.5
        # reading c = 2 and its anchor c = 1; the table keeps the newest
        steps = _s_record.cache_info().maxsize
        _s_record.cache_clear()
        code, _, _ = run(
            ["sweep", "--axis", "q", "--start", "0.2", "--stop", "0.3",
             "--steps", str(steps), "--mu", "0.5"],
            capsys,
        )
        assert code == 0
        info = _s_record.cache_info()
        assert info.misses == 2 * steps
        assert info.currsize == info.maxsize

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_non_finite_t_exits_two(self, capsys, t):
        code, out, err = run(
            ["sweep", "--axis", "q", "--start", "0.5", "--stop", "0.6",
             "--steps", "2", f"--t={t}"], capsys)
        assert code == 2 and out == ""
        assert "t must be positive and finite" in err

    def test_empty_range_exits_two(self, capsys):
        code, _, _ = run(
            ["sweep", "--axis", "q", "--start", "0.9", "--stop", "0.1",
             "--steps", "5"],
            capsys,
        )
        assert code == 2

    def test_unknown_axis_exits_two(self, capsys):
        code, _, _ = run(
            ["sweep", "--axis", "zeta", "--start", "0.1", "--stop", "0.9",
             "--steps", "3"],
            capsys,
        )
        assert code == 2


class TestReduceCheck:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(["reduce-check"], capsys)
        assert code == 0
        assert "max relative gap" in out

    def test_overtight_tolerance_fails(self, capsys):
        code, _, _ = run(["reduce-check", "--tol", "1e-16"], capsys)
        assert code == 1

    def test_tolerance_is_only_the_pass_threshold(self, capsys):
        _, default_out, _ = run(["reduce-check"], capsys)
        code, loose_out, _ = run(["reduce-check", "--tol", "0.5"], capsys)
        assert code == 0
        assert loose_out == default_out

    @pytest.mark.parametrize("flag", [["--beta", "1"],
                                      ["--max-terms", "100000"]],
                             ids=["beta", "max-terms"])
    def test_beta_flag_rejected(self, flag, capsys):
        # beta = 1 is the only Kober reduction, and truncation uses the
        # default policy: there is no flag to set either
        code, _, err = run(["reduce-check", *flag], capsys)
        assert code == 2
        assert "unrecognized arguments" in err


class TestPinnedOutputs:
    def test_pinned_script_passes(self):
        # the stdlib check CI also runs on interpreters without pytest
        root = Path(__file__).resolve().parent.parent
        script = root / "tools" / "check_pinned.py"
        done = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "11 of 11 pinned outputs match" in done.stdout

    def test_warm_closed_form_table_keeps_the_pin(self):
        # the S records outlive a campaign: run one near q = 1 on another
        # seed first, then the pinned campaign in the same process
        path = Path(__file__).resolve().parent.parent / "tools" / "check_pinned.py"
        spec = importlib.util.spec_from_file_location("check_pinned", path)
        pinned = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pinned)
        pinned.observed(["verify", *_theorem_flags(ALL_THEOREMS), "--cases", "20",
                         "--seed", "5", "--grid-q1", "0.97,0.99",
                         "--grid-q2", "0.97,0.99", "--no-timestamp"])
        assert _s_record.cache_info().currsize > 0
        name, argv, expected = pinned.PINNED[0]
        assert name == "T1-T6 --cases 200 --seed 1"
        assert pinned.observed(argv) == expected


class TestColdStart:
    def test_serial_verify_loads_no_pool_datetime_or_csv(self, tmp_path):
        # a fresh interpreter: this one has loaded them for other tests;
        # the records are namedtuples, so neither dataclasses nor the
        # inspect it imports is loaded either
        script = f"""
import json, sys
def deferred():
    return sorted(m for m in set(sys.modules) - start
                  if m.split(".")[0] in ("multiprocessing", "datetime", "csv",
                                         "dataclasses", "inspect")
                  or m.startswith("concurrent.futures"))
start = set(sys.modules)
import qek.cli
on_import = deferred()
code = qek.cli.main(["verify", "--theorem", "T1", "--theorem", "T5",
                     "--cases", "3", "--seed", "1", "--jobs", "1",
                     "--no-timestamp", "--output", {str(tmp_path / "out.jsonl")!r}])
print(json.dumps([on_import, code, deferred()]))
"""
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        on_import, code, after_run = json.loads(done.stdout)
        assert on_import == [] and after_run == []
        assert code in (0, 1)
        assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 6


class TestReportSerialization:
    def test_jsonl_and_csv_share_field_order(self):
        cfg = CampaignConfig(theorems=("T1",), cases=2, seed=7)
        result = run_campaign(cfg)
        rows = [report_row(i, rep) for i, rep in result.reports]
        jsonl = rows_to_jsonl(rows, timestamp=False)
        csv_text = rows_to_csv(rows, timestamp=False)
        parsed = json.loads(jsonl.strip().split("\n")[0])
        assert tuple(parsed.keys()) == REPORT_COLUMNS
        assert csv_text.split("\n")[0] == ",".join(REPORT_COLUMNS)

    def test_serialization_deterministic(self):
        cfg = CampaignConfig(theorems=("T1",), cases=3, seed=13)
        rows1 = [report_row(i, rep) for i, rep in run_campaign(cfg).reports]
        rows2 = [report_row(i, rep) for i, rep in run_campaign(cfg).reports]
        assert rows_to_jsonl(rows1, timestamp=False) == rows_to_jsonl(
            rows2, timestamp=False)
