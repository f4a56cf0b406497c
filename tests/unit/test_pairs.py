"""The verdicts ``tools/pairs.py`` prints for paired ledger runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_tool()

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def test_claim_holds_on_nine_wins_and_a_gap_past_the_quartiles():
    change = [110.0] * 9 + [98.0]
    assert pairs.verdict(BASE, change, "higher", 0.25, claimed=True) \
        == "claim holds"


def test_claim_not_met_on_eight_wins():
    change = [110.0] * 8 + [98.0, 98.0]
    assert pairs.verdict(BASE, change, "higher", 0.25, claimed=True) \
        == "claim not met"


def test_claim_not_met_when_the_gap_is_inside_the_base_quartiles():
    # Every pair won, by less than the base's own quartile distance.
    change = [b + 0.1 for b in BASE]
    assert pairs.count_wins(BASE, change, lower=False) == 10
    assert pairs.verdict(BASE, change, "higher", 0.25, claimed=True) \
        == "claim not met"


def test_ties_count_for_neither_side():
    assert pairs.count_wins(BASE, list(BASE), lower=True) == 0
    assert pairs.verdict(BASE, list(BASE), "lower", 0.25, claimed=True) \
        == "claim not met"


def test_lower_is_better_claim():
    change = [b * 0.8 for b in BASE]
    assert pairs.verdict(BASE, change, "lower", 0.25, claimed=True) \
        == "claim holds"


def test_bound_verdicts():
    assert pairs.verdict(BASE, list(BASE), "lower", 0.25) == "ok"
    # 10 % worse: inside a 25 % bound, outside a 5 % one.
    slower = [b * 1.1 for b in BASE]
    assert pairs.verdict(BASE, slower, "lower", 0.25) == "ok"
    assert pairs.verdict(BASE, slower, "lower", 0.05) == "worse"
    assert pairs.verdict(BASE, slower, "higher", 0.05) == "ok"


def test_wide_spread_is_unresolved_unless_the_runs_separate():
    wide = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 55.0, 145.0, 90.0, 110.0]
    assert pairs.verdict(BASE, wide, "lower", 0.25) == "unresolved"
    # Every change run better than every base run: ok despite the spread.
    better = [40.0, 90.0, 50.0, 95.0, 60.0, 70.0, 45.0, 85.0, 80.0, 75.0]
    assert pairs.verdict(BASE, better, "lower", 0.25) == "ok"


def test_zero_base_median():
    zeros = [0.0] * 4
    assert pairs.verdict(zeros, zeros, "lower", 0.25) == "ok"
    assert pairs.verdict(zeros, [0.0, 0.0, 1.0, 1.0], "lower", 0.25) \
        == "worse"


def test_extremes_line():
    change = [110.0] * 10
    assert pairs.extremes_line("host_ops_per_s", BASE, change, "higher") == (
        "host_ops_per_s: worst change run 110, best base run 101: "
        "every change run beats every base run")
    line = pairs.extremes_line("op_p50_ms", BASE, [100.0] * 10, "lower")
    assert line.endswith("worst change run 100, best base run 99: "
                         "the two sides' runs overlap")


def test_markdown_row():
    change = [110.0] * 9 + [98.0]
    said = pairs.verdict(BASE, change, "higher", 0.25, claimed=True)
    assert pairs.markdown_row("host_ops_per_s", "ledger-0", BASE, change,
                              "higher", said) == (
        "| `host_ops_per_s` | `ledger-0` | 10 | 100 [99.38, 100.6] | "
        "110 [110, 110] | 1.10× | 9/10 | claim holds |")
    # Thousands grouped, below that four significant digits.
    row = pairs.markdown_row("op_p50_ms", "ledger-1",
                             [1200.0, 1250.0, 1300.0, 1350.0],
                             [0.08, 0.09, 0.1, 0.11], "lower", "ok")
    assert row == ("| `op_p50_ms` | `ledger-1` | 4 | 1,275 [1,212, 1,338] | "
                   "0.095 [0.0825, 0.1075] | 0.00× | 4/4 | ok |")
    assert pairs.MARKDOWN_HEADER.splitlines()[0].count("|") \
        == row.count("|")


def test_markdown_table_has_a_row_for_every_metric_claim_first():
    metrics = {"setup_s": {"better": "lower"},
               "host_ops_per_s": {"better": "higher"},
               "op_p99_ms": {"better": "lower"}}
    values_of = {
        "setup_s": {"base": BASE, "change": list(BASE)},
        "host_ops_per_s": {"base": BASE, "change": [b * 1.5 for b in BASE]},
        "op_p99_ms": {"base": BASE, "change": [b * 0.5 for b in BASE]},
    }
    said_of = {"setup_s": "ok", "host_ops_per_s": "claim holds",
               "op_p99_ms": "ok"}
    table = pairs.markdown_table("ledger-0", values_of, metrics, said_of,
                                 claim="host_ops_per_s")
    lines = table.splitlines()
    assert lines[:2] == pairs.MARKDOWN_HEADER.splitlines()
    assert [line.split(" | ")[0] for line in lines[2:]] == [
        "| `host_ops_per_s`", "| `setup_s`", "| `op_p99_ms`"]
    assert lines[2] == pairs.markdown_row(
        "host_ops_per_s", "ledger-0", BASE, values_of["host_ops_per_s"]
        ["change"], "higher", "claim holds")
    assert lines[2].endswith("| 1.50× | 10/10 | claim holds |")
    assert lines[3].endswith("| 1.00× | 0/10 | ok |")
    assert lines[4].endswith("| 0.50× | 10/10 | ok |")
