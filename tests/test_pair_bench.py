"""Tests for the paired-run summary of tools/pair_bench.py, on canned results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pair_bench.py"
_spec = importlib.util.spec_from_file_location("pair_bench", _PATH)
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)

BETTER = {"throughput_ops_per_s": "higher", "latency_p50_ms": "lower"}
BOUNDS = {"throughput_ops_per_s": 0.25, "latency_p50_ms": 0.25}


def _run(ops, p50, correct=True, failed=0, extra=None):
    metrics = {"throughput_ops_per_s": {"value": ops, "unit": "ops/s"},
               "latency_p50_ms": {"value": p50, "unit": "ms"}}
    if extra is not None:
        metrics["trace.overhead_pct"] = {"value": extra, "unit": "%"}
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


def _rows(parent, change, bounds=None):
    return {r["metric"]: r for r in pair_bench.summarise(parent, change, BETTER, bounds)}


def test_quartiles_and_wins_with_ties_for_neither():
    parent = [_run(v, 1.0) for v in (100, 101, 102, 103, 104, 105, 106, 107, 108, 109)]
    # nine wins and one tie on throughput; p50 ties everywhere
    change = [_run(v, 1.0) for v in (120, 121, 122, 123, 124, 125, 126, 127, 128, 109)]
    rows = _rows(parent, change)
    ops = rows["throughput_ops_per_s"]
    assert ops["parent"] == pytest.approx((101.75, 104.5, 107.25))
    assert ops["change"][1] == pytest.approx(123.5)
    assert ops["wins"] == 9 and ops["gain"] is True
    assert ops["ratio"] == pytest.approx(123.5 / 104.5)
    assert rows["latency_p50_ms"]["wins"] == 0
    assert rows["latency_p50_ms"]["gain"] is False


def test_a_lower_metric_wins_when_it_falls():
    parent = [_run(100, v) for v in (2.0, 2.1, 2.2, 2.3)]
    change = [_run(100, v) for v in (1.0, 1.1, 2.5, 1.3)]
    p50 = _rows(parent, change)["latency_p50_ms"]
    assert p50["wins"] == 3
    # three wins of four are below nine tenths
    assert p50["gain"] is False


def test_a_median_within_the_parents_spread_is_no_gain():
    parent = [_run(v, 1.0) for v in (100, 90, 110, 95, 105, 100, 92, 108, 97, 103)]
    change = [_run(v + 2, 1.0) for v in (100, 90, 110, 95, 105, 100, 92, 108, 97, 103)]
    ops = _rows(parent, change)["throughput_ops_per_s"]
    assert ops["wins"] == 10 and ops["gain"] is False


def test_metric_without_a_direction_gets_no_verdict():
    rows = _rows([_run(1, 1, extra=3.0)], [_run(2, 1, extra=1.0)])
    extra = rows["trace.overhead_pct"]
    assert extra["wins"] is None and extra["gain"] is None
    assert extra["parent"] == (3.0, 3.0, 3.0)
    assert "-" in pair_bench.format_rows(list(rows.values()), 1).splitlines()[-1]


def test_wrong_answers_and_failures_are_flagged():
    runs = [_run(1, 1), _run(1, 1, correct=False), _run(1, 1, failed=2)]
    assert pair_bench.flags("change", runs) == [
        "change run 1: correct=False failed=0",
        "change run 2: correct=True failed=2",
    ]


def test_worse_by_more_than_the_bound_reads_yes():
    parent = [_run(100, v) for v in (1.0, 1.01, 1.02, 1.03)]
    # p50 medians 1.015 -> 1.30: 28 % worse against a 25 % bound
    change = [_run(100, v) for v in (1.29, 1.30, 1.30, 1.31)]
    rows = _rows(parent, change, BOUNDS)
    assert rows["latency_p50_ms"]["worse"] == "yes"
    assert rows["throughput_ops_per_s"]["worse"] == "no"
    assert pair_bench.format_rows(list(rows.values()), 4).splitlines()[2].endswith("yes")


def test_worse_within_the_bound_reads_no():
    parent = [_run(100, v) for v in (1.0, 1.01, 1.02, 1.03)]
    # 20 % worse, within the 25 % bound, and the parent's spread is narrow
    change = [_run(100, 1.218) for _ in range(4)]
    assert _rows(parent, change, BOUNDS)["latency_p50_ms"]["worse"] == "no"


def test_a_spread_wider_than_the_bound_reads_unresolved():
    # parent quartiles 80 and 120 around 100: a spread of 40 % of the median
    parent = [_run(v, 1.0) for v in (60, 80, 100, 100, 120, 140)]
    change = [_run(v, 1.0) for v in (95, 95, 95, 95, 95, 95)]
    ops = _rows(parent, change, BOUNDS)["throughput_ops_per_s"]
    assert ops["worse"] == "unresolved"
    assert pair_bench.format_rows([ops], 6).splitlines()[1].endswith("unresolved")
    # unless every change run reads better than every parent run
    change = [_run(150, 1.0) for _ in range(6)]
    assert _rows(parent, change, BOUNDS)["throughput_ops_per_s"]["worse"] == "no"


def test_a_metric_without_a_bound_gets_no_worse_verdict():
    rows = _rows([_run(1, 1)], [_run(2, 1)], {"latency_p50_ms": 0.25})
    assert rows["throughput_ops_per_s"]["worse"] is None
    assert rows["latency_p50_ms"]["worse"] == "no"
