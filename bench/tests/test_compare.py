"""Verdicts of bench/compare.py."""

import compare
from metrics import load_benchmark


def test_regression_beyond_bound():
    assert compare.verdict([100, 101, 99, 100], [120, 121, 119, 120], "lower", 0.1)[0] == "regressed"
    assert compare.verdict([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "higher", 0.1)[0] == "regressed"


def test_small_change_is_unchanged():
    result, change, run_spread = compare.verdict([100, 101, 99, 100], [103, 104, 102, 103], "lower", 0.1)
    assert result == "unchanged"
    assert 0 < change < 0.1 and run_spread < 0.1


def test_wide_spread_is_unresolved_not_unchanged():
    assert compare.verdict([70, 100, 130, 100], [75, 105, 135, 105], "lower", 0.1)[0] == "unresolved"


def test_wide_spread_with_every_run_better_is_improved():
    assert compare.verdict([100, 130, 160, 190], [50, 60, 70, 80], "lower", 0.1)[0] == "improved"


def test_single_runs_have_no_spread():
    result, _, run_spread = compare.verdict([100], [99], "lower", 0.1)
    assert (result, run_spread) == ("unchanged", None)


def test_error_rate_may_not_increase():
    before = [{"attempted": 100, "failed": 0}]
    assert compare.error_verdict(before, [{"attempted": 100, "failed": 1}])[0] == "regressed"
    assert compare.error_verdict(before, [{"attempted": 50, "failed": 0}])[0] == "unchanged"


def test_compare_rows_cover_every_metric_and_error_rate():
    bench = load_benchmark()
    metrics = {m["name"]: 1.0 for m in bench["end_to_end"]}
    report = {"workloads": {"fig8-cold": {"metrics": metrics, "attempted": 5, "failed": 0}}}
    rows = compare.compare([report], [report], bench)
    assert [r["metric"] for r in rows] == list(metrics) + ["error_rate"]
    assert {r["verdict"] for r in rows} == {"unchanged"}
