"""Percentile rule, spread and the span self-time arithmetic."""

import json
import time

import pytest

import spans
from metrics import BENCH_DIR, percentile, samples_above, spread, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (400, 95.0),   # p99 leaves 4 above, p95 leaves 20
        (120, 90.0),   # p95 leaves 6, p90 leaves 12
        (100, 90.0),   # exactly 10 above p90
        (99, 75.0),    # p90 leaves 9
        (20, 50.0),
        (19, None),    # not even the median has 10 above it
        (10000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_above(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_above(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 90) == 5
    assert percentile(values, 0) == 1
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([1.0]) == 0.0
    assert spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


def _fixture():
    with open(BENCH_DIR / "fixtures" / "spans.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_fold_matches_committed_span_fixture():
    fixture = _fixture()
    table = spans.fold_events(fixture["events"])
    got = {
        name: {k: entry[k] for k in ("self_ns", "incl_ns", "calls")}
        for name, entry in table.items()
    }
    assert got == fixture["expected"]
    for name, durations in fixture["durations_ns"].items():
        assert table[name]["durations_ns"] == durations


def test_self_times_sum_to_thread_wall_time():
    fixture = _fixture()
    main = [e for e in fixture["events"] if e["thread"] == "main"]
    table = spans.fold_events(main)
    assert sum(e["self_ns"] for e in table.values()) == fixture["wall_ns"]["main"]


def test_live_wrappers_nest_and_count_double_wrapping_once():
    recorder = spans.SpanRecorder()

    class Base:
        def attach(self):
            time.sleep(0.01)

    class Child(Base):
        def attach(self):
            super().attach()
            time.sleep(0.01)

    for cls in (Base, Child):
        cls.attach = spans.wrap(recorder, cls.attach, "selection.prepare")

    def leaf():
        time.sleep(0.01)

    leaf_span = spans.wrap(recorder, leaf, "ecu.execute")

    def outer():
        Child().attach()
        leaf_span()
        leaf_span()

    outer_span = spans.wrap(recorder, outer, "sim.run")
    assert spans.wrap(recorder, outer_span, "other") is outer_span

    start = time.perf_counter_ns()
    outer_span()
    wall = time.perf_counter_ns() - start
    table = recorder.table()

    assert table["selection.prepare"]["calls"] == 1
    assert table["ecu.execute"]["calls"] == 2
    assert table["sim.run"]["calls"] == 1
    attributed = sum(entry["self_ns"] for entry in table.values())
    assert attributed <= wall
    assert attributed >= 0.95 * wall
    assert table["sim.run"]["incl_ns"] == pytest.approx(attributed, rel=1e-9)


def test_disabled_recorder_records_nothing():
    recorder = spans.SpanRecorder()
    recorder.enabled = False
    assert spans.wrap(recorder, lambda x: x + 1, "engine.run")(1) == 2
    assert recorder.table() == {}
