"""BENCHMARK.json names what the harness measures, within its limits."""

import re

import run
import spans
from metrics import load_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_shape_and_limits():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["bench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_names_match_the_harness():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    fake = {"latencies_ms": [1.0], "nominal_s": 1.0, "cells": 1, "peak_rss_mb": 1.0}
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end([1.0], fake))
    produced = set(spans.layer_metrics({}, {}, 1, 1, 1.0)) | {"trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == produced
