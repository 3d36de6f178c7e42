"""Smoke: every workload, untraced and traced, in short passes."""

import json
import os
import subprocess
import sys

import host
import run


def test_quick_run_of_all_workloads(tmp_path):
    out = tmp_path / "report.json"
    env = dict(os.environ, REPRO_SIM="stepped", REPRO_WIRE="json")
    completed = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--quick", "--out", str(out)],
        cwd=str(run.ROOT), env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0

    report = json.loads(out.read_text())
    assert set(report["host"]) >= {"nproc", "python", "platform"}
    assert set(report["workloads"]) == set(run.WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["correct"], name
        assert entry["env_repro"] == [] and entry["traced_env_repro"] == []
        assert all(value > 0 for value in entry["metrics"].values()), name
        assert set(entry["raw"]) == {"setup_s", "cells_per_s", "op_p50_ms"}
        assert entry["host"]["samples"] >= 2 * host.SETUP_SAMPLES
        layers = entry["layers"]
        covered = layers["trace.attributed_s"] + layers["trace.unattributed_s"]
        if name in ("fig8-cold", "warm-store"):
            assert abs(covered - layers["trace.wall_s"]) <= 0.05 * layers["trace.wall_s"]
        else:
            assert layers["trace.unattributed_s"] > 0
    assert "model_accuracy" in report["workloads"]["fig8-cold"]
