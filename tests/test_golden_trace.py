"""Golden-trace regression lock.

``tests/golden/`` holds the committed cycle-exact records of mRTS on the
reference scenarios (H.264 deblocking, the JPEG encoder and one frame of
the whole H.264 encoder): every
execution (time, mode, level, ISE) plus all aggregate statistics.  A
selector, ECU, MPU or simulator refactor that shifts any of it -- even one
cycle -- fails here instead of silently moving the paper figures.

Every scenario is replayed under **both** simulator engines (the stepped
oracle and the packed engine), each with **both** ISE selectors (the
packed one and the naive Fig. 6 rescan), against the same snapshot, so
the lock simultaneously pins behaviour over time and the engines' and
selectors' byte-identity contract.  Engine and selector are explicit
arguments of every replay, never read from ``REPRO_SIM`` or
``REPRO_SELECTOR``.  An untraced replay of every engine and selector
checks the stats alone, on the packed engine's folding path.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python -m repro.verification.golden
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.selector import SELECTOR_MODES
from repro.sim.simulator import ENGINE_MODES
from repro.verification.golden import (
    FIG8_RECORDS_PATH,
    GOLDEN_SCENARIOS,
    REQUIRED_MODES,
    diff_golden,
    golden_path,
    golden_payload,
)

SCENARIOS = sorted(GOLDEN_SCENARIOS)


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request):
    return request.param


@pytest.fixture(scope="module")
def committed(scenario):
    with open(golden_path(scenario), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fresh(scenario):
    """``fresh(engine, selector, collect_trace)``: the payload of the
    current scenario, each combination computed once per module."""
    payloads = {}

    def payload(engine, selector="packed", collect_trace=True):
        key = (engine, selector, collect_trace)
        if key not in payloads:
            payloads[key] = golden_payload(
                scenario, engine=engine, selector=selector,
                collect_trace=collect_trace,
            )
        return payloads[key]

    return payload


def test_snapshot_spec_is_current(scenario, committed):
    """The snapshot was generated from the scenario this code defines."""
    assert committed["spec"] == GOLDEN_SCENARIOS[scenario]


@pytest.mark.parametrize("engine", ENGINE_MODES)
def test_stats_match_exactly(committed, fresh, engine):
    assert fresh(engine)["stats"] == committed["stats"]


def _assert_matches(scenario, expected, actual, engine, selector):
    problems = diff_golden(expected, actual)
    assert not problems, (
        f"golden trace {scenario!r} diverged under engine={engine}, "
        f"selector={selector}:\n" + "\n".join(problems)
    )
    assert actual == expected


@pytest.mark.parametrize("engine", ENGINE_MODES)
def test_trace_matches_exactly(scenario, committed, fresh, engine):
    _assert_matches(scenario, committed, fresh(engine), engine, "packed")


@pytest.mark.parametrize("engine", ENGINE_MODES)
def test_naive_selector_trace_matches_exactly(
    scenario, committed, fresh, engine
):
    """The Fig. 6 rescan selector reads the same fabric state as the
    packed one, so the whole trace must not depend on which decided."""
    _assert_matches(
        scenario, committed, fresh(engine, "naive"), engine, "naive"
    )


@pytest.mark.parametrize("selector", SELECTOR_MODES)
@pytest.mark.parametrize("engine", ENGINE_MODES)
def test_untraced_stats_match_exactly(
    scenario, committed, fresh, engine, selector
):
    """Untraced, the packed engine folds stretches of regime hits and
    whole RISC iterations: a different code path that must land on the
    committed stats."""
    untraced = {key: committed[key] for key in ("spec", "stats")}
    _assert_matches(
        scenario, untraced, fresh(engine, selector, collect_trace=False),
        engine, selector,
    )


def test_scenario_exercises_the_ecu_cascade(scenario, committed):
    """Keep the reference scenarios meaningful: a run that only ever
    executes in one mode would let whole ECU branches drift unpinned.
    Between them the scenarios cover every cascade outcome (deblocking:
    intermediate; jpeg and h264: monocg)."""
    modes = committed["stats"]["executions_by_mode"]
    assert set(modes) >= REQUIRED_MODES[scenario]
    assert all(count > 0 for count in modes.values())


def test_trace_is_internally_consistent(committed):
    """The snapshots themselves obey the simulator's accounting identities."""
    stats = committed["stats"]
    executions = committed["trace"]["executions"]
    assert len(executions) == sum(stats["executions_by_mode"].values())
    assert sum(r["latency"] for r in executions) == stats["kernel_cycles"]
    assert all(
        a["time"] <= b["time"] for a, b in zip(executions, executions[1:])
    )


def test_regenerating_into_a_directory_is_byte_equal(tmp_path):
    """``python -m repro.verification.golden --out DIR`` rewrites every
    committed snapshot byte for byte (into ``DIR``, never into
    ``tests/golden/``)."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.verification.golden",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert completed.returncode == 0, completed.stderr
    assert "RuntimeWarning" not in completed.stderr
    committed = [golden_path(name) for name in SCENARIOS] + [FIG8_RECORDS_PATH]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in committed
    )
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_package_import_leaves_golden_unloaded():
    """``repro.verification`` re-exports the golden names on first use, so
    ``python -m repro.verification.golden`` runs its module once."""
    probe = (
        "import sys, repro.verification\n"
        "assert 'repro.verification.golden' not in sys.modules\n"
        "from repro.verification import golden_payload\n"
        "assert golden_payload.__module__ == 'repro.verification.golden'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert completed.returncode == 0, completed.stderr
