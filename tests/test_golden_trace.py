"""Golden-trace regression lock.

``tests/golden/`` holds the committed cycle-exact records of mRTS on the
reference scenarios (H.264 deblocking and the JPEG encoder): every
execution (time, mode, level, ISE) plus all aggregate statistics.  A
selector, ECU, MPU or simulator refactor that shifts any of it -- even one
cycle -- fails here instead of silently moving the paper figures.

Every scenario is replayed under **both** ``REPRO_SIM`` engines (the
stepped oracle and the packed engine) against the same snapshot, so the
lock simultaneously pins behaviour over time and the engines'
byte-identity contract.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python scripts/check_determinism.py --update-golden
"""

import json

import pytest

from repro.sim.simulator import ENGINE_MODES
from repro.verification.golden import (
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
    """One payload per (scenario, engine), computed once per module."""
    return {
        engine: golden_payload(scenario, engine=engine)
        for engine in ENGINE_MODES
    }


def test_snapshot_spec_is_current(scenario, committed):
    """The snapshot was generated from the scenario this code defines."""
    assert committed["spec"] == GOLDEN_SCENARIOS[scenario]


@pytest.mark.parametrize("engine", ENGINE_MODES)
def test_stats_match_exactly(committed, fresh, engine):
    assert fresh[engine]["stats"] == committed["stats"]


@pytest.mark.parametrize("engine", ENGINE_MODES)
def test_trace_matches_exactly(scenario, committed, fresh, engine):
    problems = diff_golden(committed, fresh[engine])
    assert not problems, (
        f"golden trace {scenario!r} diverged under engine={engine}:\n"
        + "\n".join(problems)
    )
    assert fresh[engine] == committed


def test_scenario_exercises_the_ecu_cascade(scenario, committed):
    """Keep the reference scenarios meaningful: a run that only ever
    executes in one mode would let whole ECU branches drift unpinned.
    Between them the two scenarios cover every cascade outcome
    (deblocking: intermediate; jpeg: monocg)."""
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
