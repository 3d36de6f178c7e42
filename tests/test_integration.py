"""Cross-module integration: the paper's qualitative results in miniature."""

import pytest

from repro.baselines import RiscModePolicy
from repro.core.mrts import MRTS
from repro.fabric.resources import ResourceBudget
from repro.sim.simulator import Simulator
from repro.workloads.h264 import h264_application, h264_library


@pytest.fixture(scope="module")
def app():
    # 8 frames: long enough for FG reconfigurations to amortise (the Fig. 10
    # orderings are steady-state properties), short enough for a unit test.
    return h264_application(frames=8, seed=7)


_SPEEDUP_CACHE = {}


def speedup(app, cg, prc):
    key = (id(app), cg, prc)
    if key not in _SPEEDUP_CACHE:
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        library = h264_library(budget)
        mrts = Simulator(app, library, budget, MRTS()).run().total_cycles
        risc = Simulator(app, library, budget, RiscModePolicy()).run().total_cycles
        _SPEEDUP_CACHE[key] = risc / mrts
    return _SPEEDUP_CACHE[key]


class TestSpeedupShape:
    def test_no_fabric_no_speedup(self, app):
        # the run-time system's (unhidden first) selection overhead is
        # charged even when nothing can be accelerated
        assert speedup(app, 0, 0) == pytest.approx(1.0, rel=0.005)

    def test_fabric_always_helps(self, app):
        assert speedup(app, 0, 2) > 1.3
        assert speedup(app, 2, 0) > 1.3

    def test_more_fabric_never_hurts_much(self, app):
        """Monotonicity along both axes (small tolerance: the greedy
        selector is not strictly monotone)."""
        small = speedup(app, 1, 1)
        big = speedup(app, 3, 3)
        assert big >= small * 0.98

    def test_multigrained_beats_single_granularity(self, app):
        """Fig. 10's headline: 1 PRC + 1 CG fabric outperforms 3 PRCs or
        3 CG fabrics alone."""
        mixed = speedup(app, 1, 1)
        assert mixed > speedup(app, 0, 3)
        assert mixed > speedup(app, 3, 0)


class TestOverheadShape:
    def test_overhead_small_fraction_of_runtime(self, app):
        """Section 5.4: ~1.9 % of a functional block's execution time."""
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = h264_library(budget)
        result = Simulator(app, library, budget, MRTS()).run()
        assert result.stats.overhead_fraction() < 0.05

    def test_selection_cost_hidden_after_first(self, app):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = h264_library(budget)
        stats = Simulator(app, library, budget, MRTS()).run().stats
        assert stats.overhead_cycles_charged < stats.overhead_cycles_full


class TestExecutionModes:
    def test_all_cascade_modes_appear(self, app):
        """On a mixed budget the trace exercises the full Fig. 7 cascade."""
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = h264_library(budget)
        result = Simulator(app, library, budget, MRTS(), collect_trace=True).run()
        modes = {r.mode.value for r in result.trace.executions}
        assert {"risc", "selected"} <= modes
        assert "intermediate" in modes or "monocg" in modes

    def test_cg_only_budget_never_uses_fg(self, app):
        budget = ResourceBudget(n_prcs=0, n_cg_fabrics=2)
        library = h264_library(budget)
        result = Simulator(app, library, budget, MRTS(), collect_trace=True).run()
        from repro.fabric.datapath import FabricType

        assert all(
            r.fabric is not FabricType.FG for r in result.controller.requests
        )

    def test_determinism_across_runs(self, app):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
        library = h264_library(budget)
        a = Simulator(app, library, budget, MRTS()).run().total_cycles
        b = Simulator(app, library, budget, MRTS()).run().total_cycles
        assert a == b


class TestEncodingEngineBlock:
    """The selection and ECU steps on the H.264 Encoding Engine block at
    (3 CG, 3 PRC), 2 frames: every profiled kernel gets a decision."""

    @pytest.fixture(scope="class")
    def ee(self):
        budget = ResourceBudget(n_prcs=3, n_cg_fabrics=3)
        library = h264_library(budget)
        triggers = h264_application(frames=2, seed=7).profiled_triggers("EE")
        return budget, library, triggers

    def test_seven_profiled_triggers(self, ee):
        _, _, triggers = ee
        assert len(triggers) == 7

    @pytest.mark.parametrize("selector", ["greedy", "optimal"])
    def test_selection_decides_every_trigger(self, ee, selector):
        from repro.core.optimal import OptimalSelector
        from repro.core.selector import ISESelector
        from repro.fabric.reconfig import ReconfigurationController

        budget, library, triggers = ee
        cls = ISESelector if selector == "greedy" else OptimalSelector
        result = cls(library).select(
            triggers, ReconfigurationController(budget), now=0
        )
        assert set(result.selected) == {t.kernel for t in triggers}

    def test_ecu_decision_has_latency(self, ee):
        from repro.core.ecu import ExecutionControlUnit
        from repro.core.selector import ISESelector
        from repro.fabric.reconfig import ReconfigurationController

        budget, library, triggers = ee
        controller = ReconfigurationController(budget)
        selection = ISESelector(library).select(triggers, controller, now=0)
        controller.commit_selection(selection.selected, "ee", now=0)
        ecu = ExecutionControlUnit(controller, library)
        ecu.set_selection(selection.selected)
        assert ecu.execute("ee.mc_hz", now=10**6).latency > 0
