"""The run-time policies: mRTS and the four baselines, end to end."""

import pytest

from repro.baselines import (
    Morpheus4SPolicy,
    OfflineOptimalPolicy,
    OnlineOptimalPolicy,
    RiscModePolicy,
    RisppLikePolicy,
)
from repro.baselines.rispp import FG_RECONFIG_SLOT_CYCLES, quantized_profit
from repro.core.mrts import MRTS
from repro.core.config import MRTSConfig
from repro.core.profit import profit_value
from repro.core.selector import ISESelector
from repro.fabric.datapath import FabricType
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.simulator import Simulator
from repro.sim.trigger import TriggerInstruction
from repro.workloads.h264 import h264_application, h264_library


@pytest.fixture(scope="module")
def small_app():
    return h264_application(frames=3, seed=5, scale=0.25)


def run(app, cg, prc, policy):
    budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
    library = h264_library(budget)
    return Simulator(app, library, budget, policy).run()


class TestPolicyOrdering:
    """The qualitative ordering of Section 5.2 on a small workload."""

    @pytest.fixture(scope="class")
    def results(self, small_app):
        policies = {
            "risc": RiscModePolicy(),
            "mrts": MRTS(),
            "rispp": RisppLikePolicy(),
            "offline": OfflineOptimalPolicy(),
            "morpheus": Morpheus4SPolicy(),
        }
        return {
            name: run(small_app, cg=2, prc=2, policy=p).total_cycles
            for name, p in policies.items()
        }

    def test_everything_beats_risc(self, results):
        for name in ("mrts", "rispp", "offline", "morpheus"):
            assert results[name] < results["risc"], name

    def test_mrts_at_least_matches_every_baseline(self, results):
        for name in ("rispp", "offline", "morpheus"):
            assert results["mrts"] <= results[name] * 1.02, name

    def test_offline_at_least_matches_morpheus(self, results):
        """Offline-optimal has strictly more freedom (MG ISEs allowed)."""
        assert results["offline"] <= results["morpheus"] * 1.02


class TestRisppLike:
    def test_quantized_selector_rounds_up_to_fg_slots(self, library, controller):
        selector = ISESelector(library, profit=quantized_profit)
        trig = TriggerInstruction("k", 500.0, 100.0, 50.0)
        result = selector.select([trig], controller, now=0)
        assert result.selected["k"] is not None
        # The cost function sees every completion time rounded up to whole
        # FG slots, kept non-decreasing, and no inter-execution gap.
        slot = float(FG_RECONFIG_SLOT_CYCLES)
        latencies = (400, 300, 200, 100)
        schedule = [0.0, slot + 1.0, 5.0]
        assert quantized_profit(
            latencies, schedule, 50.0, 1_000.0, 700.0
        ) == profit_value(latencies, [0.0, 2 * slot, 2 * slot], 50.0, 1_000.0, 0.0)
        # The selector commits the schedule it passed in, so it must stay
        # the real one.  (Committing quantised ready times would not change
        # RISPP's own later scores -- rounding up to slots is monotone and
        # idempotent -- so this is where such a slip shows.)
        assert schedule == [0.0, slot + 1.0, 5.0]

    def test_parity_with_mrts_when_no_cg(self, small_app):
        """Paper: 'RISPP and our approach perform similar when no CG-EDPEs
        are available'."""
        mrts = run(small_app, cg=0, prc=2, policy=MRTS()).total_cycles
        rispp = run(small_app, cg=0, prc=2, policy=RisppLikePolicy()).total_cycles
        assert rispp == pytest.approx(mrts, rel=0.02)

    def test_no_monocg_in_rispp(self, small_app):
        result = run(small_app, cg=2, prc=1, policy=RisppLikePolicy())
        assert result.stats.executions("monocg") == 0

    def test_slot_constant_is_fg_scale(self):
        from repro.util.units import cycles_to_ms

        assert 1.0 < cycles_to_ms(FG_RECONFIG_SLOT_CYCLES) < 1.4


class TestStaticPolicies:
    def test_offline_configures_once(self, small_app):
        result = run(small_app, cg=2, prc=2, policy=OfflineOptimalPolicy())
        # Reconfigurations happen only in the start-up commit.
        requests = result.controller.requests
        assert all(r.owner == "static" for r in requests)

    def test_offline_pays_no_selection_overhead(self, small_app):
        result = run(small_app, cg=2, prc=2, policy=OfflineOptimalPolicy())
        assert result.stats.overhead_cycles_charged == 0

    def test_morpheus_never_uses_multigrained(self, small_app):
        policy = Morpheus4SPolicy()
        run(small_app, cg=2, prc=2, policy=policy)
        for ise in policy._selection.values():
            if ise is not None:
                assert not ise.is_multigrained

    def test_morpheus_never_uses_intermediates(self, small_app):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = h264_library(budget)
        result = Simulator(
            small_app, library, budget, Morpheus4SPolicy(), collect_trace=True
        ).run()
        assert all(
            r.mode.value != "intermediate" for r in result.trace.executions
        )

    def test_offline_may_use_multigrained(self, small_app):
        policy = OfflineOptimalPolicy()
        run(small_app, cg=2, prc=2, policy=policy)
        chosen = [i for i in policy._selection.values() if i is not None]
        assert chosen, "offline-optimal selected something"


class TestOnlineOptimal:
    def test_zero_overhead(self, small_app):
        result = run(small_app, cg=1, prc=1, policy=OnlineOptimalPolicy())
        assert result.stats.overhead_cycles_charged == 0

    def test_close_to_or_better_than_heuristic(self, small_app):
        h = run(small_app, cg=1, prc=2, policy=MRTS()).total_cycles
        o = run(small_app, cg=1, prc=2, policy=OnlineOptimalPolicy()).total_cycles
        # Fig. 9: the heuristic stays within ~11 % of the optimal.
        assert (h - o) / h < 0.15


class TestMRTSInternals:
    def test_selection_count_matches_block_entries(self, small_app):
        policy = MRTS()
        run(small_app, cg=1, prc=1, policy=policy)
        assert policy.selection_count == len(small_app.iterations)

    def test_config_flags_disable_features(self, small_app):
        config = MRTSConfig(enable_monocg=False)
        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=2)
        library = h264_library(budget)
        result = Simulator(
            small_app, library, budget, MRTS(config), collect_trace=True
        ).run()
        assert all(r.mode.value != "monocg" for r in result.trace.executions)

    def test_overhead_hiding_reduces_charged_cycles(self, small_app):
        hidden = MRTS(MRTSConfig(hide_selection_overhead=True))
        exposed = MRTS(MRTSConfig(hide_selection_overhead=False))
        r_hidden = run(small_app, cg=2, prc=2, policy=hidden)
        r_exposed = run(small_app, cg=2, prc=2, policy=exposed)
        assert (
            r_hidden.stats.overhead_cycles_charged
            < r_exposed.stats.overhead_cycles_charged
        )

    def test_policy_unattached_raises(self):
        with pytest.raises(RuntimeError):
            MRTS().on_block_entry("B", [], 0)

    def test_mean_overhead_per_selection(self, small_app):
        policy = MRTS()
        run(small_app, cg=2, prc=2, policy=policy)
        assert policy.mean_overhead_per_selection() > 0
