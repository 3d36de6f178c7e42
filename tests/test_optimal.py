"""The optimal (DP / exhaustive-equivalent) selector."""

import itertools

import pytest

from repro.core.optimal import OptimalSelector
from repro.core.profit import ise_profit
from repro.core.selector import ISESelector
from repro.fabric.datapath import DataPathSpec, FabricType
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.trigger import TriggerInstruction


def trig(kernel, e=2000.0, tf=500.0, tb=300.0):
    return TriggerInstruction(kernel, e, tf, tb)


@pytest.fixture
def two_kernels(cond_spec, filt_spec):
    k1 = Kernel("k1", 120, [cond_spec, filt_spec])
    k2 = Kernel(
        "k2",
        100,
        [
            DataPathSpec(
                name="k2.a", word_ops=24, bit_ops=16, mem_bytes=16,
                fg_depth=8, sw_cycles=180, invocations=6,
            ),
            DataPathSpec(
                name="k2.b", word_ops=16, mul_ops=4, mem_bytes=24,
                fg_depth=8, sw_cycles=150, invocations=6,
            ),
        ],
    )
    return [k1, k2]


def backlog_aware_profit(ise, t, backlog_units):
    """The optimal selector's objective: contention-aware recT where
    ``backlog_units`` FG data-path units queue before this ISE."""
    from repro.core.selector import predict_recT

    if ise is None:
        return 0.0, 0
    offset = backlog_units * OptimalSelector._fg_unit_cycles()
    schedule, _ = predict_recT(ise, {}, {}, now=0, fg_port_free_at=float(offset))
    profit = ise_profit(
        ise, e=t.executions, tf=t.time_to_first, tb=t.time_between,
        rec_schedule=schedule,
    ).profit
    return profit, ise.fg_area


class TestOptimality:
    def test_matches_brute_force(self, two_kernels):
        """The DP must equal explicit enumeration of all combinations under
        the same backlog-aware objective (kernels commit in sorted order)."""
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
        library = ISELibrary(two_kernels, budget)
        controller = ReconfigurationController(budget)
        triggers = [trig("k1", e=800), trig("k2", e=1200)]
        result = OptimalSelector(library).select(triggers, controller, now=0)

        best = -1.0
        options1 = [None] + library.candidates("k1")
        options2 = [None] + library.candidates("k2")
        for a, b in itertools.product(options1, options2):
            fg = (a.fg_area if a else 0) + (b.fg_area if b else 0)
            cg = (a.cg_area if a else 0) + (b.cg_area if b else 0)
            if fg > 2 or cg > 4:
                continue
            p1, fg_a = backlog_aware_profit(a, triggers[0], 0)
            p2, _ = backlog_aware_profit(b, triggers[1], fg_a)
            best = max(best, p1 + p2)
        assert result.total_profit == pytest.approx(best)

    def test_at_least_as_good_as_heuristic(self, two_kernels):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
        library = ISELibrary(two_kernels, budget)
        triggers = [trig("k1", e=900), trig("k2", e=900)]
        heuristic = ISESelector(library).select(
            triggers, ReconfigurationController(budget), now=0
        )
        optimal = OptimalSelector(library).select(
            triggers, ReconfigurationController(budget), now=0
        )
        # Compare both on the optimal's own (backlog-aware) objective, with
        # the heuristic's picks committed in the same sorted-kernel order.
        heuristic_value = 0.0
        backlog = 0
        for t in triggers:
            profit, fg = backlog_aware_profit(
                heuristic.selected[t.kernel], t, backlog
            )
            heuristic_value += profit
            backlog += fg
        assert optimal.total_profit >= heuristic_value - 1e-6

    def test_respects_budget(self, two_kernels):
        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=1)
        library = ISELibrary(two_kernels, budget)
        result = OptimalSelector(library).select(
            [trig("k1"), trig("k2")], ReconfigurationController(budget), now=0
        )
        fg = sum(i.fg_area for i in result.selected.values() if i)
        cg = sum(i.cg_area for i in result.selected.values() if i)
        assert fg <= 1 and cg <= 4

    def test_zero_budget_all_risc(self, two_kernels):
        budget = ResourceBudget(0, 0)
        library = ISELibrary(two_kernels, budget)
        result = OptimalSelector(library).select(
            [trig("k1"), trig("k2")], ReconfigurationController(budget), now=0
        )
        assert all(ise is None for ise in result.selected.values())


class TestCandidateFilter:
    def test_filter_restricts_selection(self, two_kernels):
        budget = ResourceBudget(n_prcs=3, n_cg_fabrics=2)
        library = ISELibrary(two_kernels, budget)
        selector = OptimalSelector(
            library, candidate_filter=lambda ise: not ise.is_multigrained
        )
        result = selector.select(
            [trig("k1"), trig("k2")], ReconfigurationController(budget), now=0
        )
        for ise in result.selected.values():
            if ise is not None:
                assert not ise.is_multigrained


class TestRespectExisting:
    def test_existing_configuration_tilts_choice(self, two_kernels):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = ISELibrary(two_kernels, budget)
        controller = ReconfigurationController(budget)
        cold = OptimalSelector(library, respect_existing=True).select(
            [trig("k1", e=600, tb=50)], controller, now=0
        )
        controller.commit_selection(cold.selected, "a", now=0)
        controller.release_owner("a")
        warm = OptimalSelector(library, respect_existing=True).select(
            [trig("k1", e=600, tb=50)], controller, now=10**8
        )
        assert warm.total_profit >= cold.total_profit

    def test_search_space_size(self, two_kernels):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
        library = ISELibrary(two_kernels, budget)
        selector = OptimalSelector(library)
        triggers = [trig("k1"), trig("k2")]
        expected = (len(library.candidates("k1")) + 1) * (
            len(library.candidates("k2")) + 1
        )
        assert selector.search_space_size(triggers) == expected


class TestSelectionLabel:
    """The optimal selector labels its results ``"optimal"``, whichever plan
    won, so traces do not report a DP selection as the greedy selector's."""

    def test_dp_result_is_labelled_optimal(self, two_kernels):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
        library = ISELibrary(two_kernels, budget)
        result = OptimalSelector(library).select(
            [trig("k1", e=800), trig("k2", e=1200)],
            ReconfigurationController(budget),
            now=0,
        )
        assert result.mode == "optimal"
        assert result.rounds == 1

    def test_online_optimal_selection_records(self):
        """At this budget the greedy plan wins some block entries (its
        ``rounds`` exceed the DP's single round); every record still says
        ``optimal``."""
        from repro.baselines.online_optimal import OnlineOptimalPolicy
        from repro.experiments.engine import WORKLOADS
        from repro.sim.simulator import Simulator

        family = WORKLOADS["h264"]
        budget = ResourceBudget(n_prcs=3, n_cg_fabrics=0)
        result = Simulator(
            family.application(7, {"frames": 2}),
            family.library(budget, {"frames": 2}),
            budget,
            OnlineOptimalPolicy(),
            collect_trace=True,
        ).run()
        selections = result.trace.selections
        assert {record.mode for record in selections} == {"optimal"}
        assert {record.rounds for record in selections} - {1}, "greedy plan never won"
