"""The exact offline DP against its per-candidate reference.

:class:`OptimalSelector` merges each kernel's candidates into one option
per ``(fg, cg)`` footprint and evaluates a candidate with no FG data path
left to load once for every backlog.  Both are exact: the selections (by
object identity), the profits (by ``repr``) and the logical counters must
equal those of the dict DP below, which is the selector as it was before
those changes, copied unchanged apart from reading the selector's
settings from an argument.  Hypothesis drives both over random libraries,
budgets, triggers and warm fabric states, with ``respect_existing`` both
ways, with and without a candidate filter and the greedy plan.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimal import OptimalSelector
from repro.core.packed import pack_library
from repro.core.profit import profit_kernel
from repro.core.selector import ISESelector, SelectionResult, packed_recT
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.ise import ISE
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ReproError, check_non_negative
from tests.test_selector_incremental import (
    _build_library,
    kernel_shapes,
    trigger_params,
)


def reference_select(selector, triggers, controller, now):
    """The per-candidate dict DP: every candidate is its own option and
    every feasible backlog is evaluated."""
    result = SelectionResult(mode="optimal")
    triggers_by_kernel: Dict[str, TriggerInstruction] = {}
    for trig in triggers:
        if trig.kernel in triggers_by_kernel:
            raise ReproError(f"duplicate trigger for kernel {trig.kernel!r}")
        check_non_negative("e", trig.executions)
        check_non_negative("tf", trig.time_to_first)
        check_non_negative("tb", trig.time_between)
        triggers_by_kernel[trig.kernel] = trig

    packed = pack_library(selector.library)
    n_impls = packed.n_impls
    coverage = [0] * n_impls
    ready = [0.0] * n_impls
    exempt = [0] * n_impls
    budget_fg, budget_cg = controller.resources.selection_view(
        now, coverage, ready, exempt
    )
    if not selector.respect_existing:
        coverage = [0] * n_impls
        exempt = [0] * n_impls

    kernels = sorted(triggers_by_kernel)
    options: List[List[Tuple[List[float], int, int, Optional[ISE]]]] = []
    fg_unit_cycles = selector._fg_unit_cycles()
    now_f = float(now)
    for kernel in kernels:
        trig = triggers_by_kernel[kernel]
        kernel_options: List[Tuple[List[float], int, int, Optional[ISE]]] = [
            ([0.0] * (budget_fg + 1), 0, 0, None)
        ]
        for cid in packed.kernel_cids[kernel]:
            ise = packed.cand_ise[cid]
            if selector.candidate_filter is not None and not selector.candidate_filter(ise):
                continue
            rows = packed.cand_rows[cid]
            latencies = packed.cand_latencies[cid]
            fg = cg = 0
            for impl, quantity, is_fg, _, area in rows:
                units = quantity - exempt[impl]
                if units > 0:
                    if is_fg:
                        fg += area * units
                    else:
                        cg += area * units
            profits_by_backlog: List[float] = []
            for backlog in range(budget_fg + 1):
                if backlog + fg > budget_fg:
                    profits_by_backlog.append(float("-inf"))
                    continue
                result.profit_evaluations += 1
                port = now_f + backlog * fg_unit_cycles
                schedule, _ = packed_recT(
                    rows, coverage, ready, now, port if port > now_f else now_f
                )
                profits_by_backlog.append(
                    profit_kernel(
                        latencies,
                        schedule,
                        trig.executions,
                        trig.time_to_first,
                        trig.time_between,
                    )
                )
            kernel_options.append((profits_by_backlog, fg, cg, ise))
        result.candidates_considered += len(kernel_options) - 1
        options.append(kernel_options)

    Key = Tuple[int, int]
    best: Dict[Key, float] = {(0, 0): 0.0}
    trace: Dict[Tuple[int, Key], Tuple[Key, Optional[ISE]]] = {}
    for k, kernel_options in enumerate(options):
        new_best: Dict[Key, float] = {}
        for (fg_used, cg_used), profit_so_far in best.items():
            for profits_by_backlog, fg, cg, ise in kernel_options:
                nfg, ncg = fg_used + fg, cg_used + cg
                if nfg > budget_fg or ncg > budget_cg:
                    continue
                profit = profits_by_backlog[fg_used]
                if profit == float("-inf"):
                    continue
                total = profit_so_far + profit
                key = (nfg, ncg)
                if total > new_best.get(key, float("-inf")):
                    new_best[key] = total
                    trace[(k, key)] = ((fg_used, cg_used), ise)
        best = new_best
        if not best:
            raise ReproError("optimal selection found no feasible state")

    final_key = max(best, key=lambda key: best[key])
    key = final_key
    chosen: Dict[str, Optional[ISE]] = {}
    for k in range(len(kernels) - 1, -1, -1):
        prev_key, ise = trace[(k, key)]
        chosen[kernels[k]] = ise
        key = prev_key

    key = (0, 0)
    for k, kernel in enumerate(kernels):
        ise = chosen[kernel]
        if ise is None:
            result.profits[kernel] = 0.0
        else:
            for profits_by_backlog, fg, cg, option in options[k]:
                if option is ise:
                    result.profits[kernel] = profits_by_backlog[key[0]]
                    key = (key[0] + fg, key[1] + cg)
                    break
        result.selected[kernel] = ise
    result.rounds = 1

    if selector.consider_greedy_plan and selector.candidate_filter is None:
        greedy = ISESelector(selector.library).select(triggers, controller, now)
        result.profit_evaluations += greedy.profit_evaluations
        if greedy.total_profit > result.total_profit:
            greedy.profit_evaluations = result.profit_evaluations
            greedy.candidates_considered = result.candidates_considered
            greedy.mode = result.mode
            return greedy
    return result


def _single_granularity(ise):
    return not ise.is_multigrained


#: Candidate filters: none, Morpheus/4S's, and one that drops candidates
#: by name so footprints lose members unevenly.
FILTERS = {
    "none": None,
    "single-granularity": _single_granularity,
    "drop-odd": lambda ise: len(ise.name) % 2 == 0,
}


def _controller(library, warmup, gap):
    """A controller, warmed (when ``warmup`` is given) by a greedy
    selection committed ``gap`` cycles before the returned time and still
    pinned by its owner."""
    controller = ReconfigurationController(library.budget)
    if not warmup:
        return controller, 0
    warm = ISESelector(library).select(warmup, controller, 0)
    controller.commit_selection(warm.selected, owner="warm", now=0)
    return controller, gap


def _view(result):
    return (
        result.mode,
        result.rounds,
        [(kernel, ise) for kernel, ise in result.selected.items()],
        repr(result.profits),
        result.profit_evaluations,
        result.candidates_considered,
    )


def assert_matches_reference(library, triggers, warmup=None, gap=0):
    """Every selector setting: the new DP equals the reference, with the
    selected ISEs compared by identity."""
    for respect_existing in (True, False):
        for candidate_filter in FILTERS.values():
            for greedy in (True, False):
                views = []
                for select in (OptimalSelector.select, reference_select):
                    selector = OptimalSelector(
                        library,
                        respect_existing=respect_existing,
                        candidate_filter=candidate_filter,
                        consider_greedy_plan=greedy,
                    )
                    controller, now = _controller(library, warmup, gap)
                    views.append(_view(select(selector, triggers, controller, now)))
                new, reference = views
                assert new[:2] == reference[:2]
                assert len(new[2]) == len(reference[2])
                for (kernel, ise), (ref_kernel, ref_ise) in zip(new[2], reference[2]):
                    assert kernel == ref_kernel
                    assert ise is ref_ise, (kernel, ise, ref_ise)
                assert new[3:] == reference[3:]


def _triggers(kernels, params, zero):
    """One trigger per kernel; the kernel at index ``zero`` (if any)
    executes zero times, so every one of its profits ties."""
    triggers = []
    for index, kernel in enumerate(kernels):
        executions, tf, tb = params[index % len(params)]
        if index == zero:
            executions = 0.0
        triggers.append(TriggerInstruction(kernel.name, executions, tf, tb))
    return triggers


class TestMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=4),
        prc=st.integers(min_value=0, max_value=5),
        trigs=st.lists(trigger_params, min_size=1, max_size=3),
        zero=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    )
    def test_cold_selection(self, shapes, cg, prc, trigs, zero):
        library, kernels = _build_library(shapes, cg, prc)
        assert_matches_reference(library, _triggers(kernels, trigs, zero))

    @settings(max_examples=30, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=1, max_value=4),
        prc=st.integers(min_value=1, max_value=5),
        trigs=st.lists(trigger_params, min_size=1, max_size=3),
        zero=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
        gap=st.integers(min_value=0, max_value=200_000),
    )
    def test_warm_selection(self, shapes, cg, prc, trigs, zero, gap):
        """Pinned and loaded data paths from a committed selection make
        footprints shrink (down to the "no ISE" one) and let candidates
        skip the port; ``gap`` ranges from a busy port to an idle one."""
        library, kernels = _build_library(shapes, cg, prc)
        warmup = [
            TriggerInstruction(kernel.name, 3_000.0, 200.0, 50.0)
            for kernel in kernels
        ]
        assert_matches_reference(
            library, _triggers(kernels, trigs, zero), warmup=warmup, gap=gap
        )

    @pytest.mark.parametrize("workload", ["h264", "jpeg", "deblocking"])
    def test_workload_libraries(self, workload):
        """The real libraries at three budgets, each application's
        whole-run triggers, and a warm state from its first block."""
        from repro.baselines.static import StaticSelectionPolicy
        from repro.experiments.engine import WORKLOADS

        family = WORKLOADS[workload]
        application = family.application(7, {"frames": 2})
        triggers = StaticSelectionPolicy._application_triggers(application)
        first_block = application.blocks[0].name
        warmup = list(application.profiled_triggers(first_block))
        for prc, cg in ((2, 1), (4, 2), (6, 3)):
            library = family.library(ResourceBudget(prc, cg), {"frames": 2})
            assert_matches_reference(library, triggers)
            assert_matches_reference(library, triggers, warmup=warmup, gap=5_000)


class TestTieBreaks:
    """Hand-built ties a random library rarely draws."""

    def test_zero_execution_kernel_keeps_first_candidate(self):
        # Every profit of a kernel that never executes is 0.0; a warm,
        # pinned state puts its loaded candidates into the "no ISE"
        # footprint, where the DP keeps the first member: no ISE.
        shapes = [[(8, 4, 8, 4, 300, 4, 2, False), (6, 8, 8, 4, 200, 4, 0, True)]]
        library, kernels = _build_library(shapes, 2, 3)
        warmup = [TriggerInstruction(kernels[0].name, 3_000.0, 200.0, 50.0)]
        zero = [TriggerInstruction(kernels[0].name, 0.0, 100.0, 10.0)]
        controller, now = _controller(library, warmup, 0)
        result = OptimalSelector(library).select(zero, controller, now)
        assert result.selected == {kernels[0].name: None}
        assert repr(result.profits) == repr({kernels[0].name: 0.0})
        assert_matches_reference(library, zero, warmup=warmup)

    def test_equal_totals_across_footprints_keep_first_appearance(self):
        """Two identical kernels on one PRC and one CG fabric (4 CG
        units).  Candidate (1, 1) of the first kernel with (0, 3) of the
        second totals exactly what the crossed pair does: the CG-only
        candidate ignores the port, the other one sees no backlog either
        way, and float addition commutes.  The DP keeps the pair whose
        first footprint appeared first among the first kernel's
        candidates: (1, 1) before (0, 3), which a sorted footprint order
        would reverse."""
        specs = [(24, 0, 16, 8, 400, 8, 4, True), (12, 0, 8, 4, 200, 6, 2, False)]
        library, kernels = _build_library([specs, specs], 1, 1)
        triggers = [
            TriggerInstruction(kernel.name, 2_000.0, 500.0, 20.0)
            for kernel in kernels
        ]
        result = OptimalSelector(library, consider_greedy_plan=False).select(
            triggers, ReconfigurationController(library.budget), 0
        )
        first, second = (result.selected[kernel.name] for kernel in kernels)
        assert (first.fg_area, first.cg_area) == (1, 1)
        assert (second.fg_area, second.cg_area) == (0, 3)
        assert_matches_reference(library, triggers)
