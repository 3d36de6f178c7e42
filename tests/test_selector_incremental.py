"""The cached (packed) selector core: A/B equivalence with the naive
Fig. 6 oracle, inverted footprint index, pinned cache counters, profit
bound, tie-break and mode selection.

The packed implementation must be *byte-identical* to the naive Fig. 6
rescan -- same selections, same profits, same logical counters -- while
recomputing fewer profits, under every profit function the run-time
systems use (mRTS's Eqs. 2-4 and RISPP's FG-quantised variant).  The
property tests drive both over randomized libraries, triggers and warm
fabric states.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.rispp import FG_RECONFIG_SLOT_CYCLES, quantized_profit
from repro.core.packed import pack_library
from repro.core.profit import profit_value
from repro.core.selector import (
    ISESelector,
    SELECTOR_MODE_ENV,
    SELECTOR_MODES,
    SelectionResult,
    resolve_selector_mode,
)
from repro.core.selector import _beats
from repro.fabric.datapath import DataPathSpec
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ReproError
from tests.fig8_grid import FIG8_BUDGETS, QUICK_BUDGETS, SEED


# --------------------------------------------------------------- helpers


def _spec(kernel_name, index, word_ops, bit_ops, mem_bytes, fg_depth,
          sw_cycles, invocations, mul_ops=0, parallelizable=False):
    return DataPathSpec(
        name=f"{kernel_name}.dp{index}",
        word_ops=word_ops,
        bit_ops=bit_ops,
        mem_bytes=mem_bytes,
        fg_depth=fg_depth,
        sw_cycles=sw_cycles,
        invocations=invocations,
        mul_ops=mul_ops,
        parallelizable=parallelizable,
    )


def _result_view(result: SelectionResult):
    """Everything that must match between the two implementations."""
    return {
        "selected": {
            kernel: None if ise is None else ise.name
            for kernel, ise in result.selected.items()
        },
        "order": result.selection_order(),
        "profits": result.profits,
        "covered_free": result.covered_free,
        "profit_evaluations": result.profit_evaluations,
        "candidates_considered": result.candidates_considered,
        "rounds": result.rounds,
    }


#: The profit functions of the run-time systems sharing the greedy loop.
PROFITS = (profit_value, quantized_profit)


def _select_both(library, triggers, warmup_triggers=None, now=0,
                 profit=profit_value, gap=2_000):
    """Run both selector implementations with ``profit`` on identical
    controller states (optionally warmed by a committed selection ``gap``
    cycles earlier) and assert their result views match (naive = packed)
    and the packed counter split adds up."""
    results = []
    for mode in SELECTOR_MODES:
        controller = ReconfigurationController(library.budget)
        selector = ISESelector(library, mode=mode, profit=profit)
        t = now
        if warmup_triggers:
            warm = selector.select(warmup_triggers, controller, t)
            controller.commit_selection(warm.selected, owner="warm", now=t)
            t += gap
        result = selector.select(triggers, controller, t)
        assert result.mode == mode
        assert (
            result.evaluations_recomputed
            + result.evaluations_skipped
            + result.evaluations_pruned
            == result.profit_evaluations
        )
        results.append(result)
    naive, packed = results
    assert _result_view(packed) == _result_view(naive), (
        f"packed diverged from naive under {profit.__name__}"
    )
    return naive, packed


datapath_params = st.tuples(
    st.integers(min_value=1, max_value=48),    # word_ops
    st.integers(min_value=0, max_value=64),    # bit_ops
    st.integers(min_value=4, max_value=64),    # mem_bytes
    st.integers(min_value=2, max_value=16),    # fg_depth
    st.integers(min_value=60, max_value=600),  # sw_cycles
    st.integers(min_value=1, max_value=12),    # invocations
    st.integers(min_value=0, max_value=6),     # mul_ops
    st.booleans(),                             # parallelizable
)

kernel_shapes = st.lists(
    st.lists(datapath_params, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)

trigger_params = st.tuples(
    st.floats(min_value=0.0, max_value=5_000.0),
    st.floats(min_value=0.0, max_value=2_000.0),
    st.floats(min_value=0.0, max_value=1_000.0),
)


def _build_library(shapes, cg, prc):
    kernels = []
    for k_index, datapaths in enumerate(shapes):
        name = f"k{k_index}"
        specs = [
            _spec(name, d_index, *params)
            for d_index, params in enumerate(datapaths)
        ]
        kernels.append(Kernel(name, base_cycles=100, datapaths=specs))
    budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
    return ISELibrary(kernels, budget), kernels


# ------------------------------------------------- A/B equivalence (d)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
        trigs=st.lists(trigger_params, min_size=1, max_size=3),
    )
    def test_cold_selection_identical(self, shapes, cg, prc, trigs):
        library, kernels = _build_library(shapes, cg, prc)
        triggers = [
            TriggerInstruction(kernel.name, *params)
            for kernel, params in zip(kernels, trigs)
        ]
        for profit in PROFITS:
            naive, packed = _select_both(library, triggers, profit=profit)
            assert naive.evaluations_recomputed == naive.profit_evaluations
            assert naive.evaluations_skipped == naive.evaluations_pruned == 0
            assert naive.invalidations == 0
            assert packed.evaluations_recomputed <= naive.evaluations_recomputed

    @settings(max_examples=30, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=1, max_value=3),
        prc=st.integers(min_value=1, max_value=3),
        trigs=st.lists(trigger_params, min_size=1, max_size=3),
        gap=st.integers(min_value=0, max_value=2 * FG_RECONFIG_SLOT_CYCLES),
    )
    def test_warm_selection_identical(self, shapes, cg, prc, trigs, gap):
        """Coverage, ready times and port backlog from a committed earlier
        selection feed both implementations identically; ``gap`` ranges
        from a still-busy FG port (non-zero backlog) to an idle one."""
        library, kernels = _build_library(shapes, cg, prc)
        triggers = [
            TriggerInstruction(kernel.name, *params)
            for kernel, params in zip(kernels, trigs)
        ]
        warmup = [
            TriggerInstruction(kernel.name, 3_000.0, 200.0, 50.0)
            for kernel in kernels
        ]
        for profit in PROFITS:
            _select_both(
                library, triggers, warmup_triggers=warmup, profit=profit,
                gap=gap,
            )

    def test_ulp_over_bound_profit_is_not_pruned(self):
        """Regression (found by hypothesis): the float-summed profit of a
        candidate can exceed ``e * profit_bound_per_execution`` by an ulp
        (109.00000000000001 vs a bound of exactly 109.0).  The old prune
        dropped such a candidate whenever its bound merely *tied* the
        running argmax, so naive selected it and the cached selector did
        not -- the pruning must keep BOUND_PRUNE_SLACK of headroom."""
        shapes = [
            [(1, 0, 4, 2, 60, 1, 0, False)],
            [
                (1, 0, 4, 2, 60, 1, 0, False),
                (1, 0, 5, 2, 60, 1, 0, False),
                (1, 23, 4, 2, 74, 3, 1, False),
            ],
        ]
        library, kernels = _build_library(shapes, 1, 1)
        triggers = [
            TriggerInstruction(kernel.name, *params)
            for kernel, params in zip(
                kernels, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
            )
        ]
        warmup = [
            TriggerInstruction(kernel.name, 3_000.0, 200.0, 50.0)
            for kernel in kernels
        ]
        for profit in PROFITS:
            _select_both(
                library, triggers, warmup_triggers=warmup, profit=profit
            )

    def test_fg_backlog_quantisation_changes_ranking(self):
        """A warm state with a non-zero FG port backlog under which RISPP's
        quantised profit ranks the candidates differently from mRTS's;
        naive and packed agree under each."""
        shapes = [
            [
                (35, 48, 36, 16, 558, 2, 3, False),
                (33, 54, 6, 7, 529, 1, 1, False),
                (45, 0, 38, 3, 369, 9, 5, True),
            ],
            [
                (42, 36, 37, 8, 590, 7, 4, False),
                (20, 57, 23, 4, 578, 8, 4, True),
                (11, 32, 44, 2, 494, 12, 5, False),
            ],
        ]
        library, _ = _build_library(shapes, 2, 2)
        warmup = [TriggerInstruction("k0", 3_000.0, 200.0, 50.0)]
        triggers = [
            TriggerInstruction("k0", 1_697.0, 576.0, 958.0),
            TriggerInstruction("k1", 2_749.0, 1_833.0, 769.0),
        ]
        picks = {}
        for profit in PROFITS:
            controller = ReconfigurationController(library.budget)
            warm = ISESelector(library, profit=profit).select(
                warmup, controller, 0
            )
            controller.commit_selection(warm.selected, owner="warm", now=0)
            assert controller.fg.port_available_at > 2_000
            naive, _ = _select_both(
                library, triggers, warmup_triggers=warmup, profit=profit
            )
            picks[profit] = {k: ise.name for k, ise in naive.selected.items()}
        assert picks[profit_value] != picks[quantized_profit]

    def test_h264_block_equivalence_with_cache_hits(self):
        from repro.workloads.h264 import h264_blocks

        blocks = h264_blocks()
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = ISELibrary(
            [k for block in blocks for k in block.kernels], budget
        )
        kernels = blocks[1].kernels  # EE: 7 kernels, many greedy rounds
        triggers = [
            TriggerInstruction(k.name, 800.0 + 100.0 * i, 300.0, 40.0)
            for i, k in enumerate(kernels)
        ]
        for profit in PROFITS:
            _, packed = _select_both(library, triggers, profit=profit)
            assert packed.evaluations_skipped + packed.evaluations_pruned > 0
            assert 0.0 < packed.cache_hit_rate <= 1.0
            assert packed.evaluations_avoided == (
                packed.evaluations_skipped + packed.evaluations_pruned
            )


# ------------------------------------------------ footprint index (d)


def _users(packed):
    """The packed inverted index as ``impl name -> {(kernel, position)}``."""
    return {
        name: {
            (packed.cand_kernel[cid], packed.cand_local[cid])
            for cid in packed.users_cids[impl]
        }
        for impl, name in enumerate(packed.impl_names)
    }


class TestFootprintIndex:
    """The packed library's inverted index is the packed selector's
    invalidation surface; positions are library candidate indices."""

    def test_index_matches_footprints(self, library):
        users = _users(pack_library(library))
        for kernel_name in library.kernel_names():
            candidates = library.candidate_tuple(kernel_name)
            for position, ise in enumerate(candidates):
                for impl_name in ise.footprint:
                    assert (kernel_name, position) in users[impl_name]

    def test_index_has_no_stale_entries(self, library):
        for impl_name, entries in _users(pack_library(library)).items():
            for kernel_name, position in entries:
                ise = library.candidate_tuple(kernel_name)[position]
                assert impl_name in ise.footprint

    def test_pruned_view_index_positions_match(self, library):
        from repro.core.prune import PrunedLibraryView

        view = PrunedLibraryView(library)
        users = _users(pack_library(view))
        for kernel_name in view.kernel_names():
            candidates = view.candidate_tuple(kernel_name)
            for position, ise in enumerate(candidates):
                for impl_name in ise.footprint:
                    assert (kernel_name, position) in users[impl_name]
                for impl_name, entries in users.items():
                    if (kernel_name, position) in entries:
                        assert impl_name in ise.footprint


# ----------------------------------------------- pinned cache counters


#: ``selector_payload()`` of h264 frames=8 seed 7 on three Fig. 8 budgets
#: ``(n_cg_fabrics, n_prcs)``, as recorded by the cached selector before
#: RISPP moved onto the packed path.  The naive oracle cannot check these
#: counters (it caches nothing), so they are pinned literally.
PINNED_SELECTOR_PAYLOADS = {
    ("mrts", (0, 2)): (280, 64, 0, 216, 32, 48),
    ("mrts", (2, 1)): (1448, 194, 120, 1134, 8, 80),
    ("mrts", (4, 3)): (1996, 324, 209, 1463, 12, 88),
    ("rispp", (0, 2)): (360, 264, 0, 96, 128, 48),
    ("rispp", (2, 1)): (1056, 415, 200, 441, 143, 64),
    ("rispp", (4, 3)): (1781, 479, 329, 973, 24, 64),
}


class TestPinnedCounters:
    @pytest.mark.parametrize(
        "policy,budget",
        sorted(PINNED_SELECTOR_PAYLOADS),
        ids=lambda v: v if isinstance(v, str) else f"{v[0]}{v[1]}",
    )
    def test_fig8_selector_payload_pinned(self, policy, budget):
        from repro.baselines.rispp import RisppLikePolicy
        from repro.core.mrts import MRTS
        from repro.sim.simulator import Simulator
        from repro.workloads.h264 import h264_application, h264_library

        factory = {"mrts": MRTS, "rispp": RisppLikePolicy}[policy]
        cg, prc = budget
        resources = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        stats = Simulator(
            h264_application(frames=8, seed=7),
            h264_library(resources),
            resources,
            factory(),
        ).run().stats
        evaluations, recomputed, skipped, pruned, invalidations, rounds = (
            PINNED_SELECTOR_PAYLOADS[(policy, budget)]
        )
        assert stats.selector_payload() == {
            "profit_evaluations": evaluations,
            "evaluations_recomputed": recomputed,
            "evaluations_skipped": skipped,
            "evaluations_pruned": pruned,
            "selector_invalidations": invalidations,
            "selector_rounds": rounds,
            "cache_hit_rate": (skipped + pruned) / evaluations,
        }

    @pytest.mark.parametrize(
        "budgets,frames,recomputed",
        [
            (QUICK_BUDGETS, 4, {"naive": 2_303, "packed": 348}),
            (FIG8_BUDGETS, 16, {"naive": 46_463, "packed": 8_140}),
        ],
        ids=["quick", "fig8"],
    )
    def test_fig8_grid_recomputations_pinned(self, budgets, frames, recomputed):
        """Profit recomputations of mRTS over a fig8 grid (h264 seed 7)
        under each mode, with byte-identical stats payloads.  The full
        grid is the 5.7x cut README cites (46,463 / 8,140)."""
        from repro.core.config import MRTSConfig
        from repro.core.mrts import MRTS
        from repro.sim.simulator import Simulator
        from repro.workloads.h264 import h264_application, h264_library

        application = h264_application(frames=frames, seed=SEED)
        payloads = {mode: [] for mode in SELECTOR_MODES}
        totals = dict.fromkeys(SELECTOR_MODES, 0)
        for mode in SELECTOR_MODES:
            for cg, prc in budgets:
                resources = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
                stats = Simulator(
                    application,
                    h264_library(resources),
                    resources,
                    MRTS(MRTSConfig(selector_mode=mode)),
                ).run().stats
                payloads[mode].append(stats.to_payload())
                totals[mode] += stats.evaluations_recomputed
        assert payloads["packed"] == payloads["naive"]
        assert totals == recomputed


# ------------------------------------------------- profit bound (tentpole)


class TestProfitBound:
    @settings(max_examples=60, deadline=None)
    @given(
        shapes=kernel_shapes,
        trig=trigger_params,
        delays=st.lists(
            st.floats(min_value=0.0, max_value=5_000.0), min_size=3, max_size=3
        ),
    )
    def test_bound_dominates_profit_for_any_schedule(self, shapes, trig, delays):
        """e * profit_bound_per_execution >= profit(schedule) under every
        profit function -- the soundness condition of the packed selector's
        pruning."""
        library, kernels = _build_library(shapes, 3, 3)
        e, tf, tb = trig
        for kernel in kernels:
            for ise in library.candidate_tuple(kernel.name):
                schedule = sorted(delays[: len(ise.instances)])
                bound = e * ise.profit_bound_per_execution
                for profit in PROFITS:
                    value = profit(ise.latencies, schedule, e, tf, tb)
                    assert value <= bound + 1e-6 * max(1.0, bound)

    def test_bound_is_precompiled_and_non_negative(self, library):
        for kernel_name in library.kernel_names():
            for ise in library.candidate_tuple(kernel_name):
                expected = max(0, ise.latencies[0] - min(ise.latencies[1:]))
                assert ise.profit_bound_per_execution == expected
                assert ise.profit_bound_per_execution >= 0


# ------------------------------------------------------- tie-break (c)


class TestTieBreak:
    def test_beats_prefers_higher_profit(self):
        assert _beats(2.0, "z", 9, 1.0, "a", 0)
        assert not _beats(1.0, "a", 0, 2.0, "z", 9)

    def test_beats_resolves_ties_lexicographically(self):
        # Equal profit: smaller kernel name wins, then smaller index.
        assert _beats(1.0, "a", 5, 1.0, "b", 0)
        assert not _beats(1.0, "b", 0, 1.0, "a", 5)
        assert _beats(1.0, "a", 0, 1.0, "a", 1)
        assert not _beats(1.0, "a", 1, 1.0, "a", 0)

    def test_equal_profit_kernels_select_in_kernel_order(self):
        """Two structurally identical kernels tie on profit; both
        implementations must commit the lexicographically smaller kernel
        first."""
        params = (24, 16, 32, 8, 300, 6, 2, True)
        shapes = [[params], [params]]
        library, kernels = _build_library(shapes, 3, 3)
        triggers = [
            TriggerInstruction(kernel.name, 1_500.0, 400.0, 80.0)
            for kernel in kernels
        ]
        for result in _select_both(library, triggers):
            order = result.selection_order()
            assert order == sorted(order)
            profits = [result.profits[k] for k in order]
            assert profits[0] == pytest.approx(profits[1])


# ------------------------------------------------------ mode plumbing


class TestModeSelection:
    def test_default_is_packed(self, library, monkeypatch):
        monkeypatch.delenv(SELECTOR_MODE_ENV, raising=False)
        assert SELECTOR_MODES == ("naive", "packed")
        assert resolve_selector_mode() == "packed"
        assert ISESelector(library).mode == "packed"

    def test_env_variable_selects_mode(self, library, monkeypatch):
        monkeypatch.setenv(SELECTOR_MODE_ENV, "naive")
        assert ISESelector(library).mode == "naive"

    def test_explicit_mode_overrides_env(self, library, monkeypatch):
        monkeypatch.setenv(SELECTOR_MODE_ENV, "naive")
        assert ISESelector(library, mode="packed").mode == "packed"

    def test_invalid_mode_rejected(self, library, monkeypatch):
        for mode in ("turbo", "incremental"):
            with pytest.raises(ReproError):
                ISESelector(library, mode=mode)
        for mode in ("bogus", "incremental"):
            monkeypatch.setenv(SELECTOR_MODE_ENV, mode)
            with pytest.raises(ReproError):
                ISESelector(library)

    def test_config_threads_mode_to_policy(self):
        from repro.core.config import MRTSConfig
        from repro.core.mrts import MRTS
        from repro.fabric.reconfig import ReconfigurationController
        from repro.workloads.h264 import h264_library

        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=1)
        library = h264_library(budget)
        policy = MRTS(MRTSConfig(selector_mode="naive"))
        policy.attach(library, ReconfigurationController(budget))
        assert policy.selector.mode == "naive"

    def test_rispp_threads_mode_to_selector(self):
        """Regression: RISPP rebuilt its config field by field and lost
        ``selector_mode``, silently running the default selector."""
        from repro.baselines.rispp import RisppLikePolicy
        from repro.core.config import MRTSConfig
        from repro.workloads.h264 import h264_library

        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=1)
        library = h264_library(budget)
        policy = RisppLikePolicy(MRTSConfig(selector_mode="naive", mpu_window=3))
        policy.attach(library, ReconfigurationController(budget))
        assert policy.selector.mode == "naive"
        assert policy.selector.profit is quantized_profit
        assert policy.config.mpu_window == 3
        assert policy.config.enable_monocg is False
