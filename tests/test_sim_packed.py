"""Stepped oracle vs. packed production engine: byte-identical results.

The packed engine must produce *byte-identical* stats and trace payloads
to the stepped reference loop (the literal Fig. 7 cascade, one ECU call
per execution) -- on the golden workloads, across every policy on
fig8/9/10-style budget grids, under run-time fabric contention, and on
randomized libraries/applications -- with and without trace collection:
the stretch fold and the whole-iteration fold of time-invariant
policies only run with tracing off, so both configurations are exercised.
On the Fig. 8 grid the packed engine's ECU-call counts are pinned and its
wall clock must beat the stepped loop's by a floor factor.
``tests/test_sim_event.py`` pins the traced per-run event loop itself.
"""

import gc
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import (
    Morpheus4SPolicy,
    RiscModePolicy,
    RisppLikePolicy,
    TaskLevelPolicy,
)
from repro.baselines.static import StaticSelectionPolicy
from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.core.packed import PackedIteration, pack_program
from repro.fabric.datapath import DataPathSpec
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.contention import ContentionEvent, ContentionSchedule
from repro.sim.simulator import (
    ENGINE_MODE_ENV,
    ENGINE_MODES,
    Simulator,
    resolve_engine_mode,
)
from repro.sim.program import (
    Application,
    BlockIteration,
    FunctionalBlock,
    KernelIteration,
)
from repro.workloads.h264 import (
    deblocking_application,
    deblocking_library,
    h264_application,
    h264_library,
)
from repro.workloads.jpeg import jpeg_application, jpeg_library
from tests.fig8_grid import FIG8_BUDGETS, QUICK_BUDGETS, SEED


# --------------------------------------------------------------- helpers


def _run(application, budget, make_library, make_policy, engine,
         contention=None, collect_trace=True):
    return Simulator(
        application,
        make_library(),
        budget,
        make_policy(),
        collect_trace=collect_trace,
        contention=contention,
        engine=engine,
    ).run()


def _identical(application, budget, make_library, make_policy,
               contention_factory=None, collect_trace=True):
    """Run the stepped oracle and the packed engine on identical inputs;
    assert byte-identity of the stats and (expanded) trace payloads.

    Library, policy and contention schedule are built fresh per engine
    (all three are stateful across a run)."""
    results = {}
    for engine in ENGINE_MODES:
        contention = contention_factory() if contention_factory else None
        results[engine] = _run(
            application, budget, make_library, make_policy, engine,
            contention, collect_trace,
        )
    stepped, packed = results["stepped"], results["packed"]
    assert packed.stats.to_payload() == stepped.stats.to_payload()
    if collect_trace:
        assert packed.trace.to_payload() == stepped.trace.to_payload()
    return stepped, packed


def _deblocking_scenario():
    """The golden-trace reference scenario (tests/golden/)."""
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
    application = deblocking_application(frames=2, seed=0, scale=0.05)
    return application, budget, lambda: deblocking_library(budget)


def _jpeg_scenario():
    """The second golden-trace scenario (tests/golden/jpeg_mrts.json)."""
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
    application = jpeg_application(images=3, blocks_per_image=60, seed=0)
    return application, budget, lambda: jpeg_library(budget)


# ------------------------------------------------- golden-workload identity


class TestGoldenWorkloads:
    @pytest.mark.parametrize("scenario", [_deblocking_scenario, _jpeg_scenario])
    def test_traced_byte_identical(self, scenario):
        application, budget, make_library = scenario()
        _identical(application, budget, make_library, MRTS)

    @pytest.mark.parametrize("scenario", [_deblocking_scenario, _jpeg_scenario])
    def test_untraced_byte_identical(self, scenario):
        """Without a trace the packed engine takes its stretch fold --
        a different code path that must land on the same statistics."""
        application, budget, make_library = scenario()
        _identical(application, budget, make_library, MRTS, collect_trace=False)

    @pytest.mark.parametrize("scenario", [_deblocking_scenario, _jpeg_scenario])
    def test_untraced_observed_timings_identical(self, scenario, monkeypatch):
        """The folds also reconstruct each kernel's first and last
        execution: the per-iteration timings the MPU learns from must
        match the stepped loop's exactly."""
        observed = {}
        timings = Simulator._observed_timings

        def recording(*args):
            result = timings(*args)
            observed.setdefault(engine, []).append(result)
            return result

        monkeypatch.setattr(Simulator, "_observed_timings", staticmethod(recording))
        application, budget, make_library = scenario()
        for engine in ENGINE_MODES:
            _run(application, budget, make_library, MRTS, engine, collect_trace=False)
        assert observed["packed"] == observed["stepped"]

    def test_packed_counters_match_event(self):
        """The packed engine keeps the deleted event engine's bookkeeping:
        traced (every group materialised) and untraced (suffixes folded)
        runs report the counters the event engine recorded here: 40
        ECU calls for 10045 h264 executions."""
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        application = h264_application(frames=2, seed=7)
        for collect_trace in (True, False):
            stats = _run(
                application, budget, lambda: h264_library(budget), MRTS,
                "packed", collect_trace=collect_trace,
            ).stats
            assert (
                stats.ecu_calls,
                stats.executions_fastforwarded,
                stats.events_processed,
            ) == (40, 10005, 12)

    @pytest.mark.parametrize(
        "policy_name, budget, counters",
        [
            ("mrts", (0, 3), (154, 40519, 66)),
            ("mrts", (2, 2), (142, 40531, 36)),
            ("mrts", (4, 1), (166, 40507, 52)),
            ("rispp", (0, 3), (136, 40537, 48)),
            ("rispp", (2, 2), (112, 40561, 24)),
            ("rispp", (4, 1), (105, 40568, 17)),
        ],
    )
    def test_fig8_counters_pinned(self, policy_name, budget, counters):
        """The engine counters of fig8 cells (h264 frames=8 seed 7), traced
        and untraced: the stretch fold serves only cache hits, so it moves
        no decision, fast-forward or event count."""
        cg, prc = budget
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        application = h264_application(frames=8, seed=7)
        for collect_trace in (True, False):
            stats = _run(
                application, budget, lambda: h264_library(budget),
                POLICY_FACTORIES[policy_name], "packed",
                collect_trace=collect_trace,
            ).stats
            assert (
                stats.ecu_calls,
                stats.executions_fastforwarded,
                stats.events_processed,
            ) == counters

    def test_untraced_fold_accounts_for_every_execution(self):
        """With the stretch fold active, every execution is still either a
        cascade call or a fast-forward -- nothing is double counted."""
        application, budget, make_library = _deblocking_scenario()
        stats = _run(
            application, budget, make_library, MRTS, "packed",
            collect_trace=False,
        ).stats
        assert (
            stats.ecu_calls + stats.executions_fastforwarded
            == stats.total_executions
        )
        assert stats.executions_fastforwarded > 0


# ------------------------------------------------- selector hand-off


class TestSelectorHandoff:
    def test_packed_engine_swaps_default_selector(self):
        application, budget, make_library = _deblocking_scenario()
        policy = MRTS()
        Simulator(
            application, make_library(), budget, policy, engine="packed"
        ).run()
        assert policy.selector.mode == "packed"

    def test_explicit_selector_mode_is_honoured(self):
        """The engine never swaps the selector: a user pinning the naive
        selector keeps it under the packed engine."""
        application, budget, make_library = _deblocking_scenario()
        policy = MRTS(MRTSConfig(selector_mode="naive"))
        Simulator(
            application, make_library(), budget, policy, engine="packed"
        ).run()
        assert policy.selector.mode == "naive"


# ----------------------------------------------- policy x budget grid


#: Every policy family of the Figs. 8-10 evaluation.
POLICY_FACTORIES = {
    "mrts": MRTS,
    "risc": RiscModePolicy,
    "rispp": RisppLikePolicy,
    "morpheus4s": Morpheus4SPolicy,
    "tasklevel": TaskLevelPolicy,
    "static": StaticSelectionPolicy,
}

#: Fig. 8-style cut: FG-only, CG-only, and two mixed budgets.
GRID_BUDGETS = ((0, 2), (2, 0), (1, 1), (2, 2))


class TestPolicyGrid:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_engines_identical_across_budgets(self, policy_name):
        application = h264_application(frames=1, seed=11)
        for cg, prc in GRID_BUDGETS:
            budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
            _identical(
                application,
                budget,
                lambda budget=budget: h264_library(budget),
                POLICY_FACTORIES[policy_name],
            )

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_engines_identical_untraced(self, policy_name):
        """The stretch-fold path across every policy family: non-ECU policies
        must fall back to per-run execution and still agree."""
        application = h264_application(frames=1, seed=11)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _identical(
            application,
            budget,
            lambda: h264_library(budget),
            POLICY_FACTORIES[policy_name],
            collect_trace=False,
        )


# ------------------------------------------ fig8 grid: calls and speed


def _fig8_grid(budgets, frames, engine):
    """mRTS over a fig8 grid (h264 seed 7) on one engine, untraced:
    per-cell stats payloads, summed ``(ecu_calls, total_executions)`` and
    the wall seconds of the whole grid."""
    application = h264_application(frames=frames, seed=SEED)
    payloads, calls, executions = [], 0, 0
    started = time.perf_counter()
    for cg, prc in budgets:
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        stats = Simulator(
            application, h264_library(budget), budget, MRTS(), engine=engine
        ).run().stats
        payloads.append(stats.to_payload())
        calls += stats.ecu_calls
        executions += stats.total_executions
    return payloads, (calls, executions), time.perf_counter() - started


@pytest.fixture(scope="module")
def quick_grid():
    """Both engines over the quick grid at frames=4, stepped first."""
    return {
        engine: _fig8_grid(QUICK_BUDGETS, 4, engine) for engine in ENGINE_MODES
    }


class TestFig8Grid:
    def test_quick_grid_ecu_calls_pinned(self, quick_grid):
        stepped_payloads, stepped_counters, _ = quick_grid["stepped"]
        packed_payloads, packed_counters, _ = quick_grid["packed"]
        assert packed_payloads == stepped_payloads
        assert stepped_counters == (60_432, 60_432)
        assert packed_counters == (213, 60_432)

    def test_quick_grid_packed_speedup(self, quick_grid):
        *_, stepped_wall = quick_grid["stepped"]
        *_, packed_wall = quick_grid["packed"]
        speedup = stepped_wall / packed_wall
        assert speedup >= 2.0, f"packed only {speedup:.1f}x faster"

    def test_fig8_grid_ecu_calls_pinned(self):
        """The full grid at frames=16: 1,482,240 executions (one stepped
        ECU call each) in 5,178 packed calls, the 286x cut README cites."""
        _, counters, _ = _fig8_grid(FIG8_BUDGETS, 16, "packed")
        assert counters == (5_178, 1_482_240)

    @pytest.mark.slow
    def test_fig8_grid_packed_speedup(self):
        stepped_payloads, _, stepped_wall = _fig8_grid(
            FIG8_BUDGETS, 16, "stepped"
        )
        packed_payloads, _, packed_wall = _fig8_grid(FIG8_BUDGETS, 16, "packed")
        assert packed_payloads == stepped_payloads
        speedup = stepped_wall / packed_wall
        assert speedup >= 10.0, f"packed only {speedup:.1f}x faster"


# ----------------------------------------- time-invariant iteration fold


class _CountingRisc(RiscModePolicy):
    """RISC mode that counts the policy hook calls the engine makes and
    keeps the per-iteration timings the engine observes."""

    def __init__(self):
        super().__init__()
        self.execute_calls = 0
        self.execute_run_calls = 0
        self.observed = []

    def on_block_exit(self, block_name, observed, now):
        self.observed.append((block_name, dict(observed), now))

    def execute(self, kernel_name, now):
        self.execute_calls += 1
        return super().execute(kernel_name, now)

    def execute_run(self, kernel_name, now, max_executions, gap):
        self.execute_run_calls += 1
        return super().execute_run(kernel_name, now, max_executions, gap)


class TestTimeInvariantFold:
    def test_risc_folds_whole_iterations(self):
        """Untraced RISC runs take one decision per kernel per iteration,
        land on the stepped statistics and per-iteration timings, and keep
        the per-group counters the traced loop reports."""
        application = h264_application(frames=2, seed=7)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _, traced = _identical(
            application, budget, lambda: h264_library(budget), RiscModePolicy
        )
        stepped = _CountingRisc()
        Simulator(
            application, h264_library(budget), budget, stepped, engine="stepped"
        ).run()
        policy = _CountingRisc()
        folded = Simulator(
            application, h264_library(budget), budget, policy, engine="packed"
        ).run()
        assert policy.observed == stepped.observed
        assert folded.stats.to_payload() == traced.stats.to_payload()
        assert folded.stats.engine_payload() == traced.stats.engine_payload()
        assert folded.stats.ecu_calls == len(traced.trace.runs)
        assert policy.execute_run_calls == 0
        assert policy.execute_calls == sum(
            len(packed.kernels) for packed in pack_program(application).iterations
        )
        assert policy.execute_calls < folded.stats.ecu_calls

    def test_only_risc_is_time_invariant(self):
        for name, factory in POLICY_FACTORIES.items():
            assert factory.time_invariant == (name == "risc"), name


# --------------------------------------------------------- contention


class TestContention:
    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_periodic_contention_identical(self, collect_trace):
        application = h264_application(frames=2, seed=3)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _identical(
            application,
            budget,
            lambda: h264_library(budget),
            MRTS,
            contention_factory=lambda: ContentionSchedule.periodic(
                period=40_000, duty_prcs=1, duty_cg_slots=1, until=400_000
            ),
            collect_trace=collect_trace,
        )

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_full_contention_identical(self, collect_trace):
        """Everything claimed at t=0, released mid-run: the packed engine
        must drop out of regime hits (and the stretch fold) when
        block-boundary contention events mutate the fabric."""
        application = h264_application(frames=2, seed=3)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _identical(
            application,
            budget,
            lambda: h264_library(budget),
            MRTS,
            contention_factory=lambda: ContentionSchedule(
                [
                    ContentionEvent(time=0, task="bg", n_prcs=2, n_cg_slots=8),
                    ContentionEvent(time=150_000, task="bg"),
                ]
            ),
            collect_trace=collect_trace,
        )


# ------------------------------------------------- randomized workloads


def _spec(kernel_name, index, params):
    """A data path from drawn ``params``, optionally ending with its
    bitstream size in KB."""
    word_ops, bit_ops, mem_bytes, fg_depth, sw_cycles, invocations, *kb = params
    spec = DataPathSpec(
        name=f"{kernel_name}.dp{index}",
        word_ops=word_ops,
        bit_ops=bit_ops,
        mem_bytes=mem_bytes,
        fg_depth=fg_depth,
        sw_cycles=sw_cycles,
        invocations=invocations,
    )
    return replace(spec, bitstream_kb=kb[0]) if kb else spec


datapath_params = st.tuples(
    st.integers(min_value=1, max_value=48),    # word_ops
    st.integers(min_value=0, max_value=64),    # bit_ops
    st.integers(min_value=4, max_value=64),    # mem_bytes
    st.integers(min_value=2, max_value=16),    # fg_depth
    st.integers(min_value=60, max_value=600),  # sw_cycles
    st.integers(min_value=1, max_value=12),    # invocations
)

kernel_shapes = st.lists(
    st.lists(datapath_params, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)

iteration_params = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),   # executions
        st.integers(min_value=0, max_value=200),  # gap
    ),
    min_size=2,
    max_size=4,
)


def _random_application(shapes, demands, rotations=3, prefix=""):
    """One block of random kernels (named under ``prefix``), iterated over
    ``rotations`` rotations of the drawn (executions, gap) demands."""
    kernels = [
        Kernel(
            f"{prefix}k{k_index}",
            base_cycles=100,
            datapaths=[
                _spec(f"{prefix}k{k_index}", d_index, params)
                for d_index, params in enumerate(datapaths)
            ],
        )
        for k_index, datapaths in enumerate(shapes)
    ]
    block = FunctionalBlock(f"{prefix}B", kernels)
    iterations = [
        BlockIteration(
            f"{prefix}B",
            [
                KernelIteration(k.name, executions, gap)
                for k, (executions, gap) in zip(kernels, demand_cycle)
            ],
        )
        for demand_cycle in [demands[i:] + demands[:i] for i in range(rotations)]
    ]
    return Application(prefix or "rand", [block], iterations), kernels


class TestRandomized:
    @settings(max_examples=25, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
        demands=iteration_params,
        collect_trace=st.booleans(),
        make_policy=st.sampled_from([MRTS, RiscModePolicy]),
    )
    def test_random_libraries_identical(
        self, shapes, cg, prc, demands, collect_trace, make_policy
    ):
        application, kernels = _random_application(shapes, demands)
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        _identical(
            application,
            budget,
            lambda: ISELibrary(kernels, budget),
            make_policy,
            collect_trace=collect_trace,
        )


# ------------------------------------------- finite-horizon stretch folds


#: Data paths whose partial bitstreams mostly stream for 60k-470k cycles:
#: about as long as an iteration or several, so FG reconfigurations land
#: inside iterations and most regimes carry a finite horizon.  Short ones
#: (3k-18k cycles) land early in a block, after which a kernel's next
#: regime may configure a monoCG-Extension: a fabric mutation mid-block.
long_bitstream_params = st.tuples(
    st.integers(min_value=1, max_value=48),    # word_ops
    st.integers(min_value=0, max_value=64),    # bit_ops
    st.integers(min_value=4, max_value=64),    # mem_bytes
    st.integers(min_value=2, max_value=16),    # fg_depth
    st.integers(min_value=60, max_value=600),  # sw_cycles
    st.integers(min_value=1, max_value=12),    # invocations
    st.floats(min_value=0.5, max_value=3.0)
    | st.floats(min_value=10.0, max_value=79.2),  # bitstream_kb
)

finite_horizon_cases = st.fixed_dictionaries({
    "shapes": st.lists(
        st.lists(long_bitstream_params, min_size=1, max_size=3),
        min_size=2,
        max_size=4,
    ),
    "demands": st.lists(
        st.tuples(
            st.integers(min_value=5, max_value=80),   # executions
            st.integers(min_value=0, max_value=200),  # gap
        ),
        min_size=4,
        max_size=4,
    ),
    "prc": st.integers(min_value=1, max_value=2),
    "cg": st.integers(min_value=0, max_value=1),
    # A background task holds one PRC (and CG slots) from the start and
    # releases it at the first block boundary after ``release_at``.
    "claim_cg_slots": st.integers(min_value=0, max_value=2),
    "release_at": st.integers(min_value=1, max_value=2_000_000),
})


class _FoldSpy:
    """Wraps :meth:`PackedIteration.fold`: checks that every kernel the
    fold serves sits in a regime of the current fabric version (a
    mid-block monoCG configuration invalidates every other regime), and
    records each call's ``(finite limit, executions folded)``.

    ``track`` wraps a policy factory so the spy sees the ECU of the
    policy built last -- the packed run's, since ``_identical`` runs the
    stepped oracle first."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.policy = None
        fold = PackedIteration.fold

        def spy(packed, done, periods, limit):
            ecu = self.policy.ecu
            version = ecu.controller.resources.version
            for kid, name in enumerate(packed.kernels):
                if done[kid] < packed.totals[kid]:
                    assert ecu.regimes[name].version == version
            result = fold(packed, done, periods, limit)
            self.calls.append((limit != float("inf"), sum(result[1])))
            return result

        monkeypatch.setattr(PackedIteration, "fold", spy)

    def track(self, make_policy):
        def make():
            self.policy = make_policy()
            return self.policy

        return make

    def finite_stretches(self):
        return sum(1 for finite, folded in self.calls if finite and folded > 0)


def _finite_horizon_identical(case, make_policy, contention):
    """Stepped vs packed stats, traced and untraced, on one drawn case;
    the traced and untraced packed runs report the same engine counters
    (the fold keeps the per-group meaning)."""
    shapes = case["shapes"]
    application, kernels = _random_application(
        shapes, case["demands"][: len(shapes)], rotations=2 * len(shapes)
    )
    budget = ResourceBudget(n_prcs=case["prc"], n_cg_fabrics=case["cg"])
    contention_factory = None
    if contention:
        contention_factory = lambda: ContentionSchedule([
            ContentionEvent(
                time=0, task="bg", n_prcs=1, n_cg_slots=case["claim_cg_slots"]
            ),
            ContentionEvent(time=case["release_at"], task="bg"),
        ])
    _, traced = _identical(
        application, budget, lambda: ISELibrary(kernels, budget), make_policy,
        contention_factory,
    )
    _, untraced = _identical(
        application, budget, lambda: ISELibrary(kernels, budget), make_policy,
        contention_factory, collect_trace=False,
    )
    assert untraced.stats.engine_payload() == traced.stats.engine_payload()


#: Under mRTS this case configures monoCG-Extensions mid-block (k2 in the
#: first block, k0 in the fourth), which leaves the other kernels' regimes
#: stale while they still owe executions: the fold must wait until each
#: of them misses again.
MONOCG_MID_BLOCK_CASE = {
    "shapes": [
        [(33, 61, 40, 4, 532, 5, 1.97)],
        [(8, 2, 20, 8, 86, 7, 39.57), (12, 7, 63, 6, 267, 12, 42.5)],
        [(9, 29, 5, 5, 337, 5, 2.27), (33, 21, 62, 11, 500, 2, 0.71)],
    ],
    "demands": [(21, 142), (23, 112), (64, 196), (1, 0)],
    "prc": 2,
    "cg": 1,
    "claim_cg_slots": 0,
    "release_at": 1,
}


#: Under RISPP this case folds stretches short of a finite horizon, so
#: the RISPP leg's coverage does not hang on which examples Hypothesis
#: draws (those shift with unrelated module constants).
RISPP_FINITE_HORIZON_CASE = {
    "shapes": [
        [(26, 10, 15, 4, 205, 3, 0.51)],
        [(7, 22, 33, 5, 457, 2, 2.06), (18, 25, 52, 14, 513, 10, 68.57)],
    ],
    "demands": [(80, 76), (77, 153), (10, 176), (36, 69)],
    "prc": 2,
    "cg": 1,
    "claim_cg_slots": 0,
    "release_at": 1,
}


class TestFiniteHorizonFolds:
    """FG reconfigurations landing mid-iteration: every regime the stretch
    fold reads has a finite horizon until the last level is configured,
    so the fold must stop exactly before the group that reaches it."""

    @pytest.mark.parametrize(
        "make_policy, contention",
        [(MRTS, False), (RisppLikePolicy, False), (MRTS, True)],
        ids=["mrts", "rispp", "mrts-contention"],
    )
    def test_engines_identical(self, make_policy, contention, monkeypatch):
        spy = _FoldSpy(monkeypatch)

        @settings(max_examples=20, deadline=None, derandomize=True)
        @given(case=finite_horizon_cases)
        @example(case=MONOCG_MID_BLOCK_CASE)
        @example(case=RISPP_FINITE_HORIZON_CASE)
        def check(case):
            _finite_horizon_identical(case, spy.track(make_policy), contention)

        check()
        assert spy.finite_stretches() > 0


# ------------------------------------------------- engine resolution


class TestEngineResolution:
    def test_packed_is_a_registered_mode(self):
        assert ENGINE_MODES == ("stepped", "packed")

    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        assert resolve_engine_mode() == "packed"

    def test_explicit_packed_accepted(self, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        assert resolve_engine_mode("packed") == "packed"

    def test_env_packed_respected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "packed")
        assert resolve_engine_mode() == "packed"

    def test_simulator_honours_env(self, monkeypatch):
        application, budget, make_library = _deblocking_scenario()
        monkeypatch.setenv(ENGINE_MODE_ENV, "packed")
        policy = MRTS()
        result = Simulator(
            application, make_library(), budget, policy, collect_trace=True
        ).run()
        assert policy.selector.mode == "packed"
        assert result.stats.executions_fastforwarded > 0


# ------------------------------------------------- compact program


class TestCompactProgram:
    def test_pack_program_memory_pin(self):
        """The packed program of a fig8 application stays small: per-kernel
        positions and pair tables, nothing per group or per execution (a
        layout with per-group tuples and per-kernel prefix arrays took
        about 3 MB here)."""
        application = h264_application(frames=8, seed=7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            program = pack_program(application)
            # A full collection empties the interpreter's free lists, which
            # still hold the interleaving's discarded step tuples.
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(program.iterations) == len(application.iterations)
        assert retained <= 0.25 * 2**20
