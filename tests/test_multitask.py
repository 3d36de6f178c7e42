"""Multi-task co-runs: several applications on one fabric.

A co-run is :meth:`Simulator.co_run`: the simulator's own block loop,
round-robin over the tasks, on either kernel engine.  Besides the co-run's
semantics, the packed engine must reproduce the stepped oracle byte for
byte on co-runs too -- per-task stats, traces and ``finished_at``, and
the wall clock -- on the H.264 + JPEG pair and on drawn programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mrts import MRTS
from repro.baselines import RisppLikePolicy
from repro.baselines.riscmode import RiscModePolicy
from repro.fabric.datapath import DataPathSpec, FabricType
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.program import Application, BlockIteration, FunctionalBlock, KernelIteration
from repro.sim.simulator import ENGINE_MODES, Simulator, Task
from repro.util.validation import ReproError
from repro.workloads.h264 import h264_application, h264_library
from repro.workloads.jpeg import jpeg_application, jpeg_library
from tests.test_sim_packed import (
    _random_application,
    iteration_params,
    kernel_shapes,
)


def make_app(prefix: str, executions: int = 30, iterations: int = 3) -> Application:
    kernel = Kernel(
        f"{prefix}.k",
        base_cycles=100,
        datapaths=[
            DataPathSpec(
                name=f"{prefix}.dp", word_ops=16, bit_ops=16, mem_bytes=16,
                fg_depth=8, sw_cycles=150, invocations=6,
            )
        ],
    )
    block = FunctionalBlock(f"{prefix}.B", [kernel])
    return Application(
        prefix,
        [block],
        [
            BlockIteration(f"{prefix}.B", [KernelIteration(kernel.name, executions, 30)])
            for _ in range(iterations)
        ],
    )


@pytest.fixture
def budget():
    return ResourceBudget(n_prcs=2, n_cg_fabrics=1)


def make_task(prefix: str, budget, policy=None, **kwargs) -> Task:
    app = make_app(prefix, **kwargs)
    library = ISELibrary(app.all_kernels(), budget)
    return Task(prefix, app, library, policy or MRTS())


class TestValidation:
    def test_duplicate_task_names_rejected(self, budget):
        with pytest.raises(ReproError, match="duplicate"):
            Simulator.co_run(
                [make_task("a", budget), Task("a", make_app("b"), None, MRTS())],
                budget,
            )

    def test_shared_kernel_names_rejected(self, budget):
        t1 = make_task("x", budget)
        app2 = make_app("x")  # same kernel names
        library2 = ISELibrary(app2.all_kernels(), budget)
        with pytest.raises(ReproError, match="globally unique"):
            Simulator.co_run(
                [t1, Task("other", app2, library2, MRTS())], budget
            )

    def test_empty_task_list_rejected(self, budget):
        with pytest.raises(ReproError):
            Simulator.co_run([], budget)


class TestCoSimulation:
    def test_single_task_matches_plain_simulator(self, budget):
        """With one task, a co-run must reproduce a plain run exactly
        (same policy decisions, same cycle accounting)."""
        app = make_app("solo")
        library = ISELibrary(app.all_kernels(), budget)
        plain = Simulator(app, library, budget, MRTS()).run()
        multi = Simulator.co_run(
            [Task("solo", app, library, MRTS())], budget
        )
        assert multi.task("solo").stats.total_cycles == plain.total_cycles

    def test_both_tasks_complete_all_executions(self, budget):
        result = Simulator.co_run(
            [make_task("a", budget, executions=25), make_task("b", budget, executions=40)],
            budget,
        )
        assert result.task("a").stats.total_executions == 3 * 25
        assert result.task("b").stats.total_executions == 3 * 40

    def test_wall_clock_covers_both(self, budget):
        result = Simulator.co_run(
            [make_task("a", budget), make_task("b", budget)], budget
        )
        busy = (
            result.task("a").stats.total_cycles
            + result.task("b").stats.total_cycles
        )
        assert result.total_cycles == busy, "the core is never idle"
        assert result.total_cycles == max(
            result.task("a").finished_at, result.task("b").finished_at
        )

    def test_sharing_interferes_but_both_accelerate(self, budget):
        t_a, t_b = make_task("a", budget, executions=60), make_task(
            "b", budget, executions=60
        )
        alone = {}
        for prefix in ("a", "b"):
            app = make_app(prefix, executions=60)
            library = ISELibrary(app.all_kernels(), budget)
            alone[prefix] = Simulator(app, library, budget, MRTS()).run().stats
        result = Simulator.co_run([t_a, t_b], budget)
        for prefix in ("a", "b"):
            shared_stats = result.task(prefix).stats
            # Busy cycles may grow (stolen fabric) but not collapse to RISC.
            assert shared_stats.accelerated_fraction() > 0.2
            assert shared_stats.total_cycles >= alone[prefix].total_cycles * 0.99

    def test_mixed_policies(self, budget):
        result = Simulator.co_run(
            [
                make_task("a", budget, policy=MRTS()),
                make_task("b", budget, policy=RiscModePolicy()),
            ],
            budget,
        )
        assert result.task("b").stats.accelerated_fraction() == 0.0
        assert result.task("a").stats.accelerated_fraction() > 0.0

    def test_traces_are_per_task(self, budget):
        result = Simulator.co_run(
            [make_task("a", budget), make_task("b", budget)],
            budget,
            collect_trace=True,
        )
        a_kernels = {r.kernel for r in result.task("a").trace.executions}
        assert a_kernels == {"a.k"}

    def test_unknown_task_lookup(self, budget):
        result = Simulator.co_run([make_task("a", budget)], budget)
        with pytest.raises(KeyError):
            result.task("nope")


# ------------------------------------------------- engine identity


def _co_run(make_tasks, budget, engine, collect_trace):
    """One co-run of freshly built tasks (policies and libraries are
    stateful across a run) on ``engine``, as comparable plain data."""
    result = Simulator.co_run(
        make_tasks(), budget, collect_trace=collect_trace, engine=engine
    )
    tasks = {
        name: (
            task.stats.to_payload(),
            task.trace.to_payload() if task.trace is not None else None,
            task.finished_at,
        )
        for name, task in result.tasks.items()
    }
    return result, (result.total_cycles, tasks)


def _identical(make_tasks, budget, collect_trace):
    """Stepped oracle == packed engine on a co-run; per-task
    reconfigurations sum to the controller's count on both."""
    runs = {}
    for engine in ENGINE_MODES:
        result, runs[engine] = _co_run(make_tasks, budget, engine, collect_trace)
        assert sum(
            task.stats.reconfigurations for task in result.tasks.values()
        ) == result.controller.reconfig_count
    assert runs["packed"] == runs["stepped"]
    return result


def _encoder_pair(budget):
    return lambda: [
        Task("h264", h264_application(frames=4, seed=7),
             h264_library(budget), MRTS()),
        Task("jpeg", jpeg_application(images=4, seed=8),
             jpeg_library(budget), MRTS()),
    ]


class TestEngineIdentity:
    @pytest.mark.parametrize("collect_trace", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("cg,prc", [(1, 1), (2, 2), (3, 3)],
                             ids=["11", "22", "33"])
    def test_encoder_pair_identical(self, cg, prc, collect_trace):
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        result = _identical(_encoder_pair(budget), budget, collect_trace)
        assert result.total_cycles == max(
            task.finished_at for task in result.tasks.values()
        )

    def test_reconfigurations_are_attributed_per_task(self):
        """Both encoders reconfigure on a 22 fabric, and a lone task's
        count is the controller's whole count."""
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        result = Simulator.co_run(_encoder_pair(budget)(), budget)
        counts = [task.stats.reconfigurations for task in result.tasks.values()]
        assert all(counts) and sum(counts) == result.controller.reconfig_count
        alone = Simulator(
            h264_application(frames=2, seed=7), h264_library(budget), budget,
            MRTS(),
        ).run()
        assert alone.stats.reconfigurations == alone.controller.reconfig_count

    @settings(max_examples=25, deadline=None)
    @given(
        programs=st.lists(
            st.tuples(
                kernel_shapes, iteration_params,
                st.integers(min_value=1, max_value=4),  # block iterations
                st.sampled_from([MRTS, RiscModePolicy, RisppLikePolicy]),
            ),
            min_size=2, max_size=2,
        ),
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
        collect_trace=st.booleans(),
    )
    def test_random_programs_identical(self, programs, cg, prc, collect_trace):
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        apps = [
            _random_application(shapes, demands, rotations, prefix=f"t{index}.")[0]
            for index, (shapes, demands, rotations, _) in enumerate(programs)
        ]

        def make_tasks():
            return [
                Task(app.name, app, ISELibrary(app.all_kernels(), budget),
                     make_policy())
                for app, (_, _, _, make_policy) in zip(apps, programs)
            ]

        _identical(make_tasks, budget, collect_trace)
