"""Pack/unpack round trips: the packed arrays are a lossless mirror.

The packed selector/engine only ever *read* the structure-of-arrays views
built by :mod:`repro.core.packed`, so the whole byte-identity contract
rests on packing being exact: every instance row, footprint, latency
staircase, FG requirement and profit bound read back from the arrays must
equal the object model bit-for-bit (integers stay integers -- no float
creeps in), and :func:`repro.core.profit.profit_value` must be bit-equal
to the :func:`~repro.core.profit.ise_profit` breakdown it shortcuts.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packed import (
    PackedIteration,
    pack_library,
    pack_program,
)
from repro.core.profit import ise_profit, profit_value
from repro.fabric.datapath import DataPathSpec
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary
from repro.sim.program import (
    Application,
    BlockIteration,
    FunctionalBlock,
    KernelIteration,
    interleave,
)
from repro.workloads.h264 import deblocking_library, h264_library
from repro.workloads.jpeg import jpeg_library


# ----------------------------------------------------------- strategies


def _spec(kernel_name, index, params):
    word_ops, bit_ops, mem_bytes, fg_depth, sw_cycles, invocations = params
    return DataPathSpec(
        name=f"{kernel_name}.dp{index}",
        word_ops=word_ops,
        bit_ops=bit_ops,
        mem_bytes=mem_bytes,
        fg_depth=fg_depth,
        sw_cycles=sw_cycles,
        invocations=invocations,
    )


datapath_params = st.tuples(
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=4, max_value=64),
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=60, max_value=600),
    st.integers(min_value=1, max_value=12),
)

kernel_shapes = st.lists(
    st.lists(datapath_params, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)


def _library(shapes, cg, prc):
    kernels = [
        Kernel(
            f"k{k_index}",
            base_cycles=100,
            datapaths=[
                _spec(f"k{k_index}", d_index, params)
                for d_index, params in enumerate(datapaths)
            ],
        )
        for k_index, datapaths in enumerate(shapes)
    ]
    budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
    return ISELibrary(kernels, budget)


def _workload_libraries():
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=1)
    return {
        "deblocking": deblocking_library(budget),
        "h264": h264_library(budget),
        "jpeg": jpeg_library(budget),
    }


# ----------------------------------------------------- library round trip


def _assert_library_round_trip(library):
    packed = pack_library(library)
    cid = 0
    for kernel_name in library.kernel_names():
        candidates = library.candidate_tuple(kernel_name)
        assert packed.kernel_cids[kernel_name] == tuple(
            range(cid, cid + len(candidates))
        )
        # The baked-in scan order is the per-call sort the incremental
        # selector performs: by (-profit bound, candidate index).
        assert packed.scan_cids[kernel_name] == tuple(
            sorted(
                packed.kernel_cids[kernel_name],
                key=lambda c: (-packed.cand_bound[c], packed.cand_local[c]),
            )
        )
        for local, ise in enumerate(candidates):
            assert packed.cand_kernel[cid] == kernel_name
            assert packed.cand_local[cid] == local
            assert packed.cand_ise[cid] is ise
            assert packed.cand_bound[cid] == ise.profit_bound_per_execution
            assert packed.cand_latencies[cid] == ise.latencies
            assert packed.unpack_latencies(cid) == ise.latencies
            assert packed.unpack_rows(cid) == list(ise.instance_rows)
            assert packed.unpack_areas(cid) == [
                inst.impl.area for inst in ise.instances
            ]
            assert packed.unpack_footprint(cid) == ise.footprint
            assert packed.unpack_fg_requirements(cid) == tuple(
                ise.fg_requirements
            )
            # No float leaked into any integer array.
            for value in packed.unpack_latencies(cid):
                assert type(value) is int
            for name, qty, _, reconfig in packed.unpack_rows(cid):
                assert type(qty) is int and type(reconfig) is int
            cid += 1
    assert packed.n_candidates == cid

    # The inverted index is ISELibrary.ises_sharing, candidate-id shaped:
    # every interned implementation maps to exactly the candidates whose
    # footprint contains it.
    for impl_id, impl_name in enumerate(packed.impl_names):
        expected = tuple(
            c
            for c in range(packed.n_candidates)
            if impl_name in packed.unpack_footprint(c)
        )
        assert packed.users_cids[impl_id] == expected


class TestLibraryRoundTrip:
    @pytest.mark.parametrize("workload", sorted(_workload_libraries()))
    def test_workload_libraries(self, workload):
        _assert_library_round_trip(_workload_libraries()[workload])

    @settings(max_examples=50, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
    )
    def test_random_libraries(self, shapes, cg, prc):
        _assert_library_round_trip(_library(shapes, cg, prc))

    def test_packing_is_cached_per_library(self):
        library = _workload_libraries()["deblocking"]
        assert pack_library(library) is pack_library(library)

    def test_distinct_libraries_pack_separately(self):
        libraries = _workload_libraries()
        assert pack_library(libraries["deblocking"]) is not pack_library(
            libraries["jpeg"]
        )


# ------------------------------------------------------- profit shortcut


class TestProfitValue:
    @settings(max_examples=100, deadline=None)
    @given(
        shapes=kernel_shapes,
        e=st.integers(min_value=0, max_value=500),
        tf=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        tb=st.floats(min_value=0, max_value=500, allow_nan=False),
        schedule_seed=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_bit_equal_to_ise_profit(
        self, shapes, e, tf, tb, schedule_seed, data
    ):
        """``profit_value(latencies, ...)`` is the breakdown-free shortcut
        the packed selector runs per candidate: it must be *bit-equal* to
        ``ise_profit(...).profit`` -- same operations in the same order, so
        not even the last ulp may differ."""
        library = _library(shapes, 2, 2)
        packed = pack_library(library)
        for cid in range(packed.n_candidates):
            ise = packed.cand_ise[cid]
            # A monotone schedule of the right length (one entry per
            # upgrade level), as predict_recT would emit.
            schedule = sorted(schedule_seed)[: max(0, len(ise.latencies) - 1)]
            while len(schedule) < len(ise.latencies) - 1:
                schedule.append(schedule[-1] if schedule else 0.0)
            expected = ise_profit(
                ise, e=e, tf=tf, tb=tb, rec_schedule=schedule
            ).profit
            actual = profit_value(
                packed.unpack_latencies(cid), schedule, e, tf, tb
            )
            assert actual == expected  # bit-equal, not approx
            assert math.copysign(1.0, actual) == math.copysign(1.0, expected)


# ------------------------------------------------------ program round trip


iteration_params = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=4,
)


def _application(shapes, demand_cycles):
    kernels = [
        Kernel(
            f"k{k_index}",
            base_cycles=100,
            datapaths=[
                _spec(f"k{k_index}", d_index, params)
                for d_index, params in enumerate(datapaths)
            ],
        )
        for k_index, datapaths in enumerate(shapes)
    ]
    block = FunctionalBlock("B", kernels)
    iterations = [
        BlockIteration(
            "B",
            [
                KernelIteration(k.name, executions, gap)
                for k, (executions, gap) in zip(kernels, cycle)
            ],
        )
        for cycle in demand_cycles
    ]
    return Application("rand", [block], iterations)


def _assert_iteration_round_trip(iteration):
    packed = PackedIteration(iteration)
    steps = interleave(iteration.kernels)
    kernels = packed.kernels
    n = len(kernels)
    runs = [
        (kernels[kid], length)
        for kid, length in zip(packed.run_kernel, packed.run_length)
    ]

    # Kernel ids number the kernels in order of first appearance, each
    # with the one gap it has in the iteration.
    assert list(kernels) == list(dict.fromkeys(k for k, _ in steps))
    assert len(packed.gaps) == len(packed.totals) == n
    # RLE is lossless: expanding the groups reproduces the interleaving.
    expanded = [
        (kernel_name, packed.gaps[kernels.index(kernel_name)])
        for kernel_name, length in runs
        for _ in range(length)
    ]
    assert expanded == steps
    # ... and maximal: adjacent groups never share a kernel.
    for (k1, _), (k2, _) in zip(runs, runs[1:]):
        assert k1 != k2

    # The pair tables agree with direct summation over the groups.
    for kid, kernel_name in enumerate(kernels):
        assert packed.totals[kid] == sum(1 for name, _ in steps if name == kernel_name)
        first = min(j for j, (name, _) in enumerate(runs) if name == kernel_name)
        last = max(j for j, (name, _) in enumerate(runs) if name == kernel_name)
        for kid2, other in enumerate(kernels):
            assert packed.before_first[kid * n + kid2] == sum(
                length for name, length in runs[:first] if name == other
            )
            assert packed.through_last[kid * n + kid2] == sum(
                length for name, length in runs[: last + 1] if name == other
            )


class TestProgramRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        shapes=kernel_shapes,
        demands=st.lists(iteration_params, min_size=1, max_size=3),
    )
    def test_random_iterations(self, shapes, demands):
        application = _application(
            shapes, [cycle[: len(shapes)] or cycle for cycle in demands]
        )
        program = pack_program(application)
        assert len(program.iterations) == len(application.iterations)
        assert program.profiled == {
            block.name: application.profiled_triggers(block.name)
            for block in application.blocks
        }
        for iteration in application.iterations:
            _assert_iteration_round_trip(iteration)

    def test_packing_is_cached_per_application(self):
        application = _application(
            [[(8, 16, 16, 4, 200, 4)]], [[(4, 10)]]
        )
        assert pack_program(application) is pack_program(application)
