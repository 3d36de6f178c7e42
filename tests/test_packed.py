"""Pack/unpack round trips: the packed arrays are a lossless mirror.

The packed selector/engine only ever *read* the structure-of-arrays views
built by :mod:`repro.core.packed`, so the whole byte-identity contract
rests on packing being exact: every instance row, footprint, latency
staircase, FG requirement and profit bound read back from the arrays must
equal the object model bit-for-bit (integers stay integers -- no float
creeps in), and :func:`repro.core.profit.profit_value` must be bit-equal
to the :func:`~repro.core.profit.ise_profit` breakdown it shortcuts.
"""

import heapq
import math
import random
import tracemalloc
from array import array
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import packed as packed_module
from repro.core.packed import (
    PackedIteration,
    pack_library,
    pack_program,
)
from repro.core.profit import ise_profit, profit_value
from repro.fabric.datapath import DataPathSpec
from repro.fabric.resources import ResourceBudget
from repro.ise.kernel import Kernel
from repro.experiments import engine as engine_module
from repro.experiments.engine import SweepCell, execute_cell
from repro.ise.library import ISELibrary
from repro.sim.program import (
    Application,
    BlockIteration,
    FunctionalBlock,
    KernelIteration,
    interleave,
)
from repro.sim.trigger import TriggerInstruction
from repro.workloads.h264 import (
    deblocking_application,
    deblocking_library,
    h264_application,
    h264_library,
)
from repro.workloads.jpeg import jpeg_application, jpeg_library


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

    # The inverted index: every interned implementation maps to exactly
    # the candidates whose footprint contains it.
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


def _groups(iteration):
    """The reference group walk: :func:`interleave`'s steps cut into
    maximal runs of one kernel, as ``(kernel name, length)``."""
    steps = (name for name, _ in interleave(iteration.kernels))
    return [(name, sum(1 for _ in run)) for name, run in groupby(steps)]


def _cursor_walk(packed):
    """Every group the cursor yields, ``(kernel id, length)``, driving
    :meth:`PackedIteration.next_group` from its own ``done`` counts."""
    done = [0] * len(packed.kernels)
    walked = []
    while done != list(packed.totals):
        kid, length = packed.next_group(done)
        walked.append((kid, length))
        done[kid] += length
    return walked


def _assert_iteration_round_trip(iteration):
    packed = PackedIteration(iteration)
    steps = interleave(iteration.kernels)
    runs = _groups(iteration)
    kernels = packed.kernels
    n = len(kernels)

    # Kernel ids number the kernels in order of first appearance, each
    # with the one gap it has in the iteration.
    assert list(kernels) == list(dict.fromkeys(k for k, _ in steps))
    assert len(packed.gaps) == len(packed.totals) == n
    assert list(packed.gaps) == [dict(steps)[name] for name in kernels]
    # The cursor walks exactly the reference groups, and counts them.
    assert [(kernels[kid], length) for kid, length in _cursor_walk(packed)] == runs
    assert packed.n_groups == len(runs)

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


def _risc_timings(block, iteration):
    """(executions, tf, tb) of every kernel of ``block`` when ``iteration``
    runs in RISC mode: the literal walk over :func:`interleave`, one step
    per execution -- the offline profiler the closed form must match."""
    latencies = {k.name: k.risc_latency for k in block.kernels}
    t = 0
    first = {}
    last = {}
    counts = {}
    for kernel_name, gap in interleave(iteration.kernels):
        t += gap
        first.setdefault(kernel_name, t)
        counts[kernel_name] = counts.get(kernel_name, 0) + 1
        t += latencies[kernel_name]
        last[kernel_name] = t
    timings = {}
    for kernel in block.kernels:
        e = counts.get(kernel.name, 0)
        if e == 0:
            timings[kernel.name] = (0.0, 0.0, 0.0)
            continue
        tf = float(first[kernel.name])
        if e > 1:
            span = last[kernel.name] - first[kernel.name]
            gaps_total = span - e * latencies[kernel.name]
            tb = max(0.0, gaps_total / (e - 1))
        else:
            tb = 0.0
        timings[kernel.name] = (float(e), tf, tb)
    return timings


def _oracle_profile(application, block_name):
    """Per-iteration RISC walks averaged over the block's iterations."""
    block = application.block(block_name)
    iterations = application.iterations_of(block_name)
    if not iterations:
        return [TriggerInstruction(k.name, 0.0, 0.0, 0.0) for k in block.kernels]
    sums = {k.name: [0.0, 0.0, 0.0] for k in block.kernels}
    for iteration in iterations:
        for kernel_name, (e, tf, tb) in _risc_timings(block, iteration).items():
            sums[kernel_name][0] += e
            sums[kernel_name][1] += tf
            sums[kernel_name][2] += tb
    n = len(iterations)
    return [
        TriggerInstruction(
            k.name, sums[k.name][0] / n, sums[k.name][1] / n, sums[k.name][2] / n
        )
        for k in block.kernels
    ]


def _assert_profile_matches_oracle(application):
    program = pack_program(application)
    assert list(program.profiled) == [block.name for block in application.blocks]
    for block in application.blocks:
        expected = _oracle_profile(application, block.name)
        # repr equality: every float must match bit for bit.
        assert repr(list(program.profiled[block.name])) == repr(expected)
        assert repr(application.profiled_triggers(block.name)) == repr(expected)


#: Declared in this order, so declaration order, name order and numeric
#: order ("k2" < "k10" numerically, "k10" < "k2" by name) all differ.
_KERNEL_NAMES = ("k2", "k0", "k10", "k1", "k11")

#: Few distinct execution counts: equal counts put executions of different
#: kernels at exactly equal positions, and so do counts like 1 and 3
#: (both have one at 0.5).  Zero keeps a listed kernel out of the walk.
_EXECUTIONS = st.sampled_from((0, 1, 2, 3, 4, 6, 12, 40))


@st.composite
def programs(draw):
    """Applications of one to three blocks over :data:`_KERNEL_NAMES`.

    Blocks may have no iterations; an iteration lists any subset of its
    block's kernels, in any order.
    """
    n_blocks = draw(st.integers(min_value=1, max_value=3))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=len(_KERNEL_NAMES) - 1),
                min_size=n_blocks - 1,
                max_size=n_blocks - 1,
                unique=True,
            )
        )
    )
    bounds = list(zip([0] + cuts, cuts + [len(_KERNEL_NAMES)]))
    blocks = [
        FunctionalBlock(
            f"B{index}",
            [
                Kernel(
                    name,
                    base_cycles=draw(st.integers(min_value=0, max_value=300)),
                    datapaths=[_spec(name, 0, draw(datapath_params))],
                )
                for name in _KERNEL_NAMES[lo:hi]
            ],
        )
        for index, (lo, hi) in enumerate(bounds)
    ]
    iterations = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        block = draw(st.sampled_from(blocks))
        names = draw(
            st.lists(
                st.sampled_from(block.kernel_names()),
                min_size=1,
                max_size=len(block.kernels),
                unique=True,
            )
        )
        iterations.append(
            BlockIteration(
                block.name,
                [
                    KernelIteration(
                        name,
                        draw(_EXECUTIONS),
                        draw(st.integers(min_value=0, max_value=200)),
                    )
                    for name in names
                ],
            )
        )
    return Application("rand", blocks, iterations)


class TestProgramRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(application=programs())
    def test_random_iterations(self, application):
        program = pack_program(application)
        assert len(program.iterations) == len(application.iterations)
        for iteration in application.iterations:
            _assert_iteration_round_trip(iteration)
        _assert_profile_matches_oracle(application)

    def test_position_ties_break_by_name(self):
        # Equal counts tie at every position; "k10" sorts before "k2".
        iteration = BlockIteration(
            "B",
            [
                KernelIteration("k2", 3, 5),
                KernelIteration("k10", 3, 7),
                KernelIteration("k1", 1, 9),
            ],
        )
        _assert_iteration_round_trip(iteration)
        packed = PackedIteration(iteration)
        # Positions 1/6 (k10, k2), 1/2 (k1, k10, k2), 5/6 (k10, k2).
        assert packed.kernels == ("k10", "k2", "k1")
        assert [kid for kid, _ in _cursor_walk(packed)] == [0, 1, 2, 0, 1, 0, 1]
        assert packed.n_groups == 7

    @pytest.mark.parametrize(
        "workload, seed",
        [
            ("h264", 7),
            ("h264", 11),
            ("h264", 3),
            ("jpeg", 0),
            ("jpeg", 5),
            ("deblocking", 7),
            ("deblocking", 2),
        ],
    )
    def test_workload_profiles_match_oracle(self, workload, seed):
        build = {
            "h264": lambda: h264_application(frames=8, seed=seed),
            "jpeg": lambda: jpeg_application(seed=seed),
            "deblocking": lambda: deblocking_application(frames=8, seed=seed),
        }[workload]
        _assert_profile_matches_oracle(build())

    def test_packing_is_cached_per_application(self):
        application = _application(
            [[(8, 16, 16, 4, 200, 4)]], [[(4, 10)]]
        )
        assert pack_program(application) is pack_program(application)


class TestOneProfilePerApplication:
    def test_fig8_group_packs_once(self, monkeypatch):
        """The five policies of a fig8 group share one application -- and
        so one packing, whose profile every static policy's prepare reads."""
        constructed = []

        class CountingProgram(packed_module.PackedProgram):
            def __init__(self, application):
                constructed.append(application)
                super().__init__(application)

        monkeypatch.setattr(packed_module, "PackedProgram", CountingProgram)
        engine_module.clear_build_memo()
        for policy in ("risc", "rispp", "offline-optimal", "morpheus4s", "mrts"):
            execute_cell(
                SweepCell.make((2, 1), 7, policy, workload_params={"frames": 2})
            )
        assert len(constructed) == 1

    def test_returned_profile_is_a_fresh_list(self):
        application = h264_application(frames=2, seed=7)
        block = application.blocks[0].name
        before = application.profiled_triggers(block)
        expected = repr(before)
        before[0] = TriggerInstruction(before[0].kernel, 1e9, 1e9, 1e9)
        before.append(before[0])
        assert repr(application.profiled_triggers(block)) == expected

    def test_mutation_cannot_reach_a_rerun_record(self):
        engine_module.clear_build_memo()
        cell = SweepCell.make(
            (2, 1), 7, "offline-optimal", workload_params={"frames": 2}
        )
        record = execute_cell(cell)
        application = engine_module._application_of(cell)
        for block in application.blocks:
            triggers = application.profiled_triggers(block.name)
            triggers.reverse()
            triggers[:] = [t.with_forecast(0.0, 0.0, 0.0) for t in triggers]
        assert execute_cell(cell) == record


# --------------------------------------------- exact integer positions


#: Primes above 1100: any four of them have an lcm above 2**40.
_LARGE_PRIMES = (1103, 1201, 1301, 1409, 1511, 1601, 1709, 1801, 1901, 2003)

#: Names whose sort order differs from any declaration order drawn below.
_POSITION_NAMES = ("k2", "k10", "a", "k1", "b0", "Z")


@st.composite
def position_iterations(draw):
    """One iteration from one of four families: exact ties (``e1 = m *
    e2`` and equal counts), coprime large counts (lcm above 2**40),
    zero-count kernels, and free counts -- always in a drawn declaration
    order, so name order and declaration order differ."""
    family = draw(st.sampled_from(("ties", "coprime", "zeros", "free")))
    n = draw(st.integers(min_value=2, max_value=4 if family == "coprime" else 5))
    names = draw(st.permutations(_POSITION_NAMES))[:n]
    if family == "ties":
        base = draw(st.integers(min_value=1, max_value=12))
        counts = [base * draw(st.sampled_from((1, 1, 2, 3, 4))) for _ in names]
    elif family == "coprime":
        counts = draw(st.permutations(_LARGE_PRIMES))[:n]
        if n == 4:
            assert math.lcm(*counts) > 2**40
    else:
        low = 0 if family == "zeros" else 1
        counts = [draw(st.integers(min_value=low, max_value=30)) for _ in names]
    return BlockIteration(
        "B",
        [
            KernelIteration(name, e, draw(st.integers(min_value=0, max_value=9)))
            for name, e in zip(names, counts)
        ],
    )


class TestIntegerPositions:
    @settings(max_examples=60, deadline=None)
    @given(iteration=position_iterations(), data=st.data())
    def test_positions_match_interleave(self, iteration, data):
        packed = PackedIteration(iteration)
        steps = [name for name, _ in interleave(iteration.kernels)]
        kernels = packed.kernels
        # The cursor's groups expand to interleave()'s order, and each
        # group's first key is its kernel's next key.
        expanded = []
        for kid, length in _cursor_walk(packed):
            index = expanded.count(kernels[kid])
            assert packed.count_before(kid, packed.key(kid, index)) == index
            expanded += [kernels[kid]] * length
        # Report the first divergence, not a diff of two long sequences.
        assert len(expanded) == len(steps)
        assert next(
            (i for i, pair in enumerate(zip(expanded, steps)) if pair[0] != pair[1]),
            None,
        ) is None
        # Keys sort like interleave()'s (float position, name) pairs.
        floats = {
            kid: [(j + 0.5) / packed.totals[kid] for j in range(packed.totals[kid])]
            for kid in range(len(kernels))
        }
        queries = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(steps) - 1), max_size=12)
            if steps else st.just([])
        )
        for step in queries:
            kid = kernels.index(steps[step])
            index = steps[:step].count(steps[step])
            key = packed.key(kid, index)
            here = (floats[kid][index], kernels[kid])
            for other in range(len(kernels)):
                below = sum(
                    1 for position in floats[other] if (position, kernels[other]) < here
                )
                assert packed.count_before(other, key) == below
                through = below + (other == kid)
                assert packed.count_before(other, key + 1) == through

    def test_count_before_spans_the_iteration(self):
        iteration = BlockIteration(
            "B", [KernelIteration(f"k{p}", p, 1) for p in _LARGE_PRIMES[:4]]
        )
        packed = PackedIteration(iteration)
        for kid, total in enumerate(packed.totals):
            assert packed.count_before(kid, 0) == 0
            last = packed.key(kid, total - 1)
            assert packed.count_before(kid, last) == total - 1
            assert packed.count_before(kid, last + 1) == total


def _lcm_sized_group_count(packed):
    """:attr:`PackedIteration.n_groups` as it was first written: every
    sparser kernel's key mapped to the densest kernel's gap index by a
    floor division on the lcm-sized keys themselves."""
    totals = packed.totals
    densest = max(totals, default=0)
    if totals.count(densest) != 1:
        return sum(totals)
    d = totals.index(densest)
    step = 2 * packed.units[d]
    shift = packed.units[d] - packed.slots[d] - 1
    hit = set()
    for kid in range(len(totals)):
        if kid != d:
            hit.update(
                (packed.key(kid, c) + shift) // step for c in range(totals[kid])
            )
    return sum(totals) - densest + 1 + len(hit)


class TestGroupCount:
    @settings(max_examples=80, deadline=None)
    @given(iteration=position_iterations())
    def test_small_int_count_matches_the_lcm_sized_count(self, iteration):
        packed = PackedIteration(iteration)
        assert packed.n_groups == _lcm_sized_group_count(packed)

    def test_large_coprime_counts(self):
        iteration = BlockIteration(
            "B", [KernelIteration(f"k{p}", p, 1) for p in _LARGE_PRIMES[:5]]
        )
        packed = PackedIteration(iteration)
        assert math.lcm(*packed.totals) > 2**40
        assert packed.n_groups == _lcm_sized_group_count(packed)
        assert packed.n_groups == len(_groups(iteration))


# ---------------------------------------------------------- stretch fold


def _walk_fold(packed, runs, j, periods, limit):
    """The literal walk :meth:`PackedIteration.fold` shortcuts: expand
    the reference groups ``runs`` (kernel id, length) from group ``j`` one
    execution at a time and stop before the first group with an execution
    starting at or after ``limit``; ``(advance, counts, ends)``."""
    n = len(packed.kernels)
    counts = [0] * n
    ends = [0] * n
    t = 0
    for g in range(j, len(runs)):
        kid, length = runs[g]
        starts = []
        for _ in range(length):
            starts.append(t + packed.gaps[kid])
            t = starts[-1] + periods[kid] - packed.gaps[kid]
        if max(starts) >= limit:
            return sum(c * p for c, p in zip(counts, periods)), counts, ends
        counts[kid] += len(starts)
        ends[kid] = t
    return t, counts, ends


class TestStretchFold:
    @settings(max_examples=150, deadline=None)
    @given(application=programs(), data=st.data())
    def test_fold_matches_the_walk(self, application, data):
        for iteration in application.iterations:
            packed = PackedIteration(iteration)
            runs = [
                (packed.kernels.index(name), length)
                for name, length in _groups(iteration)
            ]
            j = data.draw(st.integers(min_value=0, max_value=len(runs)))
            done = [0] * len(packed.kernels)
            for kid, length in runs[:j]:
                done[kid] += length
            periods = [
                gap + data.draw(st.integers(min_value=1, max_value=40))
                for gap in packed.gaps
            ]
            # Aim the limit at execution starts: equality is the edge.
            span, _, _ = _walk_fold(packed, runs, j, periods, float("inf"))
            limit = data.draw(
                st.just(float("inf"))
                | st.integers(min_value=-1, max_value=span + 1).map(float)
            )
            assert packed.fold(done, periods, limit) == _walk_fold(
                packed, runs, j, periods, limit
            )

    def test_start_on_the_limit_is_not_folded(self):
        # k0 and k1 alternate with period 10 (gap 0): executions start at
        # 0, 10, 20, ...; a limit equal to a start cuts before its group.
        iteration = BlockIteration(
            "B", [KernelIteration("k0", 3, 0), KernelIteration("k1", 3, 0)]
        )
        packed = PackedIteration(iteration)
        assert [length for _, length in _cursor_walk(packed)] == [1] * 6
        periods = [10, 10]
        assert packed.fold([0, 0], periods, 30.0)[1] == [2, 1]
        assert packed.fold([0, 0], periods, 31.0)[1] == [2, 2]
        assert packed.fold([1, 1], periods, 10.0) == (10, [1, 0], [10, 0])


# ------------------------------------------------ no per-execution work


def _positions(kit):
    """One kernel's :func:`interleave` sort keys, ``(position, name)``."""
    e = kit.executions
    return (((j + 0.5) / e, kit.kernel) for j in range(e))


def _streamed_groups(packed, iteration):
    """The reference group walk of a huge iteration in compact arrays:
    every kernel's :func:`interleave` sort keys merged lazily (the same
    order as its one sort, in O(kernels) memory), cut into maximal runs."""
    kid_of = {name: kid for kid, name in enumerate(packed.kernels)}
    kids = array("B")
    lengths = array("I")
    merged = heapq.merge(*(_positions(kit) for kit in iteration.kernels))
    for name, run in groupby(merged, key=itemgetter(1)):
        kids.append(kid_of[name])
        lengths.append(sum(1 for _ in run))
    return kids, lengths


#: ~1.5M executions in two kernels, and ~10^6 in seven whose lcm is
#: above 2**40 (distinct primes); the densest kernel is unique in both,
#: so ``n_groups`` takes its counting path.
HUGE_ITERATIONS = {
    "two-kernels": ((999_983, 3), (499_979, 11)),
    "seven-kernels": (
        (400_009, 2), (200_003, 5), (150_001, 0), (100_003, 7),
        (80_021, 1), (50_021, 4), (20_011, 9),
    ),
}


class TestNoPerExecutionWork:
    @pytest.mark.parametrize("case", sorted(HUGE_ITERATIONS))
    def test_huge_iterations_pack_in_fixed_memory(self, case):
        iteration = BlockIteration(
            "B",
            [
                KernelIteration(f"k{index}", e, gap)
                for index, (e, gap) in enumerate(HUGE_ITERATIONS[case])
            ],
        )
        tracemalloc.start()
        try:
            packed = PackedIteration(iteration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**10, f"packing peaked at {peak} bytes"
        if case == "seven-kernels":
            assert math.lcm(*packed.totals) > 2**40

        kids, lengths = _streamed_groups(packed, iteration)
        assert packed.n_groups == len(kids)
        rng = random.Random(case)
        n = len(packed.kernels)
        periods = [gap + rng.randint(1, 40) for gap in packed.gaps]
        samples = set(rng.sample(range(len(kids)), 40)) | {0, len(kids) - 1}
        done = [0] * n
        for j, (kid, length) in enumerate(zip(kids, lengths)):
            if j in samples:
                assert packed.next_group(done) == (kid, length), j
                # A limit no later than the last group of a 100-group
                # window starts, so the fold stops inside the window.
                window = [
                    (kids[g], lengths[g]) for g in range(j, min(j + 100, len(kids)))
                ]
                span, _, _ = _walk_fold(packed, window[:-1], 0, periods, float("inf"))
                limit = float(rng.randint(-1, span))
                assert packed.fold(done, periods, limit) == _walk_fold(
                    packed, window, 0, periods, limit
                ), j
            done[kid] += length
        assert done == list(packed.totals)
        # An infinite limit folds the rest of the iteration.
        start = len(kids) - 500
        done = [
            total - sum(length for k, length in zip(kids[start:], lengths[start:]) if k == kid)
            for kid, total in enumerate(packed.totals)
        ]
        tail = list(zip(kids[start:], lengths[start:]))
        assert packed.fold(done, periods, float("inf")) == _walk_fold(
            packed, tail, 0, periods, float("inf")
        )
