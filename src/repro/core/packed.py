"""Packed mirrors of the run-time hot paths.

The object-model selector and ECU walk per-candidate dicts and attribute
chains on every greedy round and every kernel execution -- convenient, but
the dominant cost of a fig8 sweep cell.  This module precompiles the static
side of that work into plain Python ints and tuples (not numpy, which would
silently promote indexed elements to ``numpy.int64``/``float64`` and break
the byte-identity contract of the golden payloads):

:class:`PackedLibrary`
    One immutable packing per :class:`~repro.ise.library.ISELibrary`: every
    implementation keyed by its interned id (``DataPathImpl.uid``, the id
    the fabric state is keyed by), every candidate ISE flattened into a
    tuple of ``(impl id, quantity, is FG, reconfiguration cycles, area)``
    rows, plus the latency staircases, FG rows and profit bounds, the
    per-kernel scan order and the inverted footprint index that drives the
    packed selector's cache invalidation.  Packings are cached per library in a
    :class:`weakref.WeakKeyDictionary`, so a sweep that reuses one library
    across budgets packs once.

:class:`PackedProgram`
    One packing per :class:`~repro.sim.program.Application`: per block
    iteration, a closed-form cursor over the ``(kernel id, length)`` groups
    of the deterministic interleaving -- O(kernels^2) exact integers, no
    per-execution state -- with per-kernel pair tables that let the packed
    engine collapse a whole iteration, or any stretch of groups in which no
    decision can change, into closed-form arithmetic; and the
    offline-profiled trigger instructions per block,
    evaluated on those same pair tables -- the one profile of the
    application that every engine and policy reads.

**When packing is skipped.**  Packing covers only what is provably static:
candidate structure (fixed at library build), and the interleaving/profiled
triggers (fixed at application build).  Everything dynamic -- fabric state,
coverage, reservations, regimes -- stays in the per-call working arrays of
the packed selector / the ECU's regime cache.

The consumers are :meth:`repro.core.selector.ISESelector._select_packed`
and :meth:`repro.sim.simulator.Simulator._run_kernels_packed`; both are
locked to their reference twins (the naive selector, the stepped
simulator loop) by the ``dual-impl-signature`` lint invariant,
the hypothesis identity suites and the golden traces (see
``docs/simulator.md`` for the equivalence argument).  The offline DP
(:class:`repro.core.optimal.OptimalSelector`) reads the same candidate
rows.
"""

from __future__ import annotations

import math
import weakref
from operator import attrgetter, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.datapath import IMPL_NAMES, FabricType
from repro.ise.library import ISELibrary
from repro.sim.program import Application, BlockIteration, FunctionalBlock
from repro.sim.trigger import TriggerInstruction

# --------------------------------------------------------------------------
# library packing
# --------------------------------------------------------------------------


class PackedLibrary:
    """Packed view of one ISE library (see module docstring).

    Candidates are numbered globally (``cid``) in kernel-name iteration
    order of the library, each kernel's block in library candidate order,
    so ``cand_local[cid]`` is exactly the candidate index the object-model
    selector uses for tie-breaking and the inverted index.

    Per candidate ``c``::

        cand_rows[c]      instance rows in reconfiguration order, each
                          (impl id, quantity, is FG, reconfiguration
                          cycles per copy, area units per copy)
        cand_fg_rows[c]   (impl id, quantity) of the FG rows only
        cand_latencies[c] latency staircase (``[0]`` = RISC mode)
        cand_bound[c]     profit bound per execution
        cand_local[c]     candidate index within its kernel

    Implementations are keyed by their interned id
    (``DataPathImpl.uid``, the key of the fabric state).  Ids are
    process-wide, so a library's ids need not be contiguous: ``n_impls``
    bounds them, ``impl_names[i]`` is id i's name and ``users_cids[i]``
    -- the candidates whose footprint holds id i -- is empty for ids of
    other libraries.
    """

    __slots__ = (
        "impl_names",
        "n_impls",
        "n_candidates",
        "kernel_cids",
        "scan_cids",
        "cand_kernel",
        "cand_local",
        "cand_bound",
        "cand_latencies",
        "cand_ise",
        "cand_rows",
        "cand_fg_rows",
        "users_cids",
    )

    def __init__(self, library: ISELibrary):
        self.kernel_cids: Dict[str, Tuple[int, ...]] = {}
        self.scan_cids: Dict[str, Tuple[int, ...]] = {}
        self.cand_kernel: List[str] = []
        self.cand_local: List[int] = []
        self.cand_bound: List[int] = []
        self.cand_latencies: List[Tuple[int, ...]] = []
        self.cand_ise: List[object] = []
        self.cand_rows: List[Tuple[Tuple[int, int, bool, int, int], ...]] = []
        self.cand_fg_rows: List[Tuple[Tuple[int, int], ...]] = []

        for kernel_name in library.kernel_names():
            cids: List[int] = []
            for local, ise in enumerate(library.candidate_tuple(kernel_name)):
                cids.append(len(self.cand_kernel))
                self.cand_kernel.append(kernel_name)
                self.cand_local.append(local)
                self.cand_bound.append(ise.profit_bound_per_execution)
                self.cand_latencies.append(ise.latencies)
                self.cand_ise.append(ise)
                rows = []
                for inst in ise.instances:
                    impl = inst.impl
                    rows.append((
                        impl.uid,
                        inst.quantity,
                        impl.fabric is FabricType.FG,
                        impl.reconfig_cycles,
                        impl.area,
                    ))
                self.cand_rows.append(tuple(rows))
                self.cand_fg_rows.append(
                    tuple((uid, qty) for uid, qty, fg, _, _ in rows if fg)
                )
            self.kernel_cids[kernel_name] = tuple(cids)
            # The packed selector scans each kernel's candidates by
            # (-profit bound, candidate index); the ordering is static, so
            # bake it in here.
            self.scan_cids[kernel_name] = tuple(
                sorted(cids, key=lambda c: (-self.cand_bound[c], self.cand_local[c]))
            )

        self.n_impls = 1 + max(
            (row[0] for rows in self.cand_rows for row in rows), default=-1
        )
        self.impl_names: List[str] = IMPL_NAMES[:self.n_impls]
        self.n_candidates = len(self.cand_kernel)
        # Inverted index: impl id -> every cid whose footprint contains it
        # (the candidates a commit touching that data path can perturb).
        users: List[List[int]] = [[] for _ in range(self.n_impls)]
        for cid, rows in enumerate(self.cand_rows):
            for row in rows:
                users[row[0]].append(cid)
        self.users_cids: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(cids) for cids in users
        )

    # ------------------------------------------------------------ readback
    # Row-wise unpacking, used by the pack/unpack round-trip property tests:
    # every structure below must reproduce the object model *exactly* (same
    # values, same order, no float anywhere near).

    def unpack_rows(self, cid: int) -> List[Tuple[str, int, FabricType, int]]:
        """Candidate ``cid``'s instance rows -- mirrors ``ISE.instance_rows``."""
        return [
            (
                self.impl_names[uid],
                qty,
                FabricType.FG if fg else FabricType.CG,
                reconfig,
            )
            for uid, qty, fg, reconfig, _ in self.cand_rows[cid]
        ]

    def unpack_areas(self, cid: int) -> List[int]:
        """Per-row implementation areas, in reconfiguration order."""
        return [row[4] for row in self.cand_rows[cid]]

    def unpack_footprint(self, cid: int) -> frozenset:
        """Candidate ``cid``'s footprint -- mirrors ``ISE.footprint``."""
        return frozenset(self.impl_names[row[0]] for row in self.cand_rows[cid])

    def unpack_latencies(self, cid: int) -> Tuple[int, ...]:
        """Candidate ``cid``'s latency staircase -- mirrors ``ISE.latencies``."""
        return self.cand_latencies[cid]

    def unpack_fg_requirements(self, cid: int) -> Tuple[Tuple[str, int], ...]:
        """Candidate ``cid``'s FG rows -- mirrors ``ISE.fg_requirements``."""
        return tuple(
            (self.impl_names[uid], qty) for uid, qty in self.cand_fg_rows[cid]
        )


_LIBRARY_CACHE: "weakref.WeakKeyDictionary[ISELibrary, PackedLibrary]" = (
    weakref.WeakKeyDictionary()
)


def pack_library(library: ISELibrary) -> PackedLibrary:
    """The (cached) packed view of ``library``; packing is pure and the
    library immutable after construction, so one packing serves every
    selector and budget sweep cell touching it."""
    packed = _LIBRARY_CACHE.get(library)
    if packed is None:
        packed = PackedLibrary(library)
        _LIBRARY_CACHE[library] = packed
    return packed


# --------------------------------------------------------------------------
# program packing
# --------------------------------------------------------------------------


def _first_true(lo: int, hi: int, guess: int, pred: Callable[[int], bool]) -> int:
    """The smallest ``c`` in ``[lo, hi)`` with ``pred(c)``, else ``hi``, for a
    ``pred`` that is false and then true: galloping out from ``guess``, then
    bisecting, so a close guess costs a few probes."""
    if lo >= hi:
        return hi
    c = min(max(guess, lo), hi - 1)
    step = 1
    if pred(c):
        hi = c
        while hi - step >= lo and pred(hi - step):
            hi -= step
            step <<= 1
        lo = max(lo, hi - step + 1)
    else:
        lo = c + 1
        while lo + step - 1 < hi and not pred(lo + step - 1):
            lo += step
            step <<= 1
        hi = min(hi, lo + step - 1)
    while lo < hi:
        mid = (lo + hi) >> 1
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class PackedIteration:
    """Closed-form cursor over the interleaving of one block iteration.

    The deterministic interleaving is cut into maximal groups of
    back-to-back executions of one kernel -- exactly the batches the packed
    engine hands to the ECU regime path.  A kernel's gap is constant within
    an iteration, so a group is just ``(kernel id, length)``.  No group is
    materialised: the state is O(kernels^2) and every query below is exact
    integer arithmetic on it.  Kernel ids number the kernels in order of
    first appearance::

        kernels[i]              kernel name of id i
        gaps[i]                 its gap cycles before each execution
        totals[i]               its executions in the iteration
        units[i], slots[i]      its exact integer positions (see below)
        before_first[i*n + i2]  executions of kernel i2 in the groups
                                before kernel i's first group
        through_last[i*n + i2]  executions of kernel i2 in the groups up to
                                and including kernel i's last group

    **Exact integer positions.**  :func:`~repro.sim.program.interleave`
    places the j-th of a kernel's ``e`` executions at ``(j + 0.5) / e``.
    Scaled by ``2L`` (``L`` the lcm of the iteration's counts) that is the
    integer ``(2j + 1) * (L / e)``; with the kernel's name slot (its rank
    in name order) in the low digits, the execution's *key* is
    ``(2j + 1) * units[i] + slots[i]`` with ``units[i] = (L / e) * n_slots``.
    Keys order like the interleaving: equal positions order by name slot,
    which is ``interleave()``'s tie-break, and distinct positions differ by
    at least ``1 / (2 * e1 * e2)`` -- far more than an ulp -- so
    ``interleave()``'s float order is the same order.  Keys of different
    kernels never coincide.  How many of a kernel's executions precede a
    key is a closed form (:meth:`count_before`).

    **The cursor.**  With ``done[i]`` executions of each kernel i behind
    it, the next execution is the smallest of the kernels' next keys, and
    its group runs up to the second-smallest (:meth:`next_group`).  With
    every kernel's period (gap + latency) fixed, the start of kernel i's
    first execution and the end of its last one are linear in the two pair
    tables (:meth:`timeline`) -- what the whole-iteration fold and the
    offline RISC-mode profile evaluate -- and any stretch of whole groups
    folds in closed form (:meth:`fold`).  :attr:`n_groups` counts the
    groups without walking them.
    """

    __slots__ = (
        "kernels",
        "gaps",
        "totals",
        "units",
        "slots",
        "before_first",
        "through_last",
        "_n_groups",
    )

    def __init__(self, iteration: BlockIteration):
        by_name = sorted(
            (kit for kit in iteration.kernels if kit.executions),
            key=attrgetter("kernel"),
        )
        n_slots = len(by_name)
        lcm = math.lcm(*(kit.executions for kit in by_name))
        units = [lcm // kit.executions * n_slots for kit in by_name]
        # First appearance is the order of first keys, units[s] + s.
        order = sorted(range(n_slots), key=lambda slot: units[slot] + slot)
        self.kernels: Tuple[str, ...] = tuple(by_name[slot].kernel for slot in order)
        self.gaps: Tuple[int, ...] = tuple(by_name[slot].gap for slot in order)
        self.totals: Tuple[int, ...] = tuple(by_name[slot].executions for slot in order)
        self.units: Tuple[int, ...] = tuple(units[slot] for slot in order)
        self.slots: Tuple[int, ...] = tuple(order)
        kids = range(n_slots)
        before_first: List[int] = []
        through_last: List[int] = []
        for kid in kids:
            first = self.key(kid, 0)
            last = self.key(kid, self.totals[kid] - 1)
            before_first += [self.count_before(other, first) for other in kids]
            through_last += [self.count_before(other, last + 1) for other in kids]
        self.before_first: Tuple[int, ...] = tuple(before_first)
        self.through_last: Tuple[int, ...] = tuple(through_last)
        self._n_groups: Optional[int] = None

    def key(self, kid: int, index: int) -> int:
        """The exact integer position of kernel ``kid``'s ``index``-th
        execution (class docstring)."""
        return (2 * index + 1) * self.units[kid] + self.slots[kid]

    def count_before(self, kid: int, key: int) -> int:
        """Executions of kernel ``kid`` whose key is below ``key``, for any
        ``0 <= key <= 2 * L * n_slots``: the largest ``c`` with
        ``(2c - 1) * unit + slot < key``, in exact integers."""
        return ((key - self.slots[kid] - 1) // self.units[kid] + 1) >> 1

    def next_group(self, done: Sequence[int]) -> Tuple[int, int]:
        """``(kernel id, length)`` of the group after ``done[i]`` executions
        of each kernel i, which must sit on a group boundary with at least
        one execution left: the kernel with the smallest next key, and how
        many of its executions precede the second-smallest next key."""
        units = self.units
        slots = self.slots
        first = second = None
        kid = -1
        for other, total in enumerate(self.totals):
            index = done[other]
            if index < total:
                key = (2 * index + 1) * units[other] + slots[other]
                if first is None or key < first:
                    second = first
                    first = key
                    kid = other
                elif second is None or key < second:
                    second = key
        if second is None:
            return kid, self.totals[kid] - done[kid]
        return kid, self.count_before(kid, second) - done[kid]

    @property
    def n_groups(self) -> int:
        """How many groups the iteration has, in closed form (cached).

        Keys of different kernels never coincide, so a kernel at least as
        dense as kernel i puts one of its keys between any two of i's:
        every execution of i starts a group.  Only a unique densest kernel
        d runs groups longer than one.  Its first and last keys are the
        iteration's first and last (its units are the smallest), so it has
        one group plus one per gap between consecutive d keys that other
        kernels' keys fall into.  Each sparser kernel has at most one key
        per gap, so with two kernels every sparse key opens a gap of its
        own (O(1)); otherwise the gaps are counted in one pass over the
        sparser kernels' keys.
        """
        if self._n_groups is None:
            totals = self.totals
            densest = max(totals, default=0)
            if totals.count(densest) != 1:
                self._n_groups = sum(totals)
            else:
                d = totals.index(densest)
                sparse = [kid for kid in range(len(totals)) if kid != d]
                if len(sparse) == 1:
                    gaps_hit = totals[sparse[0]]
                else:
                    # Key K falls into the gap after d's first
                    # count_before(d, K) = (K + unit_d - slot_d - 1) // (2 unit_d)
                    # keys.  Kernel i's keys step by 2 unit_i; with g the
                    # gcd of both widths, (a + c * stride) // step equals
                    # (a // g + c * (stride // g)) // (step // g), the same
                    # gap indices as small ints instead of lcm-sized ones.
                    step = 2 * self.units[d]
                    shift = self.units[d] - self.slots[d] - 1
                    hit = set()
                    for kid in sparse:
                        stride = 2 * self.units[kid]
                        g = math.gcd(step, stride)
                        start = (self.key(kid, 0) + shift) // g
                        stride //= g
                        hit.update(map((step // g).__rfloordiv__, range(
                            start, start + totals[kid] * stride, stride,
                        )))
                    gaps_hit = len(hit)
                self._n_groups = sum(totals) - densest + 1 + gaps_hit
        return self._n_groups

    def fold(
        self,
        done: Sequence[int],
        periods: Sequence[int],
        limit: float,
    ) -> Tuple[int, List[int], List[int]]:
        """Fold whole groups from the group boundary ``done`` in closed form.

        ``done[i]`` executions of kernel i precede the stretch, which
        begins at offset 0, and every execution of kernel i takes
        ``periods[i]`` cycles (gap + latency).  The stretch ends before the
        first group whose last execution starts at or after offset
        ``limit``; an infinite ``limit`` folds to the end of the iteration.
        Start offsets only grow in key order, so that group is the one
        holding X, the first execution starting at or after ``limit``: per
        owed kernel, the first such execution is found by a linear estimate
        corrected by a galloping search, and X is the earliest of them.

        Returns ``(advance, counts, ends)``: the stretch holds ``counts[i]``
        executions of kernel i (all zero if the current group already
        reaches ``limit``) and takes ``advance`` cycles, and kernel i's last
        execution in it ends at offset ``ends[i]`` (0 where ``counts[i]``
        is 0).

        **The probe.**  The cycles the stretch spends on executions keyed
        below a key K are, summed over the owed kernels i,
        ``(count_before(i, K) - done[i]) * periods[i]``.  Each search step
        evaluates that sum once; the owed kernels' ``(slot + 1, unit,
        done, period)`` terms are gathered once per fold, so a probe is one
        plain loop of integer arithmetic.  A stretch that runs to the end
        of the iteration (an infinite ``limit``, or no execution reaches
        it) needs no probe for its ends: kernel i's last execution is its
        last in the iteration, and ``through_last`` already counts every
        kernel's executions up to it.
        """
        totals = self.totals
        owed = [kid for kid, total in enumerate(totals) if done[kid] < total]
        n = len(self.kernels)
        counts = [0] * n
        ends = [0] * n
        if limit != float("inf"):
            units = self.units
            slots = self.slots
            gaps = self.gaps
            terms = [
                (slots[kid] + 1, units[kid], done[kid], periods[kid]) for kid in owed
            ]

            def offset(key: int) -> int:
                # count_before inlined: this is the searches' probe.
                cycles = 0
                for shift, unit, before, period in terms:
                    cycles += ((((key - shift) // unit + 1) >> 1) - before) * period
                return cycles

            # Each kernel's executions spread evenly over the keys, so
            # offset(key(i, c)) is about (c + 1/2) * whole / totals[i] - behind.
            whole = sum(totals[kid] * periods[kid] for kid in owed)
            behind = sum(done[kid] * periods[kid] for kid in owed)
            x_kid = -1
            x_key = 0
            for kid in owed:
                lo = done[kid]
                hi = totals[kid] if x_kid < 0 else self.count_before(kid, x_key)
                unit = units[kid]
                slot = slots[kid]
                threshold = limit - gaps[kid]
                guess = (
                    int((threshold + behind) * totals[kid] / whole) if whole else lo
                )
                index = _first_true(
                    lo, hi, guess,
                    lambda c: offset((2 * c + 1) * unit + slot) >= threshold,
                )
                if index < hi:
                    x_kid = kid
                    x_key = (2 * index + 1) * unit + slot
            if x_kid >= 0:
                # X's group starts at X's kernel's first key after the last
                # other key below X (key 0: there is none).
                before = 0
                for kid in range(n):
                    if kid != x_kid:
                        below = self.count_before(kid, x_key)
                        if below:
                            before = max(before, self.key(kid, below - 1))
                end_key = self.key(x_kid, self.count_before(x_kid, before))
                for kid in owed:
                    counts[kid] = self.count_before(kid, end_key) - done[kid]
                    if counts[kid]:
                        ends[kid] = offset(
                            self.key(kid, done[kid] + counts[kid] - 1) + 1
                        )
                return sum(map(mul, counts, periods)), counts, ends
        # The stretch runs to the end of the iteration: kernel i's last
        # execution is its last, and through_last counts what precedes it.
        through_last = self.through_last
        for kid in owed:
            counts[kid] = totals[kid] - done[kid]
            row = kid * n
            end = 0
            for other in owed:
                end += (through_last[row + other] - done[other]) * periods[other]
            ends[kid] = end
        return sum(map(mul, counts, periods)), counts, ends

    def timeline(self, period_of: Callable[[int, int], int]) -> Tuple[List[int], List[int], int]:
        """``(first starts, last ends, length)`` as offsets from the
        iteration's start when each execution of kernel ``kid`` takes a
        fixed period (gap + latency).  ``period_of(kid, first start)`` is
        called in id order, once the periods it depends on are known."""
        n = len(self.kernels)
        periods: List[int] = []
        starts: List[int] = []
        for kid in range(n):
            # ``periods`` holds kid entries: map stops at the shorter one.
            row = self.before_first[kid * n:kid * n + n]
            starts.append(self.gaps[kid] + sum(map(mul, row, periods)))
            periods.append(period_of(kid, starts[-1]))
        ends = [
            sum(map(mul, self.through_last[kid * n:kid * n + n], periods))
            for kid in range(n)
        ]
        return starts, ends, sum(map(mul, self.totals, periods))


def _risc_profile(
    block: FunctionalBlock, iterations: Sequence[PackedIteration]
) -> Tuple[TriggerInstruction, ...]:
    """``block``'s offline profile: each kernel's executions, time to first
    execution and time between executions in RISC mode (period = gap + RISC
    latency), summed over the block's iterations in application order and
    averaged (all zero without iterations)."""
    latency = {k.name: k.risc_latency for k in block.kernels}
    sums = {k.name: (0.0, 0.0, 0.0) for k in block.kernels}
    for packed in iterations:
        kernels = packed.kernels
        starts, ends, _ = packed.timeline(
            lambda kid, _start: packed.gaps[kid] + latency[kernels[kid]]
        )
        for name, e, start, end in zip(kernels, packed.totals, starts, ends):
            tb = max(0.0, (end - start - e * latency[name]) / (e - 1)) if e > 1 else 0.0
            e_sum, tf_sum, tb_sum = sums[name]
            sums[name] = (e_sum + float(e), tf_sum + float(start), tb_sum + tb)
    n = max(1, len(iterations))
    # Sums of counts, start offsets and clamped gaps: non-negative numbers.
    return tuple(
        TriggerInstruction.trusted(name, e / n, tf / n, tb / n)
        for name, (e, tf, tb) in sums.items()
    )


class PackedProgram:
    """Per-application packing: the offline profile plus packed iterations.

    ``iterations[i]`` packs ``application.iterations[i]``; the simulator
    zips the two sequences.  ``profiled[block]`` holds the block's RISC-mode
    trigger instructions, evaluated with :meth:`PackedIteration.timeline`.
    They model numbers burnt into the binary at compile time -- a pure
    function of the application -- so this one cached profile serves both
    engines and every policy (through ``Application.profiled_triggers``).
    """

    __slots__ = ("profiled", "iterations")

    def __init__(self, application: Application):
        self.iterations: List[PackedIteration] = [
            PackedIteration(iteration) for iteration in application.iterations
        ]
        self.profiled: Dict[str, Tuple[TriggerInstruction, ...]] = {
            block.name: _risc_profile(block, [
                packed
                for iteration, packed in zip(application.iterations, self.iterations)
                if iteration.block == block.name
            ])
            for block in application.blocks
        }


_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Application, PackedProgram]" = (
    weakref.WeakKeyDictionary()
)


def pack_program(application: Application) -> PackedProgram:
    """The (cached) packed view of ``application``."""
    packed = _PROGRAM_CACHE.get(application)
    if packed is None:
        packed = PackedProgram(application)
        _PROGRAM_CACHE[application] = packed
    return packed


__all__ = [
    "PackedIteration",
    "PackedLibrary",
    "PackedProgram",
    "pack_library",
    "pack_program",
]
