"""Packed structure-of-arrays mirrors of the run-time hot paths.

The object-model selector and ECU walk per-candidate dicts and attribute
chains on every greedy round and every kernel execution -- convenient, but
the dominant cost of a fig8 sweep cell.  This module precompiles the static
side of that work into flat parallel arrays (stdlib :mod:`array` -- numpy
would silently promote indexed elements to ``numpy.int64``/``float64`` and
break the byte-identity contract of the golden payloads):

:class:`PackedLibrary`
    One immutable packing per :class:`~repro.ise.library.ISELibrary`: every
    qualified implementation name interned to a dense integer id, every
    candidate ISE flattened into ``(row_impl, row_qty, row_fg, row_reconfig,
    row_area)`` slices of shared arrays, plus the latency staircases, FG
    requirements, footprints, profit bounds and the scan order / inverted
    index the incremental selector derives per call today.  Packings are
    cached per library in a :class:`weakref.WeakKeyDictionary`, so a sweep
    that reuses one library across budgets packs once.

:class:`PackedProgram`
    One packing per :class:`~repro.sim.program.Application`: the profiled
    trigger instructions per block and, per block iteration, the
    run-length-encoded ``(kernel id, length)`` groups of the deterministic
    interleaving in compact typed arrays, plus per-kernel pair tables that
    let the packed engine collapse a whole iteration (or its suffix) into
    O(kernels) arithmetic once no remaining decision can change.

**When packing is skipped.**  Packing covers only what is provably static:
candidate structure (fixed at library build), and the interleaving/profiled
triggers (fixed at application build).  Everything dynamic -- fabric state,
coverage, reservations, regimes -- stays in the per-call working arrays of
the packed selector / the ECU's regime cache.

The consumers are :meth:`repro.core.selector.ISESelector._select_packed`
and :meth:`repro.sim.simulator.Simulator._run_kernels_packed`; both are
locked to their reference twins (the naive/incremental selectors, the
stepped simulator loop) by the ``dual-impl-signature`` lint invariant,
the hypothesis identity suites and the golden traces (see
``docs/simulator.md`` for the equivalence argument).
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, List, Sequence, Tuple

from repro.fabric.datapath import FabricType
from repro.ise.library import ISELibrary
from repro.sim.program import Application, BlockIteration, interleave

# --------------------------------------------------------------------------
# library packing
# --------------------------------------------------------------------------


class PackedLibrary:
    """Structure-of-arrays view of one ISE library (see module docstring).

    Candidates are numbered globally (``cid``) in kernel-name iteration
    order of the library, each kernel's block in library candidate order,
    so ``cand_local[cid]`` is exactly the candidate index the object-model
    selector uses for tie-breaking and the inverted index.

    Array schema (``n`` candidates, ``R`` total instance rows)::

        row_start[c] .. row_start[c+1]   candidate c's slice of the row arrays
        row_impl[r]                      interned implementation id
        row_qty[r]                       required quantity
        row_fg[r]                        1 = FG fabric, 0 = CG
        row_reconfig[r]                  reconfiguration cycles per copy
        row_area[r]                      area units per copy

    and analogously ``fgr_*`` (FG requirements), ``lat_*`` (latency
    staircases, ``latencies[0]`` = RISC mode) and ``foot_*`` (footprints,
    impl ids sorted by interned id).
    """

    __slots__ = (
        "impl_ids",
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
        "row_start",
        "row_impl",
        "row_qty",
        "row_fg",
        "row_reconfig",
        "row_area",
        "fgr_start",
        "fgr_impl",
        "fgr_qty",
        "lat_start",
        "lat_flat",
        "foot_start",
        "foot_impl",
        "users_cids",
    )

    def __init__(self, library: ISELibrary):
        self.impl_ids: Dict[str, int] = {}
        self.impl_names: List[str] = []

        def intern(name: str) -> int:
            impl_id = self.impl_ids.get(name)
            if impl_id is None:
                impl_id = len(self.impl_names)
                self.impl_ids[name] = impl_id
                self.impl_names.append(name)
            return impl_id

        self.kernel_cids: Dict[str, Tuple[int, ...]] = {}
        self.scan_cids: Dict[str, Tuple[int, ...]] = {}
        self.cand_kernel: List[str] = []
        self.cand_local: List[int] = []
        self.cand_bound: List[int] = []
        self.cand_latencies: List[Tuple[int, ...]] = []
        self.cand_ise: List[object] = []
        self.row_start = array("q", [0])
        self.row_impl = array("q")
        self.row_qty = array("q")
        self.row_fg = bytearray()
        self.row_reconfig = array("q")
        self.row_area = array("q")
        self.fgr_start = array("q", [0])
        self.fgr_impl = array("q")
        self.fgr_qty = array("q")
        self.lat_start = array("q", [0])
        self.lat_flat = array("q")
        self.foot_start = array("q", [0])
        self.foot_impl = array("q")

        for kernel_name in library.kernel_names():
            cids: List[int] = []
            for local, ise in enumerate(library.candidate_tuple(kernel_name)):
                cid = len(self.cand_kernel)
                cids.append(cid)
                self.cand_kernel.append(kernel_name)
                self.cand_local.append(local)
                self.cand_bound.append(ise.profit_bound_per_execution)
                self.cand_latencies.append(ise.latencies)
                self.cand_ise.append(ise)
                for name, qty, fabric, reconfig in ise.instance_rows:
                    self.row_impl.append(intern(name))
                    self.row_qty.append(qty)
                    self.row_fg.append(1 if fabric is FabricType.FG else 0)
                    self.row_reconfig.append(reconfig)
                self.row_area.extend(
                    inst.impl.area for inst in ise.instances
                )
                self.row_start.append(len(self.row_impl))
                for name, qty in ise.fg_requirements:
                    self.fgr_impl.append(self.impl_ids[name])
                    self.fgr_qty.append(qty)
                self.fgr_start.append(len(self.fgr_impl))
                self.lat_flat.extend(ise.latencies)
                self.lat_start.append(len(self.lat_flat))
                self.foot_impl.extend(
                    sorted(self.impl_ids[name] for name in ise.footprint)
                )
                self.foot_start.append(len(self.foot_impl))
            self.kernel_cids[kernel_name] = tuple(cids)
            # The incremental selector sorts each kernel's candidates by
            # (-profit bound, candidate index) once per select() call; the
            # ordering is static, so bake it in here.
            self.scan_cids[kernel_name] = tuple(
                sorted(cids, key=lambda c: (-self.cand_bound[c], self.cand_local[c]))
            )

        self.n_impls = len(self.impl_names)
        self.n_candidates = len(self.cand_kernel)
        # Inverted index (the packed twin of ISELibrary.ises_sharing):
        # impl id -> every cid whose footprint contains it.
        users: List[List[int]] = [[] for _ in range(self.n_impls)]
        for cid in range(self.n_candidates):
            for position in range(self.foot_start[cid], self.foot_start[cid + 1]):
                users[self.foot_impl[position]].append(cid)
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
                self.impl_names[self.row_impl[r]],
                self.row_qty[r],
                FabricType.FG if self.row_fg[r] else FabricType.CG,
                self.row_reconfig[r],
            )
            for r in range(self.row_start[cid], self.row_start[cid + 1])
        ]

    def unpack_areas(self, cid: int) -> List[int]:
        """Per-row implementation areas, in reconfiguration order."""
        return list(self.row_area[self.row_start[cid]:self.row_start[cid + 1]])

    def unpack_footprint(self, cid: int) -> frozenset:
        """Candidate ``cid``'s footprint -- mirrors ``ISE.footprint``."""
        return frozenset(
            self.impl_names[self.foot_impl[p]]
            for p in range(self.foot_start[cid], self.foot_start[cid + 1])
        )

    def unpack_latencies(self, cid: int) -> Tuple[int, ...]:
        """Candidate ``cid``'s latency staircase -- mirrors ``ISE.latencies``."""
        return tuple(self.lat_flat[self.lat_start[cid]:self.lat_start[cid + 1]])

    def unpack_fg_requirements(self, cid: int) -> Tuple[Tuple[str, int], ...]:
        """Candidate ``cid``'s FG rows -- mirrors ``ISE.fg_requirements``."""
        return tuple(
            (self.impl_names[self.fgr_impl[p]], self.fgr_qty[p])
            for p in range(self.fgr_start[cid], self.fgr_start[cid + 1])
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


def _compact(values: Sequence[int]) -> array:
    """``values`` in the narrowest unsigned typed array that holds them."""
    top = max(values, default=0)
    for typecode in ("B", "H", "I"):
        if top < 1 << (8 * array(typecode).itemsize):
            return array(typecode, values)
    return array("Q", values)


class PackedIteration:
    """Compact run-length encoding of one block iteration.

    The deterministic interleaving is cut into maximal groups of
    back-to-back executions of one kernel -- exactly the batches the packed
    engine hands to the ECU regime path.  A kernel's gap is constant within
    an iteration, so a group is just ``(kernel id, length)``.  Kernel ids
    number the kernels in order of first appearance::

        kernels[i]              kernel name of id i
        gaps[i]                 its gap cycles before each execution
        totals[i]               its executions in the iteration
        run_kernel[j]           kernel id of group j
        run_length[j]           executions in group j
        before_first[i*n + i2]  executions of kernel i2 in the groups
                                before kernel i's first group
        through_last[i*n + i2]  executions of kernel i2 in the groups up to
                                and including kernel i's last group

    With every kernel's period (gap + latency) fixed, the start of kernel
    i's first execution and the end of its last one are linear in the two
    O(kernels^2) pair tables -- what the whole-iteration and bulk suffix
    folds of the packed engine evaluate instead of walking the groups.
    """

    __slots__ = (
        "kernels",
        "gaps",
        "totals",
        "run_kernel",
        "run_length",
        "before_first",
        "through_last",
    )

    def __init__(self, iteration: BlockIteration):
        ids: Dict[str, int] = {}
        gaps: List[int] = []
        run_kernel: List[int] = []
        run_length: List[int] = []
        for kernel_name, gap in interleave(iteration.kernels):
            kid = ids.get(kernel_name)
            if kid is None:
                kid = ids[kernel_name] = len(gaps)
                gaps.append(gap)
            if run_kernel and run_kernel[-1] == kid:
                run_length[-1] += 1
            else:
                run_kernel.append(kid)
                run_length.append(1)
        n = len(gaps)
        counts = [0] * n
        before_first = [0] * (n * n)
        through_last = [0] * (n * n)
        seen = 0
        for kid, length in zip(run_kernel, run_length):
            if kid == seen:
                before_first[kid * n:kid * n + n] = counts
                seen += 1
            counts[kid] += length
            through_last[kid * n:kid * n + n] = counts
        self.kernels: Tuple[str, ...] = tuple(ids)
        self.gaps = _compact(gaps)
        self.totals = _compact(counts)
        self.run_kernel = _compact(run_kernel)
        self.run_length = _compact(run_length)
        self.before_first = _compact(before_first)
        self.through_last = _compact(through_last)


class PackedProgram:
    """Per-application packing: profiled triggers plus packed iterations.

    ``iterations[i]`` packs ``application.iterations[i]``; the simulator
    zips the two sequences.  Profiled triggers are a pure function of the
    application (they model numbers burnt into the binary at compile time),
    so caching them across runs cannot change any payload.
    """

    __slots__ = ("profiled", "iterations")

    def __init__(self, application: Application):
        self.profiled = {
            block.name: application.profiled_triggers(block.name)
            for block in application.blocks
        }
        self.iterations: List[PackedIteration] = [
            PackedIteration(iteration) for iteration in application.iterations
        ]


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
