"""The ISE selection algorithm of mRTS (Fig. 6 of the paper).

Greedy maximum-profit selection over the joint candidate list of all kernels
forecasted by the trigger instructions:

1. build the candidate list of all ISEs of all kernels,
2. remove ISEs that (a) need more fabric than available or (b) are covered
   by data paths already configured / selected,
3. compute the profit (Eqs. 2-4) of every remaining candidate and select the
   maximum,
4. add it to the output set, update the fabric status, drop the other ISEs
   of the same kernel -- repeat until every kernel is served or nothing fits.

Complexity O(N*M) profit evaluations per round (N kernels, M ISEs each)
instead of the O(M^N) of the optimal algorithm.

Two implementations produce byte-identical results (``docs/selector.md``):

* the **naive** selector recomputes every candidate's profit each round --
  a direct transcription of Fig. 6, kept as the reference oracle;
* the **packed** selector (the default) runs the same rounds over the
  packing of :mod:`repro.core.packed`: implementations keyed by their
  interned ids, each candidate's instance rows, latency staircase and FG
  rows flattened into plain tuples at library-build time, and the fabric
  state read into id-indexed arrays in one pass.  It
  keeps each candidate's last ``(charge, schedule, profit)`` across rounds
  and, after committing a winner, invalidates only the candidates the
  commit can actually perturb: those whose data-path footprint intersects
  the winner's (via the packing's inverted index) and -- when the commit
  moved the FG bitstream port -- those with uncovered FG instances.

Pick the implementation with the ``REPRO_SELECTOR`` environment variable
(``naive`` | ``packed``) or the ``mode`` constructor argument.  Both report
the same ``profit_evaluations`` (the *logical* Fig. 6 count, which also
feeds the overhead model); the packed one additionally splits it into
``evaluations_recomputed``, ``evaluations_skipped`` and
``evaluations_pruned``.

Only the profit function varies between run-time systems: it is a
constructor argument (default :func:`~repro.core.profit.profit_kernel`,
Eqs. 2-4 without argument checks), which RISPP replaces with its
FG-quantised cost function (:func:`repro.baselines.rispp.quantized_profit`).

Ties between equal-profit candidates resolve deterministically by
``(profit, kernel name, candidate index)``: the lexicographically smallest
kernel wins, then the earliest candidate in the library's candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.packed import PackedLibrary, pack_library
from repro.core.profit import profit_kernel
from repro.fabric.datapath import FabricType
from repro.fabric.reconfig import ReconfigurationController
from repro.ise.ise import ISE
from repro.ise.library import ISELibrary
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ReproError

#: Environment variable selecting the implementation (``naive`` |
#: ``packed``); the constructor argument takes precedence.  Re-exported
#: from the central registry in :mod:`repro.config_env`.
from repro.config_env import SELECTOR_MODE_ENV

#: Valid selector implementations; ``packed`` is the default.
SELECTOR_MODES = ("naive", "packed")

#: A candidate's profit from its latency staircase, predicted
#: reconfiguration schedule and trigger: ``(latencies, schedule, e, tf, tb)``.
ProfitFunction = Callable[
    [Sequence[int], Sequence[float], float, float, float], float
]

#: Relative slack applied to the static profit upper bound before pruning.
#: ``e * profit_bound_per_execution`` dominates the profit in real
#: arithmetic for any schedule and any ``tb >= 0`` (RISPP's quantised
#: profit included), but ``profit_kernel`` sums a handful of non-negative
#: float terms, so its computed value can exceed the bound by a few ulps of
#: accumulated rounding.  Pruning therefore requires the bound to lose to
#: the running argmax by more than this relative margin -- orders of
#: magnitude above the worst-case summation error, vanishingly small
#: against any real profit gap -- so a candidate is only pruned when its
#: *computed* profit provably cannot win the round, keeping the
#: packed selector byte-identical to the naive one.
BOUND_PRUNE_SLACK = 1e-9


def predict_recT(
    ise: ISE,
    coverage: Mapping[str, int],
    existing_ready: Mapping[str, float],
    now: int,
    fg_port_free_at: float,
) -> Tuple[List[float], float]:
    """Predicted relative completion time of every level of ``ise``.

    ``coverage`` maps qualified implementation names to quantities that are
    already configured (or will be, thanks to previously selected ISEs) and
    therefore need no new reconfiguration; ``existing_ready`` gives the
    absolute cycle at which those copies are ready (missing entries mean
    "ready now").  FG transfers for uncovered instances queue sequentially
    behind ``fg_port_free_at``.

    Returns ``(schedule, new_port_free_at)`` where ``schedule[i]`` is the
    completion of level ``i+1`` relative to ``now``.
    """
    port = max(float(now), fg_port_free_at)
    ready_abs: List[float] = []
    for name, quantity, fabric, reconfig_cycles in ise.instance_rows:
        covered_qty = min(coverage.get(name, 0), quantity)
        missing = quantity - covered_qty
        ready = float(now)
        if covered_qty > 0:
            ready = max(ready, existing_ready.get(name, float(now)))
        if missing > 0:
            if fabric is FabricType.FG:
                port += reconfig_cycles * missing
                ready = max(ready, port)
            else:
                ready = max(ready, now + reconfig_cycles)
        ready_abs.append(ready)
    schedule: List[float] = []
    completed = 0.0
    for t in ready_abs:
        completed = max(completed, t - now)
        schedule.append(completed)
    return schedule, port


def packed_recT(
    rows: Sequence[Tuple[int, int, bool, int, int]],
    coverage: Sequence[int],
    ready: Sequence[float],
    now: int,
    port: float,
) -> Tuple[List[float], float]:
    """:func:`predict_recT` over a candidate's packed rows
    (:attr:`repro.core.packed.PackedLibrary.cand_rows`) and id-indexed
    ``coverage``/``ready`` arrays, the fold into the non-decreasing
    schedule fused in.  ``port`` is the effective port start,
    ``max(now, fg_port_free_at)``.  An id without copies has ready time
    0.0, which reads as "ready now" for every ``now >= 0``.

    ``max``/``min`` are spelled as comparisons -- ``max(a, b)`` is ``b if
    b > a else a`` and ``min(a, b)`` is ``b if b < a else a``, object for
    object -- so the schedule is :func:`predict_recT`'s, bit for bit.
    """
    now_f = float(now)
    schedule: List[float] = []
    completed = 0.0
    for impl, quantity, fg, reconfig, _ in rows:
        covered_qty = coverage[impl]
        if quantity < covered_qty:
            covered_qty = quantity
        level_ready = now_f
        if covered_qty > 0:
            existing = ready[impl]
            if existing > level_ready:
                level_ready = existing
        if covered_qty < quantity:
            if fg:
                port += reconfig * (quantity - covered_qty)
                if port > level_ready:
                    level_ready = port
            else:
                loaded = now + reconfig
                if loaded > level_ready:
                    level_ready = loaded
        level_ready -= now
        if level_ready > completed:
            completed = level_ready
        schedule.append(completed)
    return schedule, port


def exempt_copies(resources, now: int) -> Dict[str, int]:
    """Copies whose area is *not* part of the allocatable pool: pinned by an
    owner, or mid-transfer on the bitstream port (a streaming partial
    bitstream cannot be aborted; a still-pending one can be cancelled and
    therefore *is* allocatable).

    Reserving such a copy for a new selection costs no allocatable area;
    reserving an evictable copy removes it from the pool and must be
    charged.  Keyed by qualified implementation name.
    """
    exempt: Dict[str, int] = {}
    for copy in resources.iter_copies():
        if not copy.is_evictable(now):
            exempt[copy.impl.name] = exempt.get(copy.impl.name, 0) + 1
    return exempt


def reservation_charge(
    ise: ISE,
    reserved: Mapping[str, int],
    exempt: Mapping[str, int],
) -> Dict[FabricType, int]:
    """Allocatable area consumed by selecting ``ise`` given what earlier
    selections already ``reserved``.

    A data path reserved up to quantity ``r`` costs
    ``area * max(0, r - exempt)`` (exempt copies were never in the pool);
    selecting an ISE raises each of its data paths' reservations to at least
    its quantity, and the charge is the difference.  Shared data paths are
    therefore charged once, no matter how many selected ISEs use them.
    """
    charge = {FabricType.FG: 0, FabricType.CG: 0}
    for instance in ise.instances:
        name = instance.impl.name
        r_old = reserved.get(name, 0)
        r_new = max(r_old, instance.quantity)
        if r_new == r_old:
            continue
        ex = exempt.get(name, 0)
        delta_units = max(0, r_new - ex) - max(0, r_old - ex)
        charge[instance.fabric] += instance.impl.area * delta_units
    return charge


def apply_reservation(ise: ISE, reserved: Dict[str, int]) -> None:
    """Raise the reservations of ``ise``'s data paths to its quantities."""
    for instance in ise.instances:
        name = instance.impl.name
        reserved[name] = max(reserved.get(name, 0), instance.quantity)


def resolve_selector_mode(mode: Optional[str] = None) -> str:
    """The selector implementation to use: the explicit ``mode`` if given,
    else ``$REPRO_SELECTOR``, else ``packed``."""
    from repro.config_env import selector_mode

    return selector_mode(mode)


@dataclass
class SelectionResult:
    """Outcome of one selection round for a functional block.

    ``profit_evaluations`` is the *logical* Fig. 6 count -- one per fitting
    candidate per greedy round -- and is identical for both selector
    implementations (the overhead model charges it, so the modelled
    hardware cost does not depend on how the reproduction computes it).
    The packed selector splits it into ``evaluations_recomputed``
    (profits actually recomputed), ``evaluations_skipped`` (served from
    the round-to-round cache) and ``evaluations_pruned`` (discarded by the
    static profit upper bound without computing Eqs. 2-4); the naive
    selector recomputes everything.  ``mode`` names the selector that
    decided: ``"naive"`` or ``"packed"`` here, ``"optimal"`` for
    :class:`~repro.core.optimal.OptimalSelector`.
    """

    selected: Dict[str, Optional[ISE]] = field(default_factory=dict)
    profits: Dict[str, float] = field(default_factory=dict)
    covered_free: List[str] = field(default_factory=list)
    profit_evaluations: int = 0
    candidates_considered: int = 0
    rounds: int = 0
    evaluations_recomputed: int = 0
    evaluations_skipped: int = 0
    evaluations_pruned: int = 0
    invalidations: int = 0
    mode: str = "naive"

    @property
    def total_profit(self) -> float:
        return sum(self.profits.values())

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of logical evaluations served from the profit cache."""
        if self.profit_evaluations == 0:
            return 0.0
        return self.evaluations_skipped / self.profit_evaluations

    @property
    def evaluations_avoided(self) -> int:
        """Logical evaluations that needed no Eq. 2-4 computation: served
        from the round-to-round cache or pruned by the profit upper bound."""
        return self.evaluations_skipped + self.evaluations_pruned

    def selection_order(self) -> List[str]:
        """Kernels in the order their ISEs were selected (greedy order)."""
        return list(self.selected)


class ISESelector:
    """The heuristic multi-grained ISE selector (Section 4.1).

    ``mode`` picks the implementation (``naive`` | ``packed``); when
    omitted it falls back to ``$REPRO_SELECTOR`` and finally to
    ``packed``.  Both produce byte-identical :class:`SelectionResult`
    decisions and logical counters.  ``profit`` scores a candidate from
    its latency staircase and predicted reconfiguration schedule (see
    :data:`ProfitFunction`).  It must not modify the schedule it is given:
    the selector commits that schedule for the winner.
    """

    def __init__(
        self,
        library: ISELibrary,
        mode: Optional[str] = None,
        profit: ProfitFunction = profit_kernel,
    ):
        self.library = library
        self.mode = resolve_selector_mode(mode)
        self.profit = profit
        #: packed view of the library (cached per library in
        #: :mod:`repro.core.packed`); only materialised for the packed mode.
        self._packed: Optional[PackedLibrary] = (
            pack_library(library) if self.mode == "packed" else None
        )

    def select(
        self,
        triggers: Sequence[TriggerInstruction],
        controller: ReconfigurationController,
        now: int,
    ) -> SelectionResult:
        """Select one ISE per forecasted kernel (Fig. 6).

        The controller is only *read* (configuration snapshot and port
        backlog); committing the selection is the caller's responsibility so
        that alternative policies can reuse this selector.
        """
        triggers_by_kernel: Dict[str, TriggerInstruction] = {}
        for trig in triggers:
            if trig.kernel in triggers_by_kernel:
                raise ReproError(f"duplicate trigger for kernel {trig.kernel!r}")
            if trig.kernel not in self.library.kernels:
                raise ReproError(f"trigger for unknown kernel {trig.kernel!r}")
            triggers_by_kernel[trig.kernel] = trig
        if self.mode == "packed":
            return self._select_packed(triggers_by_kernel, controller, now)
        return self._select_naive(triggers_by_kernel, controller, now)

    # ----------------------------------------------------------- shared
    def _setup(
        self,
        triggers_by_kernel: Dict[str, TriggerInstruction],
        controller: ReconfigurationController,
        now: int,
    ):
        """The naive selector's working state, keyed by name.

        ``free`` is the fabric the selection may claim (free plus
        evictable-unpinned area), ``exempt`` the copies whose area is not
        charged (pinned or in flight), ``coverage``/``existing_ready`` the
        data paths usable without new reconfigurations, and
        ``fg_port_free_at`` the bitstream-port backlog.  The packed
        selector reads the same state into id arrays
        (:meth:`~repro.fabric.resources.ResourceState.selection_view`).
        """
        free = {
            fabric: controller.resources.allocatable_area(fabric, now)
            for fabric in FabricType
        }
        exempt = exempt_copies(controller.resources, now)
        snapshot = dict(controller.resources.snapshot())
        coverage: Dict[str, int] = dict(snapshot)
        existing_ready: Dict[str, float] = {}
        for name, qty in coverage.items():
            ready_at = controller.resources.ready_at(name, qty)
            if ready_at is not None:
                existing_ready[name] = float(ready_at)
        fg_port_free_at = float(controller.fg.port_available_at)
        return free, exempt, snapshot, coverage, existing_ready, fg_port_free_at

    @staticmethod
    def _commit_coverage(
        ise: ISE,
        schedule: Sequence[float],
        coverage: Dict[str, int],
        existing_ready: Dict[str, float],
        now: int,
    ) -> None:
        """Fold a committed winner into the working coverage state."""
        for level_index, instance in enumerate(ise.instances):
            name = instance.impl.name
            if instance.quantity > coverage.get(name, 0):
                coverage[name] = instance.quantity
            ready_abs = now + schedule[level_index]
            if ready_abs > existing_ready.get(name, 0.0):
                existing_ready[name] = ready_abs

    # ------------------------------------------------------------ naive
    def _select_naive(
        self,
        triggers_by_kernel: Dict[str, TriggerInstruction],
        controller: ReconfigurationController,
        now: int,
    ) -> SelectionResult:
        result = SelectionResult(mode="naive")

        # Step 1: candidate list of the ISEs of all kernels in the TIs.
        candidates: Dict[str, Tuple[ISE, ...]] = {
            kernel: self.library.candidate_tuple(kernel)
            for kernel in triggers_by_kernel
        }
        result.candidates_considered = sum(len(c) for c in candidates.values())

        (
            free,
            exempt,
            snapshot,
            coverage,
            existing_ready,
            fg_port_free_at,
        ) = self._setup(triggers_by_kernel, controller, now)
        reserved: Dict[str, int] = {}

        pending = set(triggers_by_kernel)
        while pending:
            result.rounds += 1
            # Step 2a + 3: profit of every fitting candidate; pick the max.
            # Step 2b is implicit in the accounting: an ISE covered by data
            # paths that are already configured (or that earlier rounds of
            # this selection brought in) is charged no fabric and predicted
            # available at its existing ready times, so it needs no new
            # reconfiguration and its profit reflects that head start.
            best: Optional[Tuple[float, str, int, ISE, List[float], float]] = None
            for kernel in sorted(pending):
                trig = triggers_by_kernel[kernel]
                for index, ise in enumerate(candidates[kernel]):
                    charge = reservation_charge(ise, reserved, exempt)
                    if (
                        charge[FabricType.FG] > free[FabricType.FG]
                        or charge[FabricType.CG] > free[FabricType.CG]
                    ):
                        continue
                    result.profit_evaluations += 1
                    result.evaluations_recomputed += 1
                    schedule, port_after = predict_recT(
                        ise, coverage, existing_ready, now, fg_port_free_at
                    )
                    profit = self.profit(
                        ise.latencies,
                        schedule,
                        trig.executions,
                        trig.time_to_first,
                        trig.time_between,
                    )
                    if best is None or _beats(
                        profit, kernel, index, best[0], best[1], best[2]
                    ):
                        best = (profit, kernel, index, ise, schedule, port_after)

            if best is None or best[0] <= 0:
                # Nothing fits (or nothing helps): remaining kernels run in
                # RISC mode / on monoCG-Extensions via the ECU.
                for kernel in sorted(pending):
                    result.selected[kernel] = None
                    result.profits[kernel] = 0.0
                break

            # Step 4: commit the winner into the working state.
            profit, kernel, _, ise, schedule, port_after = best
            result.selected[kernel] = ise
            result.profits[kernel] = profit
            if ise.covered_by(snapshot):
                result.covered_free.append(kernel)
            charge = reservation_charge(ise, reserved, exempt)
            for fabric in FabricType:
                free[fabric] -= charge[fabric]
            apply_reservation(ise, reserved)
            self._commit_coverage(ise, schedule, coverage, existing_ready, now)
            fg_port_free_at = port_after
            pending.discard(kernel)

        return result

    # ----------------------------------------------------------- packed
    def _select_packed(
        self,
        triggers_by_kernel: Dict[str, TriggerInstruction],
        controller: ReconfigurationController,
        now: int,
    ) -> SelectionResult:
        """The Fig. 6 rounds with round-to-round caching, over the library's
        packing.

        Implementations are interned ids, candidates are global ``cid``
        indices into the packed library, and the working state lives in
        flat arrays:

        * ``coverage`` / ``ready_val`` / ``reserved`` / ``exempt`` -- per
          implementation id, the first, second and fourth filled from the
          fabric state by one
          :meth:`~repro.fabric.resources.ResourceState.selection_view`
          pass.  An id without copies keeps ``ready_val`` 0.0: the naive
          selector's missing ready time reads as ``float(now)`` in the
          schedule and as ``0.0`` in the commit, and ``max(now, 0.0)`` is
          ``now`` for every ``now >= 0``, so one default serves both;
        * charge / profit / schedule / validity caches -- per ``cid``.

        A cached charge stays valid until a committed winner raises the
        reservation of a data path the candidate uses; a cached profit
        until a winner changes the coverage or ready time of such a data
        path, or moves the FG bitstream port while the candidate still has
        uncovered FG instances (``fg_sensitive``).  Each kernel's
        candidates are scanned in descending profit-bound order, so an
        uncached candidate whose bound cannot beat the running argmax is
        pruned unevaluated; the explicit tie-break makes the argmax
        independent of that order.

        Implementations on the fabric that no candidate row uses (e.g.
        monoCG context loads) may fall outside the arrays or land in
        entries nothing reads: coverage, reservations and exemptions are
        only ever read for candidate instance rows.  An invalidation loop
        may visit a candidate once per shared data path, but the validity
        flag is cleared on the first visit, so ``invalidations`` counts
        each invalidated cache entry once.
        """
        result = SelectionResult(mode="packed")
        packed = self._packed
        if packed is None:
            packed = self._packed = pack_library(self.library)

        kernel_cids = packed.kernel_cids
        scan_cids = packed.scan_cids
        users_cids = packed.users_cids
        cand_bound = packed.cand_bound
        cand_latencies = packed.cand_latencies
        cand_local = packed.cand_local
        cand_rows = packed.cand_rows
        cand_fg_rows = packed.cand_fg_rows
        profit_of = self.profit

        result.candidates_considered = sum(
            len(kernel_cids[kernel]) for kernel in triggers_by_kernel
        )

        n_impls = packed.n_impls
        coverage = [0] * n_impls
        ready_val: List[float] = [0.0] * n_impls
        reserved = [0] * n_impls
        exempt = [0] * n_impls
        free_fg, free_cg = controller.resources.selection_view(
            now, coverage, ready_val, exempt
        )
        fg_port_free_at = float(controller.fg.port_available_at)
        # Step 2b's "covered by what is configured" test, for covered_free.
        initial_coverage = coverage[:]

        n_cands = packed.n_candidates
        alive = bytearray(n_cands)
        for kernel in triggers_by_kernel:
            for cid in kernel_cids[kernel]:
                alive[cid] = 1
        charge_fg = [0] * n_cands
        charge_cg = [0] * n_cands
        charge_valid = bytearray(n_cands)
        profit_arr: List[float] = [0.0] * n_cands
        schedule_arr: List[Optional[List[float]]] = [None] * n_cands
        port_after_arr: List[float] = [0.0] * n_cands
        fg_sensitive = bytearray(n_cands)
        profit_valid = bytearray(n_cands)

        # The counters live in locals until the end (attribute updates per
        # candidate are measurable).  ``max``/``min`` calls are spelled as
        # comparisons, as in packed_recT.
        evaluations = recomputed = skipped = pruned = invalidations = rounds = 0
        now_f = float(now)
        pending = set(triggers_by_kernel)
        while pending:
            rounds += 1
            best_cid = -1
            best_profit = 0.0
            best_kernel = ""
            best_index = 0
            port_start = fg_port_free_at if fg_port_free_at > now_f else now_f
            for kernel in sorted(pending):
                trig = triggers_by_kernel[kernel]
                executions = trig.executions
                for cid in scan_cids[kernel]:
                    if not charge_valid[cid]:
                        fg_units = 0
                        cg_units = 0
                        for impl, quantity, fg, _, area in cand_rows[cid]:
                            r_old = reserved[impl]
                            if quantity <= r_old:
                                continue
                            ex = exempt[impl]
                            delta_units = (quantity - ex if quantity > ex else 0) - (
                                r_old - ex if r_old > ex else 0
                            )
                            if fg:
                                fg_units += area * delta_units
                            else:
                                cg_units += area * delta_units
                        charge_fg[cid] = fg_units
                        charge_cg[cid] = cg_units
                        charge_valid[cid] = 1
                    if charge_fg[cid] > free_fg or charge_cg[cid] > free_cg:
                        continue
                    evaluations += 1
                    if profit_valid[cid]:
                        skipped += 1
                    else:
                        bound = executions * cand_bound[cid]
                        if best_cid < 0:
                            if bound <= 0.0:
                                pruned += 1
                                continue
                        elif bound + bound * BOUND_PRUNE_SLACK < best_profit:
                            pruned += 1
                            continue
                        schedule, port = packed_recT(
                            cand_rows[cid], coverage, ready_val, now, port_start
                        )
                        profit_arr[cid] = profit_of(
                            cand_latencies[cid],
                            schedule,
                            executions,
                            trig.time_to_first,
                            trig.time_between,
                        )
                        schedule_arr[cid] = schedule
                        port_after_arr[cid] = port
                        sensitive = 0
                        for impl, quantity in cand_fg_rows[cid]:
                            if coverage[impl] < quantity:
                                sensitive = 1
                                break
                        fg_sensitive[cid] = sensitive
                        profit_valid[cid] = 1
                        recomputed += 1
                    # The _beats order, inlined.
                    profit = profit_arr[cid]
                    if (
                        best_cid < 0
                        or profit > best_profit
                        or (
                            not profit < best_profit
                            and (kernel, cand_local[cid]) < (best_kernel, best_index)
                        )
                    ):
                        best_cid = cid
                        best_profit = profit
                        best_kernel = kernel
                        best_index = cand_local[cid]

            if best_cid < 0 or best_profit <= 0:
                for kernel in sorted(pending):
                    result.selected[kernel] = None
                    result.profits[kernel] = 0.0
                break

            kernel = best_kernel
            cid = best_cid
            rows = cand_rows[cid]
            result.selected[kernel] = packed.cand_ise[cid]
            result.profits[kernel] = best_profit
            for impl, quantity, _, _, _ in rows:
                if initial_coverage[impl] < quantity:
                    break
            else:
                result.covered_free.append(kernel)
            # Fresh commit charge and raised reservations in one pass: rows
            # list each implementation once, so every row reads its own
            # pre-commit reservation, and "raised" (quantity > reserved) is
            # exactly the charge loop's skip test.
            raised_reservations: List[int] = []
            for impl, quantity, fg, _, area in rows:
                r_old = reserved[impl]
                if quantity <= r_old:
                    continue
                raised_reservations.append(impl)
                reserved[impl] = quantity
                ex = exempt[impl]
                delta_units = (quantity - ex if quantity > ex else 0) - (
                    r_old - ex if r_old > ex else 0
                )
                if fg:
                    free_fg -= area * delta_units
                else:
                    free_cg -= area * delta_units
            # _commit_coverage over the arrays; rows list each impl once, so
            # a per-row changed flag reproduces the changed-name set.
            winner_schedule = schedule_arr[cid]
            assert winner_schedule is not None
            changed_coverage: List[int] = []
            for level_index, row in enumerate(rows):
                impl = row[0]
                changed = False
                if row[1] > coverage[impl]:
                    coverage[impl] = row[1]
                    changed = True
                ready_abs = now + winner_schedule[level_index]
                if ready_abs > ready_val[impl]:
                    ready_val[impl] = ready_abs
                    changed = True
                if changed:
                    changed_coverage.append(impl)

            if fg_sensitive[cid]:
                fg_port_free_at = port_after_arr[cid]
            else:
                fg_port_free_at = port_start
            port_moved = fg_port_free_at > port_start

            pending.discard(kernel)
            for dead in kernel_cids[kernel]:
                alive[dead] = 0

            for impl in raised_reservations:
                for other in users_cids[impl]:
                    if alive[other] and charge_valid[other]:
                        charge_valid[other] = 0
                        invalidations += 1
            for impl in changed_coverage:
                for other in users_cids[impl]:
                    if alive[other] and profit_valid[other]:
                        profit_valid[other] = 0
                        invalidations += 1
            if port_moved:
                for other_kernel in pending:
                    for other in kernel_cids[other_kernel]:
                        if profit_valid[other] and fg_sensitive[other]:
                            profit_valid[other] = 0
                            invalidations += 1

        result.rounds = rounds
        result.profit_evaluations = evaluations
        result.evaluations_recomputed = recomputed
        result.evaluations_skipped = skipped
        result.evaluations_pruned = pruned
        result.invalidations = invalidations
        return result


def _beats(
    profit: float,
    kernel: str,
    index: int,
    best_profit: float,
    best_kernel: str,
    best_index: int,
) -> bool:
    """The deterministic argmax order: higher profit wins; equal profits
    resolve by ``(kernel name, candidate index)`` ascending.  This makes the
    historical ``sorted(pending)``-iteration tie-break explicit, so the
    packed selector's bound-ordered scan cannot silently reorder ties.

    Only ordering comparisons: ties are the fall-through case, so the
    tie-break needs no float ``==`` -- both selector implementations compute
    candidate profits through the identical expression and produce
    bit-identical values, which is what makes this ordering total.
    """
    if profit > best_profit:
        return True
    if profit < best_profit:
        return False
    return (kernel, index) < (best_kernel, best_index)


__all__ = [
    "ISESelector",
    "ProfitFunction",
    "SELECTOR_MODES",
    "SELECTOR_MODE_ENV",
    "SelectionResult",
    "packed_recT",
    "predict_recT",
    "resolve_selector_mode",
]
