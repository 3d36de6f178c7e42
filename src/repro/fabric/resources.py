"""Resource accounting: who occupies which fabric, and eviction.

The run-time system shares one pool of PRCs and CG fabrics among all kernels
and functional blocks.  :class:`ResourceState` tracks every configured data
path copy, which selection currently *pins* it, and when it becomes ready;
it also implements the least-recently-used replacement the selector relies
on when a new selection needs fabric that stale configurations occupy.

The state is keyed by interned implementation id
(:func:`repro.fabric.datapath.intern_impl`).  The decision path -- the
reconfiguration commit, the ECU cascade and the packed selector -- queries
it by id; the name-keyed methods translate at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fabric.datapath import (
    IMPL_IDS,
    IMPL_NAMES,
    DataPathImpl,
    DataPathInstance,
    FabricType,
)
from repro.util.validation import ValidationError, check_non_negative

_CG = FabricType.CG


@dataclass(frozen=True)
class ResourceBudget:
    """The fabric combination available to the processor.

    The paper's evaluation sweeps ``(n_cg_fabrics, n_prcs)`` (the x-axes of
    Figs. 8, 9 and 10).  FG area is counted in PRCs.  CG area is counted in
    *context slots*: each CG fabric stores multiple contexts (Section 5.1,
    "Each CG-fabric can store multiple contexts and a context switch takes
    2 cycles"), so several CG data paths -- or a monoCG-Extension -- can
    reside on one fabric and time-multiplex it with 2-cycle switches.
    """

    n_prcs: int
    n_cg_fabrics: int
    contexts_per_cg_fabric: int = 4

    def __post_init__(self) -> None:
        check_non_negative("ResourceBudget.n_prcs", self.n_prcs)
        check_non_negative("ResourceBudget.n_cg_fabrics", self.n_cg_fabrics)
        if self.contexts_per_cg_fabric <= 0:
            raise ValidationError(
                f"contexts_per_cg_fabric must be positive, got {self.contexts_per_cg_fabric}"
            )

    @property
    def n_cg_slots(self) -> int:
        """Total CG context slots across all CG fabrics."""
        return self.n_cg_fabrics * self.contexts_per_cg_fabric

    def total(self, fabric: FabricType) -> int:
        """Total area units of ``fabric`` (PRCs or CG context slots)."""
        return self.n_prcs if fabric is FabricType.FG else self.n_cg_slots

    @property
    def label(self) -> str:
        """Two-digit combination label used on the paper's x-axes, e.g. ``"21"``
        for 2 CG fabrics and 1 PRC."""
        return f"{self.n_cg_fabrics}{self.n_prcs}"


@dataclass(eq=False)
class ConfiguredCopy:
    """One configured (or in-flight) copy of a data-path implementation.

    FG copies carry their bitstream-port transfer metadata: the transfer's
    scheduled ``transfer_start`` and its ``port_token``.  A copy whose
    transfer has not started yet is *cancellable* -- evicting it aborts the
    pending transfer (and the port queue reflows); once streaming, the
    transfer is committed and the copy cannot be evicted until ready.

    ``uid``, ``area`` and ``cg`` (the fabric is CG) are read off the
    implementation once, for the occupancy loops.  Copies compare by
    identity: two copies of one implementation are two configurations.
    """

    impl: DataPathImpl
    ready_at: int
    pinned_by: Optional[str] = None
    last_used: int = 0
    transfer_start: Optional[int] = None
    port_token: Optional[int] = None
    uid: int = field(init=False, repr=False)
    area: int = field(init=False, repr=False)
    cg: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.uid = self.impl.uid
        self.area = self.impl.area
        self.cg = self.impl.fabric is _CG

    @property
    def fabric(self) -> FabricType:
        return self.impl.fabric

    def is_ready(self, now: int) -> bool:
        return self.ready_at <= now

    def is_cancellable(self, now: int) -> bool:
        """In flight, but its port transfer has not started streaming."""
        return (
            self.ready_at > now
            and self.transfer_start is not None
            and self.transfer_start > now
        )

    def is_evictable(self, now: int) -> bool:
        """Unpinned and either fully configured or still cancellable."""
        return self.pinned_by is None and (
            self.ready_at <= now or self.is_cancellable(now)
        )


class ResourceState:
    """Occupancy of the reconfigurable fabrics.

    Copies are keyed by interned implementation id; several copies of the
    same implementation may coexist (parallelised data paths).
    """

    def __init__(self, budget: ResourceBudget):
        self.budget = budget
        #: per implementation id, kept in ``ready_at`` order at insertion,
        #: so the k-th copy is the k-th to become ready and no query
        #: re-sorts.  The order survives every mutation: new copies of one
        #: implementation are never scheduled to finish before existing
        #: ones (the FG bitstream port is FIFO, CG context loads take a
        #: fixed time), and port-cancellation reflows shift only *later*
        #: transfers earlier, which preserves per-implementation finish
        #: order.  Dict order is first-insertion order, which is the
        #: eviction tie-break.
        self._copies: Dict[int, List[ConfiguredCopy]] = {}
        #: monotonic counter bumped by every mutation that can change an
        #: execution decision (copies added/removed, pins changed, reset).
        #: ``touch`` does NOT bump it: ``last_used`` is only read at
        #: eviction points, which bump the version themselves.  The ECU's
        #: fast-forward cache tags cached decisions with this version.
        self.version: int = 0
        #: (cycle, qualified implementation name, area) of every eviction,
        #: for the fabric-utilization analyses.
        self.eviction_log: List[Tuple[int, str, int]] = []
        #: hook installed by the reconfiguration controller: called with a
        #: cancellable copy being evicted, so its pending port transfer is
        #: aborted and the queue reflows (None = no port to notify).
        self.canceller = None
        #: area of each fabric (``_total``), and running area totals of
        #: every copy (``_used``) and of the pinned ones (``_pinned``), all
        #: indexed by ``fabric is CG`` (FG 0, CG 1) -- enum members hash in
        #: Python, a bool indexes in C.  Every mutation below keeps the
        #: totals, so occupancy queries never re-sum.
        self._total = (budget.n_prcs, budget.n_cg_slots)
        self._used = [0, 0]
        self._pinned = [0, 0]

    # ------------------------------------------------- queries by name
    def copies(self, impl_name: str) -> List[ConfiguredCopy]:
        """All configured or in-flight copies of ``impl_name``."""
        return list(self._copies.get(IMPL_IDS.get(impl_name), ()))

    def iter_copies(self) -> Iterable[ConfiguredCopy]:
        for copies in self._copies.values():
            yield from copies

    def configured_quantity(self, impl_name: str) -> int:
        """Number of copies of ``impl_name`` configured or in flight."""
        return len(self._copies.get(IMPL_IDS.get(impl_name), ()))

    def ready_quantity(self, impl_name: str, now: int) -> int:
        """Number of copies of ``impl_name`` ready at cycle ``now``."""
        ready = 0
        for copy in self._copies.get(IMPL_IDS.get(impl_name), ()):
            if copy.ready_at > now:
                break
            ready += 1
        return ready

    def ready_at(self, impl_name: str, quantity: int) -> Optional[int]:
        """Cycle at which ``quantity`` copies of ``impl_name`` are ready,
        or ``None`` if fewer copies exist."""
        return self.ready_time(IMPL_IDS.get(impl_name, -1), quantity)

    def snapshot(self) -> Dict[str, int]:
        """Qualified implementation name -> configured quantity."""
        return {IMPL_NAMES[uid]: len(copies) for uid, copies in self._copies.items()}

    # --------------------------------------------------- queries by id
    def count(self, uid: int) -> int:
        """Number of copies of implementation ``uid`` configured or in flight."""
        return len(self._copies.get(uid, ()))

    def ready_time(self, uid: int, quantity: int) -> Optional[int]:
        """Cycle at which ``quantity`` copies of implementation ``uid`` are
        ready, or ``None`` if fewer copies exist.  O(1): the copies are
        kept in ``ready_at`` order."""
        copies = self._copies.get(uid, ())
        if len(copies) < quantity:
            return None
        return copies[quantity - 1].ready_at

    def ready_level(self, instances: Sequence[DataPathInstance], now: int) -> int:
        """How many leading ``instances`` have their full quantity ready at
        ``now`` (the deepest ready intermediate-ISE level)."""
        level = 0
        get = self._copies.get
        for instance in instances:
            copies = get(instance.impl.uid)
            quantity = instance.quantity
            if (
                copies is None
                or len(copies) < quantity
                or copies[quantity - 1].ready_at > now
            ):
                break
            level += 1
        return level

    def selection_view(
        self,
        now: int,
        coverage: List[int],
        ready: List[float],
        exempt: List[int],
    ) -> Tuple[int, int]:
        """The fabric as a selection at ``now`` sees it, in one pass.

        Returns the allocatable FG and CG area (:meth:`allocatable_area`).
        For every implementation id below ``len(coverage)`` that has
        copies, fills ``coverage`` (configured quantity), ``ready`` (cycle
        at which all of them are ready) and ``exempt`` (copies outside the
        allocatable pool: pinned, or mid-transfer on the bitstream port);
        entries of ids without copies are left as they are.
        """
        n = len(coverage)
        free = [self._total[0] - self._used[0], self._total[1] - self._used[1]]
        for uid, copies in self._copies.items():
            held = 0
            for copy in copies:
                if copy.pinned_by is None and (
                    copy.ready_at <= now
                    or (copy.transfer_start is not None and copy.transfer_start > now)
                ):
                    free[copy.cg] += copy.area
                else:
                    held += 1
            if uid < n:
                coverage[uid] = len(copies)
                ready[uid] = float(copies[-1].ready_at)
                exempt[uid] = held
        return free[0], free[1]

    # ------------------------------------------------------- occupancy
    def used_area(self, fabric: FabricType) -> int:
        """Area units of ``fabric`` occupied (ready or in-flight)."""
        return self._used[fabric is _CG]

    def free_area(self, fabric: FabricType) -> int:
        """Unoccupied area units of ``fabric``."""
        cg = fabric is _CG
        return self._total[cg] - self._used[cg]

    def unpinned_area(self, fabric: FabricType) -> int:
        """Area that is free or occupied by evictable (unpinned) copies."""
        cg = fabric is _CG
        return self._total[cg] - self._pinned[cg]

    def allocatable_area(self, fabric: FabricType, now: int) -> int:
        """Area a new selection can claim at ``now``: free area plus the
        area of unpinned copies that are fully configured or whose pending
        port transfer can still be cancelled.  Copies whose bitstream is
        already streaming are untouchable until they complete."""
        return self.selection_view(now, [], [], [])[fabric is _CG]

    def next_event_after(self, now: int) -> Optional[int]:
        """The earliest ``ready_at`` strictly after ``now`` across every
        configured copy -- the next cycle at which fabric availability (and
        with it any ECU decision) can change.  ``None`` if nothing is in
        flight beyond ``now``.  Uses the per-implementation sorted order."""
        best: Optional[int] = None
        for copies in self._copies.values():
            for copy in copies:
                if copy.ready_at > now:
                    if best is None or copy.ready_at < best:
                        best = copy.ready_at
                    break
        return best

    # ---------------------------------------------------------- mutation
    def add_copy(
        self,
        impl: DataPathImpl,
        ready_at: int,
        pinned_by: Optional[str] = None,
    ) -> ConfiguredCopy:
        """Record a newly scheduled copy; raises if it does not fit."""
        if impl.area > self.free_area(impl.fabric):
            raise ValidationError(
                f"cannot configure {impl.name}: needs {impl.area} units of "
                f"{impl.fabric}, only {self.free_area(impl.fabric)} free"
            )
        copy = ConfiguredCopy(impl, ready_at, pinned_by, last_used=ready_at)
        copies = self._copies.setdefault(copy.uid, [])
        # After every copy ready no later (new copies usually finish last).
        index = len(copies)
        while index and copies[index - 1].ready_at > ready_at:
            index -= 1
        copies.insert(index, copy)
        self._used[copy.cg] += copy.area
        if pinned_by is not None:
            self._pinned[copy.cg] += copy.area
        self.version += 1
        return copy

    def touch(self, impl_name: str, now: int) -> None:
        """Mark ``impl_name`` as used at ``now`` (for LRU replacement)."""
        self.touch_ids((IMPL_IDS.get(impl_name, -1),), now)

    def touch_ids(self, uids: Iterable[int], now: int) -> None:
        """Mark every copy of each implementation id in ``uids`` as used at
        ``now`` (``last_used`` keeps the maximum)."""
        get = self._copies.get
        for uid in uids:
            for copy in get(uid, ()):
                if copy.last_used < now:
                    copy.last_used = now

    def pin(self, impl_name: str, quantity: int, owner: str) -> int:
        """Pin up to ``quantity`` copies of ``impl_name`` for ``owner``
        (:meth:`pin_id`)."""
        return self.pin_id(IMPL_IDS.get(impl_name, -1), quantity, owner)

    def pin_id(self, uid: int, quantity: int, owner: str) -> int:
        """Pin up to ``quantity`` copies of implementation ``uid`` for
        ``owner``.

        Copies already pinned by ``owner`` count toward ``quantity``.
        Returns the number of copies pinned for the owner after the call.
        """
        pinned = 0
        changed = False
        for copy in self._copies.get(uid, ()):
            if pinned >= quantity:
                break
            if copy.pinned_by == owner:
                pinned += 1
            elif copy.pinned_by is None:
                copy.pinned_by = owner
                self._pinned[copy.cg] += copy.area
                pinned += 1
                changed = True
        if changed:
            self.version += 1
        return pinned

    def unpin_owner(self, owner: str) -> None:
        """Release every pin held by ``owner`` (e.g. at functional-block exit)."""
        changed = False
        for copies in self._copies.values():
            for copy in copies:
                if copy.pinned_by == owner:
                    copy.pinned_by = None
                    self._pinned[copy.cg] -= copy.area
                    changed = True
        if changed:
            self.version += 1

    def remove_owner(self, owner: str, now: int) -> int:
        """Remove (not merely unpin) every copy pinned by ``owner``.

        Used when a background task releases the fabric it held; returns the
        number of copies removed.  The removals are recorded in the eviction
        log."""
        victims = [c for c in self.iter_copies() if c.pinned_by == owner]
        for victim in victims:
            self._remove(victim)
            self.eviction_log.append((now, victim.impl.name, victim.area))
        return len(victims)

    def evict(self, fabric: FabricType, area_needed: int, now: int) -> int:
        """Evict least-recently-used *unpinned* copies of ``fabric`` until at
        least ``area_needed`` units are free (or nothing evictable remains).

        Fully configured copies are simply dropped; copies whose bitstream
        transfer has not started yet are dropped *and* their pending
        transfer is cancelled through the controller's canceller hook (the
        port queue reflows).  Copies mid-transfer are never evicted:
        aborting a streaming partial bitstream is not supported by the
        hardware.  Victims go in :meth:`victim_order`.  Returns the free
        area after eviction.
        """
        check_non_negative("area_needed", area_needed)
        cg = fabric is _CG
        if self._total[cg] - self._used[cg] >= area_needed:
            return self._total[cg] - self._used[cg]
        return self.evict_in_order(self.victim_order(now)[cg], fabric, area_needed, now)

    def victim_order(self, now: int) -> Tuple[List[ConfiguredCopy], List[ConfiguredCopy]]:
        """Every copy eviction can remove at ``now``, in eviction order:
        ``(FG victims, CG victims)``, each a stack whose last element goes
        first.

        Ready copies are preferred victims (cancelling a pending transfer
        wastes a decision, evicting a stale configuration wastes nothing),
        then the least recently used; equal keys go in copy order.  One
        pass collects the sort keys and one sort orders both fabrics; the
        position breaks ties, so the order is a stable sort's.

        A commit collects the order once and evicts from it for every
        missing copy (:meth:`evict_in_order`).  Within one commit the set
        of eligible victims only shrinks -- new copies are pinned, pins
        only grow, ``now`` is fixed and a port reflow only pulls pending
        transfers earlier -- and the keys of the copies still eligible do
        not change, so the order stays the one a fresh collection would
        produce.
        """
        keyed = []
        for copies in self._copies.values():
            for copy in copies:
                if copy.pinned_by is not None:
                    continue
                if copy.ready_at <= now:
                    keyed.append((0, copy.last_used, len(keyed), copy))
                elif copy.transfer_start is not None and copy.transfer_start > now:
                    keyed.append((1, copy.last_used, len(keyed), copy))
        keyed.sort(reverse=True)
        stacks: Tuple[List[ConfiguredCopy], List[ConfiguredCopy]] = ([], [])
        for entry in keyed:
            stacks[entry[3].cg].append(entry[3])
        return stacks

    def evict_in_order(
        self,
        victims: List[ConfiguredCopy],
        fabric: FabricType,
        area_needed: int,
        now: int,
    ) -> int:
        """:meth:`evict` from a victim stack of ``fabric`` collected earlier
        in the same commit (:meth:`victim_order`); evicted and skipped
        victims are popped.  Not re-validated: the commit's areas come from
        validated implementations.  Returns the free area after eviction.

        Each victim's eligibility is checked again before it goes: since
        the order was collected, the commit may have pinned it, or a
        cancellation's port reflow may have pulled its pending transfer
        forward to start at ``now`` -- a transfer that is streaming is
        never evictable.  Neither ever becomes eligible again in the same
        commit, so a skipped victim is dropped from the stack.
        """
        cg = fabric is _CG
        total = self._total[cg]
        used = self._used
        while total - used[cg] < area_needed and victims:
            victim = victims.pop()
            if victim.pinned_by is not None:
                continue
            if victim.ready_at > now:
                if victim.transfer_start is None or victim.transfer_start <= now:
                    continue
                if self.canceller is not None:
                    self.canceller(victim, now)
            self._remove(victim)
            self.eviction_log.append((now, victim.impl.name, victim.area))
        return total - used[cg]

    def _remove(self, victim: ConfiguredCopy) -> None:
        copies = self._copies[victim.uid]
        for index, copy in enumerate(copies):
            if copy is victim:
                del copies[index]
                break
        if not copies:
            del self._copies[victim.uid]
        self._used[victim.cg] -= victim.area
        if victim.pinned_by is not None:
            self._pinned[victim.cg] -= victim.area
        self.version += 1

    def clear(self) -> None:
        """Drop every configuration (simulation reset)."""
        self._copies.clear()
        self.eviction_log.clear()
        self._used = [0, 0]
        self._pinned = [0, 0]
        self.version += 1


__all__ = ["ResourceBudget", "ConfiguredCopy", "ResourceState"]
