"""Resource accounting: who occupies which fabric, and eviction.

The run-time system shares one pool of PRCs and CG fabrics among all kernels
and functional blocks.  :class:`ResourceState` tracks every configured data
path copy, which selection currently *pins* it, and when it becomes ready;
it also implements the least-recently-used replacement the selector relies
on when a new selection needs fabric that stale configurations occupy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.fabric.datapath import DataPathImpl, FabricType
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


@dataclass
class ConfiguredCopy:
    """One configured (or in-flight) copy of a data-path implementation.

    FG copies carry their bitstream-port transfer metadata: the transfer's
    scheduled ``transfer_start`` and its ``port_token``.  A copy whose
    transfer has not started yet is *cancellable* -- evicting it aborts the
    pending transfer (and the port queue reflows); once streaming, the
    transfer is committed and the copy cannot be evicted until ready.
    """

    impl: DataPathImpl
    ready_at: int
    pinned_by: Optional[str] = None
    last_used: int = 0
    transfer_start: Optional[int] = None
    port_token: Optional[int] = None

    @property
    def area(self) -> int:
        return self.impl.area

    @property
    def fabric(self) -> FabricType:
        return self.impl.fabric

    def is_ready(self, now: int) -> bool:
        return self.ready_at <= now

    def is_cancellable(self, now: int) -> bool:
        """In flight, but its port transfer has not started streaming."""
        return (
            not self.is_ready(now)
            and self.transfer_start is not None
            and self.transfer_start > now
        )

    def is_evictable(self, now: int) -> bool:
        """Unpinned and either fully configured or still cancellable."""
        return self.pinned_by is None and (
            self.is_ready(now) or self.is_cancellable(now)
        )


class ResourceState:
    """Occupancy of the reconfigurable fabrics.

    Copies are keyed by the qualified implementation name
    (``"<datapath>@<fabric>"``); several copies of the same implementation
    may coexist (parallelised data paths).
    """

    def __init__(self, budget: ResourceBudget):
        self.budget = budget
        #: per implementation, kept sorted by ``ready_at`` at insertion so
        #: :meth:`ready_at` and :meth:`next_event_after` never re-sort.  The
        #: order survives every mutation: new copies of one implementation
        #: are never scheduled to finish before existing ones (the FG
        #: bitstream port is FIFO, CG context loads take a fixed time), and
        #: port-cancellation reflows shift only *later* transfers earlier,
        #: which preserves per-implementation finish order.
        self._copies: Dict[str, List[ConfiguredCopy]] = {}
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
        #: running area totals of every copy (``_used``) and of the pinned
        #: ones (``_pinned``), indexed by ``fabric is CG`` (FG 0, CG 1) --
        #: enum members hash in Python, a bool indexes in C.  Every
        #: mutation below keeps them, so occupancy queries never re-sum.
        self._used = [0, 0]
        self._pinned = [0, 0]

    # ------------------------------------------------------------ queries
    def copies(self, impl_name: str) -> List[ConfiguredCopy]:
        """All configured or in-flight copies of ``impl_name``."""
        return list(self._copies.get(impl_name, ()))

    def iter_copies(self) -> Iterable[ConfiguredCopy]:
        for copies in self._copies.values():
            yield from copies

    def used_area(self, fabric: FabricType) -> int:
        """Area units of ``fabric`` occupied (ready or in-flight)."""
        return self._used[fabric is _CG]

    def free_area(self, fabric: FabricType) -> int:
        """Unoccupied area units of ``fabric``."""
        return self.budget.total(fabric) - self._used[fabric is _CG]

    def unpinned_area(self, fabric: FabricType) -> int:
        """Area that is free or occupied by evictable (unpinned) copies."""
        return self.budget.total(fabric) - self._pinned[fabric is _CG]

    def allocatable_area(self, fabric: FabricType, now: int) -> int:
        """Area a new selection can claim at ``now``: free area plus the
        area of unpinned copies that are fully configured or whose pending
        port transfer can still be cancelled.  Copies whose bitstream is
        already streaming are untouchable until they complete."""
        evictable = sum(
            c.area
            for c in self.iter_copies()
            if c.fabric is fabric and c.is_evictable(now)
        )
        return self.free_area(fabric) + evictable

    def configured_quantity(self, impl_name: str) -> int:
        """Number of copies of ``impl_name`` configured or in flight."""
        return len(self._copies.get(impl_name, ()))

    def ready_quantity(self, impl_name: str, now: int) -> int:
        """Number of copies of ``impl_name`` ready at cycle ``now``."""
        return sum(1 for c in self._copies.get(impl_name, ()) if c.is_ready(now))

    def ready_at(self, impl_name: str, quantity: int) -> Optional[int]:
        """Cycle at which ``quantity`` copies of ``impl_name`` are ready,
        or ``None`` if fewer copies exist.  O(1): copies are maintained in
        ``ready_at`` order (see ``__init__``), so no per-call sort."""
        copies = self._copies.get(impl_name, ())
        if len(copies) < quantity:
            return None
        return copies[quantity - 1].ready_at

    def next_event_after(self, now: int) -> Optional[int]:
        """The earliest ``ready_at`` strictly after ``now`` across every
        configured copy -- the next cycle at which fabric availability (and
        with it any ECU decision) can change.  ``None`` if nothing is in
        flight beyond ``now``.  Uses the per-implementation sorted order."""
        best: Optional[int] = None
        for copies in self._copies.values():
            index = bisect.bisect_right(copies, now, key=lambda c: c.ready_at)
            if index < len(copies):
                candidate = copies[index].ready_at
                if best is None or candidate < best:
                    best = candidate
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
        copy = ConfiguredCopy(impl=impl, ready_at=ready_at, pinned_by=pinned_by, last_used=ready_at)
        bisect.insort_right(
            self._copies.setdefault(impl.name, []), copy, key=lambda c: c.ready_at
        )
        cg = impl.fabric is _CG
        self._used[cg] += impl.area
        if pinned_by is not None:
            self._pinned[cg] += impl.area
        self.version += 1
        return copy

    def touch(self, impl_name: str, now: int) -> None:
        """Mark ``impl_name`` as used at ``now`` (for LRU replacement)."""
        for copy in self._copies.get(impl_name, ()):
            copy.last_used = max(copy.last_used, now)

    def pin(self, impl_name: str, quantity: int, owner: str) -> int:
        """Pin up to ``quantity`` copies of ``impl_name`` for ``owner``.

        Copies already pinned by ``owner`` count toward ``quantity``.
        Returns the number of copies pinned for the owner after the call.
        """
        pinned = 0
        changed = False
        for copy in self._copies.get(impl_name, ()):
            if pinned >= quantity:
                break
            if copy.pinned_by == owner:
                pinned += 1
            elif copy.pinned_by is None:
                copy.pinned_by = owner
                self._pinned[copy.fabric is _CG] += copy.area
                pinned += 1
                changed = True
        if changed:
            self.version += 1
        return pinned

    def unpin_owner(self, owner: str) -> None:
        """Release every pin held by ``owner`` (e.g. at functional-block exit)."""
        changed = False
        for copy in self.iter_copies():
            if copy.pinned_by == owner:
                copy.pinned_by = None
                self._pinned[copy.fabric is _CG] -= copy.area
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
        hardware.  Ready copies are preferred victims (cancelling a pending
        transfer wastes a decision, evicting a stale configuration wastes
        nothing).  Returns the free area after eviction.
        """
        check_non_negative("area_needed", area_needed)
        if self.free_area(fabric) >= area_needed:
            return self.free_area(fabric)
        victims = sorted(
            (
                c
                for c in self.iter_copies()
                if c.fabric is fabric and c.is_evictable(now)
            ),
            key=lambda c: (0 if c.is_ready(now) else 1, c.last_used),
        )
        for victim in victims:
            if self.free_area(fabric) >= area_needed:
                break
            if victim.is_cancellable(now) and self.canceller is not None:
                self.canceller(victim, now)
            self._remove(victim)
            self.eviction_log.append((now, victim.impl.name, victim.area))
        return self.free_area(fabric)

    def _remove(self, victim: ConfiguredCopy) -> None:
        copies = self._copies.get(victim.impl.name, [])
        copies.remove(victim)
        if not copies:
            self._copies.pop(victim.impl.name, None)
        cg = victim.fabric is _CG
        self._used[cg] -= victim.area
        if victim.pinned_by is not None:
            self._pinned[cg] -= victim.area
        self.version += 1

    def clear(self) -> None:
        """Drop every configuration (simulation reset)."""
        self._copies.clear()
        self.eviction_log.clear()
        self._used = [0, 0]
        self._pinned = [0, 0]
        self.version += 1

    # --------------------------------------------------------- reporting
    def snapshot(self) -> Dict[str, int]:
        """Qualified implementation name -> configured quantity."""
        return {name: len(copies) for name, copies in self._copies.items()}


__all__ = ["ResourceBudget", "ConfiguredCopy", "ResourceState"]
