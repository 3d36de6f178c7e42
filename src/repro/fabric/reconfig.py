"""Reconfiguration controller: turns selections into fabric configurations.

The ISE selector outputs a set of ISEs; this controller manages the actual
reconfiguration process (Section 4.1, last paragraph): FG data paths queue
behind the single sequential bitstream port, CG contexts load in parallel in
microseconds, and stale configurations are evicted LRU when a new selection
needs their fabric.

The controller also offers a *preview* mode used by the profit function: it
predicts the completion time ``recT`` of every data-path instance of a
candidate ISE given the current port backlog, without committing anything.

Commit, pinning and eviction address the fabric state by interned
implementation id (``DataPathImpl.uid``); names appear only in the
:class:`ReconfigRequest` log and the returned ready map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.fabric.cg_fabric import CGFabricArray
from repro.fabric.datapath import DataPathInstance, FabricType
from repro.fabric.fg_fabric import FGFabric
from repro.fabric.resources import ConfiguredCopy, ResourceBudget, ResourceState
from repro.util.validation import ReproError, build_trusted


@dataclass(frozen=True)
class ReconfigRequest:
    """A scheduled reconfiguration (for tracing and statistics)."""

    impl_name: str
    fabric: FabricType
    start: int
    done: int
    owner: Optional[str]
    #: cycle at which the run-time system issued the request (start minus
    #: requested_at = time spent queueing behind the bitstream port)
    requested_at: int = 0


class ReconfigurationController:
    """Manages the configuration state of the CG and FG fabrics."""

    def __init__(self, budget: ResourceBudget):
        self.budget = budget
        self.fg = FGFabric(n_prcs=budget.n_prcs)
        self.cg = CGFabricArray(n_fabrics=budget.n_cg_fabrics)
        self.resources = ResourceState(budget)
        self.resources.canceller = self._cancel_copy_transfer
        self.requests: List[ReconfigRequest] = []
        #: port cycles reclaimed by cancelling pending transfers
        self.cancelled_port_cycles: int = 0
        #: port token -> the copy whose transfer it is (for reflow updates)
        self._token_copies: Dict[int, object] = {}

    # ------------------------------------------------------- cancellation
    def _cancel_copy_transfer(self, copy, now: int) -> None:
        """Abort the pending port transfer of an evicted FG copy and apply
        the queue reflow to every other in-flight copy's ready time."""
        if copy.port_token is None:
            raise ReproError(f"copy of {copy.impl.name} has no port transfer")
        updates = self.fg.cancel(copy.port_token, now)
        if updates is None:
            raise ReproError(
                f"transfer of {copy.impl.name} already streaming; not cancellable"
            )
        self._token_copies.pop(copy.port_token, None)
        self.cancelled_port_cycles += copy.impl.reconfig_cycles
        for token, (new_start, new_done) in updates.items():
            other = self._token_copies.get(token)
            if other is not None:
                other.transfer_start = new_start
                other.ready_at = new_done

    # ------------------------------------------------------------ preview
    def preview_ready_times(
        self,
        instances: Sequence[DataPathInstance],
        now: int,
    ) -> List[int]:
        """Predicted cycle at which each instance (full quantity) is ready.

        Instances are assumed to be configured in the given order; FG copies
        queue behind the current port backlog, CG copies load immediately.
        Copies that already exist keep their scheduled ready time.  The
        result has one entry per instance, in order.
        """
        fg_available = max(now, self.fg.port_available_at)
        ready_times: List[int] = []
        # Copies of the same implementation may be shared between instances
        # (e.g. the same data path in several candidate ISEs of one kernel),
        # so track how many existing copies each implementation contributes.
        consumed: Dict[int, int] = {}
        for instance in instances:
            uid = instance.impl.uid
            have = self.resources.count(uid) - consumed.get(uid, 0)
            use_existing = min(max(have, 0), instance.quantity)
            consumed[uid] = consumed.get(uid, 0) + use_existing
            missing = instance.quantity - use_existing
            ready = now
            if use_existing:
                existing_ready = self.resources.ready_time(uid, use_existing)
                if existing_ready is not None:
                    ready = max(ready, existing_ready)
            for _ in range(missing):
                if instance.fabric is FabricType.FG:
                    fg_available += instance.impl.reconfig_cycles
                    ready = max(ready, fg_available)
                else:
                    ready = max(ready, now + instance.impl.reconfig_cycles)
            ready_times.append(ready)
        return ready_times

    # ------------------------------------------------------------- commit
    def ensure_configured(
        self,
        instances: Sequence[DataPathInstance],
        owner: str,
        now: int,
    ) -> Dict[str, int]:
        """Configure (and pin) every instance; returns impl name -> ready_at.

        Existing copies are reused and re-pinned; missing copies are
        scheduled, evicting unpinned LRU configurations if their fabric is
        occupied.  Raises :class:`ReproError` if pinned configurations leave
        insufficient fabric (the selector must have checked fit beforehand).
        """
        return self._configure(instances, owner, now, [])

    def _configure(
        self,
        instances: Sequence[DataPathInstance],
        owner: str,
        now: int,
        victims: List[List[ConfiguredCopy]],
    ) -> Dict[str, int]:
        """:meth:`ensure_configured` within one commit: ``victims`` holds
        the commit's victim order (:meth:`ResourceState.victim_order`),
        collected on the first missing copy that needs eviction and shared
        by every later one (empty until then)."""
        resources = self.resources
        ready: Dict[str, int] = {}
        for instance in instances:
            impl = instance.impl
            uid = impl.uid
            fabric = impl.fabric
            area = impl.area
            quantity = instance.quantity
            already = resources.count(uid)
            pinned = resources.pin_id(uid, quantity, owner)
            for _ in range(quantity - min(already, quantity)):
                area_free = resources.free_area(fabric)
                if area_free < area:
                    if not victims:
                        victims.extend(resources.victim_order(now))
                    area_free = resources.evict_in_order(
                        victims[fabric is FabricType.CG], fabric, area, now
                    )
                    if area_free < area:
                        raise ReproError(
                            f"no fabric for {impl.name}: {area} units of "
                            f"{fabric} needed, {area_free} free after eviction"
                        )
                token = None
                if fabric is FabricType.FG:
                    start, done, token = self.fg.schedule_trusted(
                        now, impl.reconfig_cycles
                    )
                else:
                    start, done = self.cg.schedule_trusted(now, impl.reconfig_cycles)
                copy = resources.add_copy(impl, ready_at=done, pinned_by=owner)
                if token is not None:
                    copy.transfer_start = start
                    copy.port_token = token
                    self._token_copies[token] = copy
                self.requests.append(
                    build_trusted(
                        ReconfigRequest,
                        impl_name=impl.name,
                        fabric=fabric,
                        start=start,
                        done=done,
                        owner=owner,
                        requested_at=now,
                    )
                )
            if pinned < quantity:
                resources.pin_id(uid, quantity, owner)
            ready_at = resources.ready_time(uid, quantity)
            ready[impl.name] = now if ready_at is None else ready_at
        return ready

    def release_owner(self, owner: str) -> None:
        """Unpin every configuration held by ``owner``."""
        self.resources.unpin_owner(owner)

    def commit_selection(
        self,
        selection: "Mapping[str, Optional[object]]",
        owner: str,
        now: int,
        strict: bool = True,
    ) -> List[str]:
        """Configure every ISE of ``selection`` (kernel -> ISE or None).

        Two phases: first *pin* every already-configured copy any selected
        ISE relies on (the selector counted those as coverage), then
        schedule the missing reconfigurations.  Without the pinning phase,
        committing one ISE could evict a copy a later ISE's fit check
        depended on.

        With ``strict=False`` an ISE that no longer fits (e.g. another task
        claimed the fabric since the selection was made) is skipped instead
        of raising; its kernel falls back to RISC mode / the ECU cascade.
        Returns the kernels whose ISEs were skipped.
        """
        pin_id = self.resources.pin_id
        for ise in selection.values():
            if ise is not None:
                for instance in ise.instances:
                    pin_id(instance.impl.uid, instance.quantity, owner)
        skipped: List[str] = []
        # One victim order serves the whole commit (``_configure``).
        victims: List[List[ConfiguredCopy]] = []
        for kernel, ise in selection.items():
            if ise is None:
                continue
            try:
                self._configure(ise.instances, owner, now, victims)
            except ReproError:
                if strict:
                    raise
                skipped.append(kernel)
        return skipped

    # --------------------------------------------------------------- misc
    def next_event_after(self, now: int) -> Optional[int]:
        """The next cycle after ``now`` at which fabric availability changes
        (the earliest pending ``ready_at``), or ``None`` when nothing is in
        flight -- the event-driven simulator's global fast-forward bound."""
        return self.resources.next_event_after(now)

    def free_cg_fabric_available(self, now: int) -> bool:
        """Whether a CG context slot is free, or held by a copy eviction
        can remove at ``now``, for a monoCG-Extension.  An unpinned copy
        that is still loading is neither: eviction cannot abort it."""
        return self.resources.allocatable_area(FabricType.CG, now) >= 1

    def reset(self) -> None:
        """Drop all configuration state (simulation reset)."""
        self.resources.clear()
        self.fg.reset_port()
        self.requests.clear()
        self.cancelled_port_cycles = 0
        self._token_copies.clear()

    @property
    def reconfig_count(self) -> int:
        """Total number of scheduled reconfigurations so far."""
        return len(self.requests)


__all__ = ["ReconfigurationController", "ReconfigRequest"]
