"""Lookahead mRTS: prefetch the next functional block's FG data paths.

mRTS pays the millisecond FG reconfigurations at the *start* of each
functional block: the first executions run in RISC mode / on
monoCG-Extensions until the bitstream port catches up (Fig. 5).  But while
block ``i`` executes, the port is often idle and some fabric is free -- and
the block sequence of a streaming application is perfectly predictable
(ME -> EE -> LF -> ME -> ...).

:class:`LookaheadMRTS` exploits that: at every block entry it additionally
*predicts* the selection of the next block (same selector, MPU-corrected
triggers) and enqueues the FG data paths of that selection on whatever
fabric is free.  Prefetched configurations are left unpinned -- they are
opportunistic, and a later, better-informed selection may cancel their
pending transfers or evict them; when their block arrives, the regular
selection picks them up as zero-cost coverage.

This is an *extension*: the paper only hides the selector's computation
behind reconfigurations (Section 5.4), not the reconfigurations themselves
behind the previous block.  The ``lookahead.*`` claims
(:mod:`repro.verification.claims`) quantify what it buys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.fabric.datapath import FabricType
from repro.ise.ise import ISE
from repro.sim.policy import SelectionOutcome
from repro.sim.program import Application
from repro.sim.trigger import TriggerInstruction


class LookaheadMRTS(MRTS):
    """mRTS plus cross-block FG reconfiguration prefetching.

    ``allow_eviction`` controls how aggressively the prefetcher claims
    fabric: ``False`` (default) only uses strictly free PRCs; ``True`` also
    evicts unpinned leftovers of older blocks.  Measured result on the
    H.264 sweep (the ``lookahead.*`` claims): the conservative variant
    stays within ~2 % of plain mRTS, the aggressive one swings a few percent
    either way -- the per-block profit function already keeps the expensive
    FG configurations stable across iterations (Step 2b coverage), so a
    predictor has little left to prefetch, and pending-transfer cancellation
    makes mispredictions cheap.  A negative result worth keeping
    reproducible: cross-block prefetching is **not** the easy win it looks
    like in this architecture.
    """

    name = "mrts-lookahead"

    def __init__(
        self,
        config: Optional[MRTSConfig] = None,
        allow_eviction: bool = False,
    ):
        super().__init__(config)
        self.allow_eviction = allow_eviction
        self._block_sequence: List[str] = []
        self._profiled: Dict[str, List[TriggerInstruction]] = {}
        self._entry_index = -1
        self._prefetch_epoch = 0
        self.prefetched_instances = 0

    # ------------------------------------------------------------- set-up
    def prepare(self, application: Application) -> None:
        super().prepare(application)
        self._block_sequence = [it.block for it in application.iterations]
        self._profiled = {
            block.name: application.profiled_triggers(block.name)
            for block in application.blocks
        }

    # ------------------------------------------------------------- events
    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        # Release the previous prefetch pins: the paths stay configured and
        # the regular selection will pick them up as zero-cost coverage.
        _, controller = self._require_attached()
        controller.release_owner(self._prefetch_owner())
        self._entry_index += 1

        outcome = super().on_block_entry(block_name, profiled_triggers, now)

        next_block = self._next_block_name()
        if next_block is not None:
            self._prefetch_for(next_block, now)
        return outcome

    # ------------------------------------------------------------ helpers
    def _next_block_name(self) -> Optional[str]:
        index = self._entry_index + 1
        if 0 <= index < len(self._block_sequence):
            return self._block_sequence[index]
        return None

    def _prefetch_owner(self) -> str:
        return f"prefetch#{self._prefetch_epoch}"

    def _prefetch_for(self, block_name: str, now: int) -> None:
        """Predict the next block's selection and prefetch its FG paths."""
        _, controller = self._require_attached()
        assert self.selector is not None
        profiled = self._profiled.get(block_name)
        if not profiled:
            return
        corrected = [self.mpu.forecast(block_name, trig) for trig in profiled]
        prediction = self.selector.select(corrected, controller, now)
        self._prefetch_epoch += 1
        owner = self._prefetch_owner()
        prefetched_any = False
        for ise in prediction.selected.values():
            if ise is None:
                continue
            for instance in ise.instances:
                if instance.fabric is not FabricType.FG:
                    continue  # CG contexts load in microseconds anyway
                missing = instance.quantity - controller.resources.configured_quantity(
                    instance.impl.name
                )
                if missing <= 0:
                    # Already on the fabric: keep it there for the handover.
                    controller.resources.pin(
                        instance.impl.name, instance.quantity, owner
                    )
                    continue
                # How much fabric may the prefetcher claim?  Strictly free
                # area by default; with allow_eviction also the unpinned
                # leftovers of older blocks (see the class docstring for why
                # that is usually a bad trade).
                if self.allow_eviction:
                    available = controller.resources.allocatable_area(
                        instance.fabric, now
                    )
                else:
                    available = controller.resources.free_area(instance.fabric)
                affordable = min(missing, available // max(1, instance.impl.area))
                if affordable <= 0:
                    continue
                from repro.fabric.datapath import DataPathInstance

                # ensure_configured takes a *total* quantity: existing copies
                # plus the new prefetches.
                total_quantity = (
                    controller.resources.configured_quantity(instance.impl.name)
                    + affordable
                )
                controller.ensure_configured(
                    [DataPathInstance(instance.impl, quantity=total_quantity)],
                    owner=owner,
                    now=now,
                )
                self.prefetched_instances += affordable
                prefetched_any = True
        # Prefetches are opportunistic: release the pins immediately so a
        # later (better-informed) selection can cancel the pending transfers
        # or evict the copies.  The pin only existed to keep this prefetch
        # round internally consistent.
        controller.release_owner(owner)


__all__ = ["LookaheadMRTS"]
