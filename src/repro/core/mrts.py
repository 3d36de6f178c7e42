"""mRTS: the complete run-time system (Fig. 4 of the paper).

Wires the Monitoring & Prediction Unit, the heuristic ISE selector and the
Execution Control Unit into one :class:`~repro.sim.policy.RuntimePolicy`:

* at functional-block entry the MPU corrects the profiled trigger
  instructions, the selector picks the joint profit-maximising ISE set, and
  the reconfiguration controller starts bringing it onto the fabric;
* every kernel execution goes through the ECU cascade (selected ISE ->
  intermediate ISE -> monoCG-Extension -> RISC);
* at block exit the MPU back-propagates the forecast errors and the pins of
  the block's configurations are released (they stay on the fabric and are
  reused by later selections until evicted).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.config import MRTSConfig
from repro.core.ecu import ExecutionControlUnit, ExecutionDecision
from repro.core.mpu import MonitoringPredictionUnit
from repro.core.selector import ISESelector, SelectionResult
from repro.fabric.reconfig import ReconfigurationController
from repro.ise.ise import ISE
from repro.ise.library import ISELibrary
from repro.sim.policy import RuntimePolicy, SelectionOutcome
from repro.sim.trigger import TriggerInstruction


class MRTS(RuntimePolicy):
    """The multi-grained run-time system proposed by the paper."""

    name = "mRTS"

    #: distinguishes owner strings of coexisting policy instances (two
    #: applications sharing one fabric must not release each other's pins)
    _instance_counter = 0

    def __init__(self, config: Optional[MRTSConfig] = None, **overrides):
        """``overrides`` replace fields of ``config`` (e.g.
        ``MRTS(enable_monocg=False)``), which is how a sweep cell's
        ``policy_params`` configure an ablated mRTS."""
        super().__init__()
        self.config = config or MRTSConfig()
        if overrides:
            self.config = dataclasses.replace(self.config, **overrides)
        self.mpu = MonitoringPredictionUnit(
            alpha=self.config.mpu_alpha, window=self.config.mpu_window
        )
        self.selector: Optional[ISESelector] = None
        self.ecu: Optional[ExecutionControlUnit] = None
        self._block_owner: Optional[str] = None
        self._selection_count = 0
        self.total_overhead_cycles = 0
        self.total_charged_overhead_cycles = 0
        MRTS._instance_counter += 1
        self._instance_id = MRTS._instance_counter

    # ------------------------------------------------------------- set-up
    def attach(
        self, library: ISELibrary, controller: ReconfigurationController
    ) -> None:
        super().attach(library, controller)
        self.selector = ISESelector(library, mode=self.config.selector_mode)
        self.ecu = ExecutionControlUnit(
            controller,
            library,
            enable_monocg=self.config.enable_monocg,
            enable_intermediate=self.config.enable_intermediate,
            monocg_breakeven_cycles=self.config.monocg_breakeven_cycles,
        )

    # ------------------------------------------------------------- events
    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        library, controller = self._require_attached()
        assert self.selector is not None and self.ecu is not None
        # Release the previous block's pins: its configurations stay on the
        # fabric (and may cover this block's candidates) but become evictable.
        if self._block_owner is not None:
            controller.release_owner(self._block_owner)
        self.ecu.release_monocg_pins()

        corrected = [self.mpu.forecast(block_name, trig) for trig in profiled_triggers]
        result = self.selector.select(corrected, controller, now)

        self._selection_count += 1
        owner = f"mrts{self._instance_id}:{block_name}#{self._selection_count}"
        self._block_owner = owner
        controller.commit_selection(result.selected, owner=owner, now=now)

        self.ecu.set_selection(result.selected)

        full = self.config.overhead.full_cycles(result)
        charged = self.config.overhead.charged_cycles(
            result, hidden=self.config.hide_selection_overhead
        )
        self.total_overhead_cycles += full
        self.total_charged_overhead_cycles += charged
        return SelectionOutcome(
            selection=dict(result.selected),
            charged_overhead_cycles=charged,
            full_overhead_cycles=full,
            detail=result,
        )

    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        assert self.ecu is not None, "policy used before attach()"
        return self.ecu.execute(kernel_name, now)

    def on_block_exit(
        self,
        block_name: str,
        observed: Mapping[str, Tuple[float, float, float]],
        now: int,
    ) -> None:
        for kernel, (executions, tf, tb) in observed.items():
            self.mpu.observe_trusted(
                block_name,
                kernel,
                actual_executions=executions,
                actual_time_to_first=tf,
                actual_time_between=tb,
            )

    # ---------------------------------------------------------- reporting
    @property
    def selection_count(self) -> int:
        return self._selection_count

    def mean_overhead_per_selection(self) -> float:
        """Average full selector cycles per functional-block selection."""
        if self._selection_count == 0:
            return 0.0
        return self.total_overhead_cycles / self._selection_count


__all__ = ["MRTS"]
