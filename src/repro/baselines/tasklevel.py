"""A task-level run-time coprocessor manager (after [11], Huang et al.).

Reference [11] of the paper (Huang et al., "Dynamic Coprocessor Management
for FPGA-Enhanced Compute Platforms", CASES 2008) manages reconfigurations
*at run time* but at **task level**: it decides which kernels get
coprocessors when a task (re)starts, not per functional block.  The paper's
critique: "this scheme operates at the task level and thus suffers from
inefficiency when targeting applications that exhibit adaptivity at a finer
level of granularity, e.g. at the functional block level."

We model it as a run-time policy that re-selects only every
``reselect_every_blocks`` block entries (default: once per pass over all
functional blocks x a task quantum), jointly over *all* kernels of the
application, using observed execution counts.  Kernels execute on their
full coprocessor or on the core (a loosely coupled coprocessor has no
intermediate ISEs, and monoCG-Extensions are an mRTS mechanism).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.ecu import ExecutionControlUnit, ExecutionDecision
from repro.core.mpu import MonitoringPredictionUnit
from repro.core.optimal import OptimalSelector
from repro.ise.ise import ISE
from repro.sim.policy import RuntimePolicy, SelectionOutcome
from repro.sim.program import Application
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import check_positive


class TaskLevelPolicy(RuntimePolicy):
    """Run-time selection at task granularity (a [11]-like manager)."""

    name = "task-level"

    def __init__(self, reselect_every_blocks: int = 9):
        """``reselect_every_blocks``: how many functional-block entries pass
        between task-level re-decisions (9 = every three frames of the
        three-block H.264 encoder)."""
        check_positive("reselect_every_blocks", reselect_every_blocks)
        super().__init__()
        self.reselect_every_blocks = reselect_every_blocks
        self.mpu = MonitoringPredictionUnit(alpha=0.5)
        self.ecu: Optional[ExecutionControlUnit] = None
        self._application: Optional[Application] = None
        self._selection: Dict[str, Optional[ISE]] = {}
        self._blocks_seen = 0
        self._epoch = 0

    def prepare(self, application: Application) -> None:
        library, controller = self._require_attached()
        self._application = application
        self.ecu = ExecutionControlUnit(
            controller,
            library,
            enable_monocg=False,
            enable_intermediate=False,
        )

    # ------------------------------------------------------------- events
    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        _, controller = self._require_attached()
        assert self.ecu is not None and self._application is not None
        if self._blocks_seen % self.reselect_every_blocks == 0:
            self._reselect(now)
        self._blocks_seen += 1
        block_selection = {
            trig.kernel: self._selection.get(trig.kernel)
            for trig in profiled_triggers
        }
        return SelectionOutcome(selection=block_selection)

    def _reselect(self, now: int) -> None:
        """Task-level decision: one joint selection over *all* kernels."""
        library, controller = self._require_attached()
        assert self._application is not None and self.ecu is not None
        controller.release_owner(self._owner())
        self._epoch += 1
        triggers: List[TriggerInstruction] = []
        for block in self._application.blocks:
            n_iterations = max(1, len(self._application.iterations_of(block.name)))
            for trig in self._application.profiled_triggers(block.name):
                corrected = self.mpu.forecast(block.name, trig)
                # A valid forecast scaled by a positive count stays valid.
                triggers.append(
                    TriggerInstruction.trusted(
                        corrected.kernel,
                        corrected.executions * n_iterations,
                        corrected.time_to_first,
                        corrected.time_between,
                    )
                )
        selector = OptimalSelector(library, respect_existing=True)
        result = selector.select(triggers, controller, now)
        self._selection = dict(result.selected)
        controller.commit_selection(
            self._selection, owner=self._owner(), now=now, strict=False
        )
        self.ecu.set_selection(self._selection)

    def _owner(self) -> str:
        return f"tasklevel#{self._epoch}"

    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        assert self.ecu is not None, "policy used before prepare()"
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


__all__ = ["TaskLevelPolicy"]
