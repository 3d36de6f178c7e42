"""Pure RISC-mode execution: the speedup reference of the evaluation.

Every kernel executes using the basic instruction set of the core processor
(footnote 3 of the paper); the reconfigurable fabrics stay dark.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.ecu import ExecutionDecision, ExecutionMode, ExecutionRun
from repro.sim.policy import RuntimePolicy, SelectionOutcome
from repro.sim.trigger import TriggerInstruction


class RiscModePolicy(RuntimePolicy):
    """No acceleration: the first bar/combination of Figs. 8 and 10."""

    name = "risc"
    time_invariant = True

    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        return SelectionOutcome()

    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        library, _ = self._require_attached()
        kernel = library.kernel(kernel_name)
        return ExecutionDecision(
            kernel=kernel_name,
            mode=ExecutionMode.RISC,
            latency=kernel.risc_latency,
            level=0,
        )

    def execute_run(
        self,
        kernel_name: str,
        now: int,
        max_executions: int,
        gap: int,
    ) -> ExecutionRun:
        """RISC latency is time-invariant, so a whole run is one decision."""
        return ExecutionRun(
            decision=self.execute(kernel_name, now),
            count=max_executions,
            horizon=float("inf"),
        )


__all__ = ["RiscModePolicy"]
