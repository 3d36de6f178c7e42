"""Shared machinery of the compile-time (static) selection baselines.

Morpheus/4S-like systems and the offline-optimal comparator both decide the
fabric assignment *before* the application runs, from profiled execution
counts, and never revise it.  The whole application shares the budget
simultaneously: the offline selection distributes the reconfigurable fabric
judiciously among all kernels of all functional blocks (Section 5.2,
"Comparison with offline selection"), configures it once at start-up, and
pays no run-time selection overhead -- but cannot react to the run-time
variation of execution counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.ecu import ExecutionControlUnit, ExecutionDecision
from repro.core.optimal import OptimalSelector
from repro.ise.ise import ISE
from repro.sim.policy import RuntimePolicy, SelectionOutcome
from repro.sim.program import Application
from repro.sim.trigger import TriggerInstruction


class StaticSelectionPolicy(RuntimePolicy):
    """Optimal compile-time selection over the whole application."""

    name = "static"

    def __init__(
        self,
        candidate_filter: Optional[Callable[[ISE], bool]] = None,
        enable_intermediate: bool = True,
    ):
        super().__init__()
        self.candidate_filter = candidate_filter
        self.enable_intermediate = enable_intermediate
        self.ecu: Optional[ExecutionControlUnit] = None
        self._selection: Dict[str, Optional[ISE]] = {}
        self._committed = False

    # ------------------------------------------------------------ offline
    def prepare(self, application: Application) -> None:
        """Compile-time phase: whole-application optimal selection."""
        library, controller = self._require_attached()
        triggers = self._application_triggers(application)
        selector = OptimalSelector(
            library,
            respect_existing=False,
            candidate_filter=self.candidate_filter,
        )
        result = selector.select(triggers, controller, now=0)
        self._selection = dict(result.selected)
        self.ecu = ExecutionControlUnit(
            controller,
            library,
            enable_monocg=False,  # the monoCG-Extension is an mRTS feature
            enable_intermediate=self.enable_intermediate,
        )
        self.ecu.set_selection(self._selection)
        self._committed = False

    @staticmethod
    def _application_triggers(application: Application) -> List[TriggerInstruction]:
        """Whole-run forecast per kernel: profiled per-iteration numbers
        scaled by how often the kernel's block iterates."""
        triggers: List[TriggerInstruction] = []
        for block in application.blocks:
            n_iterations = len(application.iterations_of(block.name))
            for trig in application.profiled_triggers(block.name):
                # A valid trigger scaled by a positive count stays valid.
                triggers.append(
                    TriggerInstruction.trusted(
                        trig.kernel,
                        trig.executions * max(1, n_iterations),
                        trig.time_to_first,
                        trig.time_between,
                    )
                )
        return triggers

    # ------------------------------------------------------------- events
    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        _, controller = self._require_attached()
        if not self._committed:
            # Start-up: configure the static selection once.  A compile-time
            # selection cannot anticipate fabric claimed by other tasks at
            # run time, so kernels whose ISE no longer fits simply lose it
            # (non-strict commit) -- the inflexibility the paper criticises.
            controller.commit_selection(
                self._selection, owner="static", now=now, strict=False
            )
            self._committed = True
        block_selection = {
            trig.kernel: self._selection.get(trig.kernel)
            for trig in profiled_triggers
        }
        return SelectionOutcome(selection=block_selection)

    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        assert self.ecu is not None, "policy used before prepare()"
        return self.ecu.execute(kernel_name, now)


__all__ = ["StaticSelectionPolicy"]
