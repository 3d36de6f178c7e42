"""The run-time policy interface the simulator drives.

A policy is everything between the application and the fabric: it reacts to
trigger instructions at functional-block entry (selection), steers every
kernel execution (execution control), and observes the finished iteration
(monitoring).  mRTS and every baseline of the paper's evaluation implement
this interface, so the simulator is policy-agnostic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.fabric.reconfig import ReconfigurationController
from repro.ise.ise import ISE
from repro.ise.library import ISELibrary
from repro.sim.trigger import TriggerInstruction

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.ecu import ExecutionDecision, ExecutionRun
    from repro.sim.program import Application


@dataclass
class SelectionOutcome:
    """What a policy decided at functional-block entry."""

    selection: Dict[str, Optional[ISE]] = field(default_factory=dict)
    #: selector cycles that delay the application (after overhead hiding)
    charged_overhead_cycles: int = 0
    #: total selector cycles including the hidden part
    full_overhead_cycles: int = 0
    #: the raw selection result, if the policy ran a selector
    detail: Any = None


class RuntimePolicy(abc.ABC):
    """Base class of mRTS and the baseline run-time systems."""

    #: short identifier used in result tables
    name: str = "policy"

    #: True when :meth:`execute` serves a kernel the same way whenever it
    #: runs and whatever ran before (no fabric, no selection): the packed
    #: simulator engine then folds whole iterations in closed form.
    time_invariant: bool = False

    def __init__(self) -> None:
        self.library: Optional[ISELibrary] = None
        self.controller: Optional[ReconfigurationController] = None

    # ------------------------------------------------------------ set-up
    def attach(
        self, library: ISELibrary, controller: ReconfigurationController
    ) -> None:
        """Bind the policy to the compile-time library and the fabric."""
        self.library = library
        self.controller = controller

    def prepare(self, application: "Application") -> None:
        """Offline phase (compile-time policies override this to make their
        static selection from the application profile)."""

    # ------------------------------------------------------------ events
    @abc.abstractmethod
    def on_block_entry(
        self,
        block_name: str,
        profiled_triggers: Sequence[TriggerInstruction],
        now: int,
    ) -> SelectionOutcome:
        """React to the trigger instructions of a functional block."""

    @abc.abstractmethod
    def execute(self, kernel_name: str, now: int) -> "ExecutionDecision":
        """Steer one kernel execution (the ECU hook)."""

    def execute_run(
        self,
        kernel_name: str,
        now: int,
        max_executions: int,
        gap: int,
    ) -> "ExecutionRun":
        """Steer up to ``max_executions`` back-to-back executions of
        ``kernel_name`` (the first at ``now``, each next one ``gap`` cycles
        after the previous one finished) -- the packed simulator engine's
        batch hook.

        Policies steering through an :class:`ExecutionControlUnit` (an
        ``ecu`` attribute) inherit its horizon-aware fast-forwarding; any
        other policy falls back to one :meth:`execute` per call, which
        makes the packed engine behave exactly like the stepped loop.
        """
        ecu = getattr(self, "ecu", None)
        if ecu is not None:
            return ecu.execute_run(kernel_name, now, max_executions, gap)
        from repro.core.ecu import ExecutionRun

        decision = self.execute(kernel_name, now)
        return ExecutionRun(
            decision=decision, count=1, horizon=float(now + 1)
        )

    def on_block_exit(
        self,
        block_name: str,
        observed: Mapping[str, Tuple[float, float, float]],
        now: int,
    ) -> None:
        """Observe the finished iteration.

        ``observed`` maps kernel name to the actual
        ``(executions, time_to_first, time_between)`` of the iteration.
        """

    # ------------------------------------------------------------ helpers
    def _require_attached(
        self,
    ) -> Tuple[ISELibrary, ReconfigurationController]:
        if self.library is None or self.controller is None:
            raise RuntimeError(f"policy {self.name!r} used before attach()")
        return self.library, self.controller


__all__ = ["RuntimePolicy", "SelectionOutcome"]
