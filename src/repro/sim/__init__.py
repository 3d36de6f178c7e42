"""Cycle-level simulation of the multi-grained reconfigurable processor.

The simulator executes an :class:`~repro.sim.program.Application` -- a
sequence of functional-block iterations, each announced by trigger
instructions and consisting of interleaved kernel executions -- against a
run-time policy (mRTS or one of the baselines).  Reconfigurations proceed in
wall-clock simulated time; every kernel execution is steered by the policy's
execution-control logic onto the best available implementation.
"""

from repro.sim.trigger import TriggerInstruction
from repro.sim.program import (
    KernelIteration,
    BlockIteration,
    FunctionalBlock,
    Application,
)
from repro.sim.policy import RuntimePolicy, SelectionOutcome
from repro.sim.trace import ExecutionRecord, SimulationTrace
from repro.sim.stats import SimulationStats
from repro.sim.simulator import (
    MultiTaskResult,
    SimulationResult,
    Simulator,
    Task,
    TaskResult,
)
from repro.sim.contention import ContentionEvent, ContentionSchedule

__all__ = [
    "TriggerInstruction",
    "KernelIteration",
    "BlockIteration",
    "FunctionalBlock",
    "Application",
    "RuntimePolicy",
    "SelectionOutcome",
    "ExecutionRecord",
    "SimulationTrace",
    "SimulationStats",
    "Simulator",
    "SimulationResult",
    "ContentionEvent",
    "ContentionSchedule",
    "Task",
    "MultiTaskResult",
    "TaskResult",
]
