"""Execution traces: what happened, cycle by cycle.

Optional detailed recording of every kernel execution (and, via the
reconfiguration controller, every reconfiguration).  Traces power the
in-depth analyses (mode breakdowns, Fig. 5-style timelines) and the
self-checks of the test suite; large sweeps disable them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ecu import ExecutionMode


@dataclass(frozen=True)
class ExecutionRecord:
    """One kernel execution as steered by the policy."""

    time: int            #: cycle at which the execution started
    block: str
    kernel: str
    mode: "ExecutionMode"
    latency: int
    level: int
    ise_name: Optional[str]


@dataclass(frozen=True)
class ExecutionRunRecord:
    """A fast-forwarded batch of identical executions (packed engine).

    ``count`` executions of ``kernel``, the first starting at ``time``,
    each subsequent one ``period`` (= gap + latency) cycles later, all
    served by the same cascade decision.  :meth:`expand` reconstructs the
    exact per-execution records the stepped loop would have emitted, so
    run-length recording never changes a trace payload.
    """

    time: int            #: cycle at which the first execution started
    block: str
    kernel: str
    mode: "ExecutionMode"
    latency: int
    level: int
    ise_name: Optional[str]
    count: int
    period: int

    def expand(self) -> List[ExecutionRecord]:
        """The equivalent per-execution records, in execution order."""
        return [
            ExecutionRecord(
                time=self.time + index * self.period,
                block=self.block,
                kernel=self.kernel,
                mode=self.mode,
                latency=self.latency,
                level=self.level,
                ise_name=self.ise_name,
            )
            for index in range(self.count)
        ]


@dataclass(frozen=True)
class SelectionRecord:
    """Selector-core counters of one functional-block selection.

    Captured from the policy's selection detail (duck-typed against
    :class:`~repro.core.selector.SelectionResult`); excluded from
    :meth:`SimulationTrace.to_payload` so the golden snapshots stay
    independent of the selector implementation.
    """

    time: int            #: cycle of the block entry
    block: str
    mode: str            #: selector that decided: "naive" | "packed" (the
                         #: greedy Fig. 6 selector) or "optimal" (the DP of
                         #: repro.core.optimal, also when its greedy plan won)
    rounds: int
    profit_evaluations: int
    evaluations_recomputed: int
    evaluations_skipped: int
    evaluations_pruned: int
    invalidations: int


@dataclass
class SimulationTrace:
    """Chronological record of a simulation run."""

    executions: List[ExecutionRecord] = field(default_factory=list)
    #: block name -> list of (entry_cycle, exit_cycle)
    block_windows: Dict[str, List[tuple]] = field(default_factory=dict)
    #: per-selection selector counters (policies with a selection detail)
    selections: List[SelectionRecord] = field(default_factory=list)
    #: run-length records of the packed engine (empty under the stepped
    #: engine); their expansions are already part of ``executions``
    runs: List[ExecutionRunRecord] = field(default_factory=list)

    def record_execution(self, record: ExecutionRecord) -> None:
        self.executions.append(record)

    def record_execution_run(self, run: ExecutionRunRecord) -> None:
        """Record a fast-forwarded batch: the run is kept for engine
        observability and expanded back into per-execution records so
        every trace consumer (and the golden snapshots) sees the exact
        stepped-loop sequence."""
        self.runs.append(run)
        self.executions.extend(run.expand())

    def record_block_window(self, block: str, entry: int, exit_: int) -> None:
        self.block_windows.setdefault(block, []).append((entry, exit_))

    def record_selection(self, record: SelectionRecord) -> None:
        self.selections.append(record)

    def selections_payload(self) -> List[Dict[str, object]]:
        """The selection records as JSON-able dicts (not part of
        :meth:`to_payload`; see :class:`SelectionRecord`)."""
        return [
            {
                "time": r.time,
                "block": r.block,
                "mode": r.mode,
                "rounds": r.rounds,
                "profit_evaluations": r.profit_evaluations,
                "evaluations_recomputed": r.evaluations_recomputed,
                "evaluations_skipped": r.evaluations_skipped,
                "evaluations_pruned": r.evaluations_pruned,
                "invalidations": r.invalidations,
            }
            for r in self.selections
        ]

    def executions_of(self, kernel: str) -> List[ExecutionRecord]:
        return [r for r in self.executions if r.kernel == kernel]

    def mode_sequence(self, kernel: str) -> List[str]:
        """The execution-mode string of every execution of ``kernel`` in
        order -- handy for asserting the ECU cascade (RISC/monoCG first,
        then intermediates, then the full ISE)."""
        return [r.mode.value for r in self.executions_of(kernel)]

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-able form -- the trace half of the golden-trace
        regression snapshots (modes as their string values)."""
        return {
            "executions": [
                {
                    "time": r.time,
                    "block": r.block,
                    "kernel": r.kernel,
                    "mode": r.mode.value,
                    "latency": r.latency,
                    "level": r.level,
                    "ise_name": r.ise_name,
                }
                for r in self.executions
            ],
            "block_windows": {
                block: [list(window) for window in windows]
                for block, windows in sorted(self.block_windows.items())
            },
        }


__all__ = [
    "ExecutionRecord",
    "ExecutionRunRecord",
    "SelectionRecord",
    "SimulationTrace",
]
