"""Aggregate statistics of a simulation run.

Everything the evaluation section of the paper reports is derived from
these counters: total execution cycles (Fig. 8), speedups (Figs. 8/10),
execution-mode breakdowns (the monoCG / intermediate-ISE analyses), and the
run-time system overhead (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ecu import ExecutionMode


@dataclass
class SimulationStats:
    """Counters accumulated by :class:`repro.sim.simulator.Simulator`."""

    total_cycles: int = 0
    gap_cycles: int = 0                 #: non-kernel application code
    kernel_cycles: int = 0              #: cycles spent inside kernel executions
    overhead_cycles_charged: int = 0    #: selector cycles that delayed the app
    overhead_cycles_full: int = 0       #: selector cycles including hidden part
    executions_by_mode: Dict[str, int] = field(default_factory=dict)
    cycles_by_mode: Dict[str, int] = field(default_factory=dict)
    block_cycles: Dict[str, int] = field(default_factory=dict)
    block_entries: Dict[str, int] = field(default_factory=dict)
    reconfigurations: int = 0
    selections: int = 0
    # Selector-core counters (policies exposing a selection detail only;
    # see repro.core.selector.SelectionResult).  Deliberately NOT part of
    # :meth:`to_payload`: the golden-trace snapshots compare whole payloads,
    # and these describe how the reproduction computed the selection, not
    # what the modelled hardware did.
    profit_evaluations: int = 0         #: logical Fig. 6 evaluations
    evaluations_recomputed: int = 0     #: Eq. 2-4 computations actually run
    evaluations_skipped: int = 0        #: served from the round-to-round cache
    evaluations_pruned: int = 0         #: discarded by the profit upper bound
    selector_invalidations: int = 0     #: cache entries dirtied by commits
    selector_rounds: int = 0            #: greedy rounds across all selections
    # Engine counters (how the reproduction *executed* the run, not what the
    # modelled hardware did -- excluded from :meth:`to_payload` like the
    # selector counters, so golden snapshots stay engine-independent).
    ecu_calls: int = 0                  #: Fig. 7 cascade evaluations
    executions_fastforwarded: int = 0   #: executions served without a cascade
    events_processed: int = 0           #: regime recomputations (horizon
                                        #: crossings / fabric mutations)

    # ------------------------------------------------------------ update
    def record_execution(self, mode: "ExecutionMode", latency: int) -> None:
        key = mode.value
        self.executions_by_mode[key] = self.executions_by_mode.get(key, 0) + 1
        self.cycles_by_mode[key] = self.cycles_by_mode.get(key, 0) + latency
        self.kernel_cycles += latency

    def record_execution_run(
        self, mode: "ExecutionMode", latency: int, count: int
    ) -> None:
        """O(1) accounting for ``count`` identical executions."""
        key = mode.value
        self.executions_by_mode[key] = (
            self.executions_by_mode.get(key, 0) + count
        )
        self.cycles_by_mode[key] = (
            self.cycles_by_mode.get(key, 0) + count * latency
        )
        self.kernel_cycles += count * latency

    def record_block(self, block: str, cycles: int) -> None:
        self.block_cycles[block] = self.block_cycles.get(block, 0) + cycles
        self.block_entries[block] = self.block_entries.get(block, 0) + 1

    def record_selection_detail(self, detail) -> None:
        """Accumulate the selector-core counters of one selection.

        ``detail`` is duck-typed (any object with the
        :class:`~repro.core.selector.SelectionResult` counter attributes),
        so baseline policies without a selection detail simply never call
        this.
        """
        self.profit_evaluations += detail.profit_evaluations
        self.evaluations_recomputed += detail.evaluations_recomputed
        self.evaluations_skipped += detail.evaluations_skipped
        self.evaluations_pruned += detail.evaluations_pruned
        self.selector_invalidations += detail.invalidations
        self.selector_rounds += detail.rounds

    # ----------------------------------------------------------- queries
    @property
    def total_executions(self) -> int:
        return sum(self.executions_by_mode.values())

    def executions(self, mode_value: str) -> int:
        return self.executions_by_mode.get(mode_value, 0)

    def mode_fraction(self, mode_value: str) -> float:
        """Fraction of executions served in ``mode_value``."""
        total = self.total_executions
        if total == 0:
            return 0.0
        return self.executions_by_mode.get(mode_value, 0) / total

    def accelerated_fraction(self) -> float:
        """Fraction of executions served by any hardware implementation."""
        return 1.0 - self.mode_fraction("risc")

    def overhead_fraction(self) -> float:
        """Charged run-time-system overhead as a fraction of total cycles."""
        if self.total_cycles == 0:
            return 0.0
        return self.overhead_cycles_charged / self.total_cycles

    def mean_block_cycles(self) -> float:
        entries = sum(self.block_entries.values())
        if entries == 0:
            return 0.0
        return sum(self.block_cycles.values()) / entries

    def selector_cache_hit_rate(self) -> float:
        """Fraction of logical evaluations the selector did not compute
        (cache hits plus bound prunes); 0.0 when nothing was recorded."""
        if self.profit_evaluations == 0:
            return 0.0
        return (
            self.evaluations_skipped + self.evaluations_pruned
        ) / self.profit_evaluations

    def selector_payload(self) -> Dict[str, object]:
        """The selector-core counters as a JSON-able dict.

        Kept separate from :meth:`to_payload` on purpose -- the golden
        snapshots compare the full payload and must not depend on the
        selector implementation.
        """
        return {
            "profit_evaluations": self.profit_evaluations,
            "evaluations_recomputed": self.evaluations_recomputed,
            "evaluations_skipped": self.evaluations_skipped,
            "evaluations_pruned": self.evaluations_pruned,
            "selector_invalidations": self.selector_invalidations,
            "selector_rounds": self.selector_rounds,
            "cache_hit_rate": self.selector_cache_hit_rate(),
        }

    def engine_payload(self) -> Dict[str, object]:
        """The execution-engine counters as a JSON-able dict.

        Like :meth:`selector_payload`, deliberately separate from
        :meth:`to_payload`: the stepped and packed engines must
        produce byte-identical golden payloads while reporting how much
        cascade work each actually performed.
        """
        total = self.total_executions
        return {
            "ecu_calls": self.ecu_calls,
            "executions_fastforwarded": self.executions_fastforwarded,
            "events_processed": self.events_processed,
            "fastforward_fraction": (
                self.executions_fastforwarded / total if total else 0.0
            ),
        }

    def speedup_over(self, baseline: "SimulationStats") -> float:
        """Speedup of this run relative to ``baseline`` (e.g. RISC mode)."""
        if self.total_cycles == 0:
            return 0.0
        return baseline.total_cycles / self.total_cycles

    # ------------------------------------------------------ serialisation
    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-able form (sorted keys throughout) -- the stats
        half of the golden-trace regression snapshots."""
        return {
            "total_cycles": self.total_cycles,
            "gap_cycles": self.gap_cycles,
            "kernel_cycles": self.kernel_cycles,
            "overhead_cycles_charged": self.overhead_cycles_charged,
            "overhead_cycles_full": self.overhead_cycles_full,
            "executions_by_mode": dict(sorted(self.executions_by_mode.items())),
            "cycles_by_mode": dict(sorted(self.cycles_by_mode.items())),
            "block_cycles": dict(sorted(self.block_cycles.items())),
            "block_entries": dict(sorted(self.block_entries.items())),
            "reconfigurations": self.reconfigurations,
            "selections": self.selections,
        }


__all__ = ["SimulationStats"]
