"""Run-time fabric contention: variation (b) of the paper's Section 1.

The paper motivates run-time ISE selection with three run-time variations;
(b) is the available fabric being "shared among various tasks".  This
experiment co-runs a background task that periodically claims part of the
PRCs and CG slots, and compares how each run-time system copes:

* mRTS re-selects at every functional block against whatever fabric is
  currently available -- graceful degradation;
* the RISPP-like system also adapts, but with its mis-tuned cost function;
* the compile-time approaches (offline-optimal, Morpheus/4S-like) cannot
  re-decide: whatever part of their static selection lost its fabric is
  simply gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.util.tables import render_table

#: The compared run-time systems, by registered policy name.
POLICIES = ("mrts", "rispp", "offline-optimal", "morpheus4s")


@dataclass
class ContentionResult:
    budget_label: str
    #: policy -> cycles without contention
    baseline_cycles: Dict[str, int]
    #: policy -> cycles with the background task
    contended_cycles: Dict[str, int]
    contention_description: str

    def degradation(self, policy: str) -> float:
        """Slowdown factor caused by the background task (1.0 = unaffected)."""
        return self.contended_cycles[policy] / self.baseline_cycles[policy]

    def render(self) -> str:
        rows = [
            [
                name,
                self.baseline_cycles[name],
                self.contended_cycles[name],
                round(self.degradation(name), 2),
            ]
            for name in POLICIES
        ]
        table = render_table(
            ["policy", "alone (cycles)", "contended (cycles)", "degradation"],
            rows,
            title=f"Fabric contention at combination {self.budget_label} "
            f"({self.contention_description})",
        )
        return table


def run_contention(
    frames: int = 12,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 3,
    claimed_prcs: int = 2,
    claimed_cg_slots: int = 4,
    periods: int = 8,
    engine: Optional[SweepEngine] = None,
) -> ContentionResult:
    """Compare policies with and without a periodic background task.

    Two engine runs: the uncontended baseline, whose longest run sets the
    background task's period, then the same cells under contention.
    """
    budget = (n_cg, n_prc)
    with resolve_engine(engine) as eng:
        alone = eng.run(
            [h264_cell(budget, seed, name, frames) for name in POLICIES]
        )
        horizon = max(record["total_cycles"] for record in alone)
        period = max(1, horizon // periods)
        contention = {
            "period": period,
            "duty_prcs": claimed_prcs,
            "duty_cg_slots": claimed_cg_slots,
            "until": 2 * horizon,
        }
        contended = eng.run([
            h264_cell(budget, seed, name, frames, contention=contention)
            for name in POLICIES
        ])

    description = (
        f"background task holds {claimed_prcs} PRCs + {claimed_cg_slots} CG slots "
        f"every other ~{period:,} cycles"
    )
    return ContentionResult(
        budget_label=alone[0]["budget_label"],
        baseline_cycles=_cycles(alone),
        contended_cycles=_cycles(contended),
        contention_description=description,
    )


def _cycles(records) -> Dict[str, int]:
    return {record["policy"]: record["total_cycles"] for record in records}


__all__ = ["run_contention", "ContentionResult", "POLICIES"]
