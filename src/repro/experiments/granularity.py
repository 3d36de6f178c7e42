"""Selection granularity: functional-block level vs. task level.

Section 1 of the paper dismisses task-level run-time management ([11],
Huang et al.) because applications "exhibit adaptivity at a finer level of
granularity, e.g. at the functional block level".  This experiment
quantifies that: mRTS (per-block selection) against the [11]-like
task-level manager at several re-decision periods, on the same workload
and fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.util.tables import render_table


@dataclass
class GranularityResult:
    budget_label: str
    mrts_cycles: int
    #: re-decision period (block entries) -> task-level cycles
    task_level_cycles: Dict[int, int]
    risc_cycles: int

    def advantage(self, period: int) -> float:
        """mRTS speedup over the task-level manager at ``period``."""
        return self.task_level_cycles[period] / self.mrts_cycles

    def render(self) -> str:
        rows = [["mRTS (per functional block)", self.mrts_cycles,
                 round(self.risc_cycles / self.mrts_cycles, 2), "-"]]
        for period, cycles in sorted(self.task_level_cycles.items()):
            rows.append(
                [
                    f"task-level (re-decide every {period} blocks)",
                    cycles,
                    round(self.risc_cycles / cycles, 2),
                    round(self.advantage(period), 2),
                ]
            )
        return render_table(
            ["policy", "cycles", "speedup vs RISC", "mRTS advantage"],
            rows,
            title=f"Selection granularity at combination {self.budget_label}",
        )


def run_granularity(
    frames: int = 12,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 2,
    periods: List[int] = (3, 9, 18),
    engine: Optional[SweepEngine] = None,
) -> GranularityResult:
    """Compare per-block selection against task-level re-decision periods."""
    budget = (n_cg, n_prc)
    cells = [
        h264_cell(budget, seed, "risc", frames),
        h264_cell(budget, seed, "mrts", frames),
    ] + [
        h264_cell(budget, seed, "task-level", frames,
                  policy_params={"reselect_every_blocks": period})
        for period in periods
    ]
    with resolve_engine(engine) as eng:
        risc, mrts, *task_level = eng.run(cells)
    return GranularityResult(
        budget_label=risc["budget_label"],
        mrts_cycles=mrts["total_cycles"],
        task_level_cycles={
            period: record["total_cycles"]
            for period, record in zip(periods, task_level)
        },
        risc_cycles=risc["total_cycles"],
    )


__all__ = ["run_granularity", "GranularityResult"]
