"""Multi-task sharing: two applications, two run-time systems, one fabric.

Goes beyond the opaque background task of :mod:`repro.experiments.contention`:
an H.264 encoder and a JPEG encoder are co-scheduled at functional-block
granularity, each running its own mRTS instance against one shared pool of
PRCs, CG slots and one bitstream port.  The measurement of interest is
*interference*: how much each task's busy cycles grow compared to running
alone on the same fabric -- and how that interference melts away as the
fabric budget grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepCell, SweepEngine, resolve_engine
from repro.util.tables import render_table


@dataclass
class MultiTaskExperimentResult:
    #: budget label -> task name -> (alone busy cycles, co-run busy cycles)
    cells: Dict[str, Dict[str, Tuple[int, int]]]

    def interference(self, budget_label: str, task: str) -> float:
        alone, shared = self.cells[budget_label][task]
        return shared / alone

    def render(self) -> str:
        rows = []
        for label, tasks in self.cells.items():
            for task, (alone, shared) in tasks.items():
                rows.append(
                    [label, task, alone, shared, round(shared / alone, 2)]
                )
        return render_table(
            ["combo(CG,PRC)", "task", "alone (cycles)", "co-run (cycles)", "interference"],
            rows,
            title="Multi-task fabric sharing (H.264 + JPEG, one mRTS each)",
        )


def run_multitask(
    frames: int = 6,
    images: int = 6,
    seed: int = 7,
    budgets: List[Tuple[int, int]] = ((1, 1), (2, 2), (3, 3)),
    engine: Optional[SweepEngine] = None,
) -> MultiTaskExperimentResult:
    """Co-run the two encoders on several fabric budgets.

    One engine run of ``mrts`` cells: per budget, each encoder alone, and
    the co-run -- the H.264 cell with the JPEG encoder as its co-task.
    """
    jpeg = {"workload": "jpeg", "workload_params": {"images": images},
            "seed": seed + 1, "policy": "mrts"}
    cells = [
        cell
        for budget in budgets
        for cell in (
            h264_cell(budget, seed, "mrts", frames),
            SweepCell.make(budget, jpeg["seed"], "mrts", workload="jpeg",
                           workload_params=jpeg["workload_params"]),
            h264_cell(budget, seed, "mrts", frames, co_tasks=[jpeg]),
        )
    ]
    with resolve_engine(engine) as eng:
        records = eng.run(cells)
    results: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for k in range(0, len(records), 3):
        alone_h, alone_j, shared = records[k:k + 3]
        (shared_j,) = shared["co_tasks"]
        results[shared["budget_label"]] = {
            "h264": (alone_h["total_cycles"], shared["total_cycles"]),
            "jpeg": (alone_j["total_cycles"], shared_j["total_cycles"]),
        }
    return MultiTaskExperimentResult(cells=results)


__all__ = ["run_multitask", "MultiTaskExperimentResult"]
