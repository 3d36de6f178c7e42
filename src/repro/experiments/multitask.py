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

from repro.core.mrts import MRTS
from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepCell, SweepEngine, resolve_engine
from repro.fabric.resources import ResourceBudget
from repro.sim.multitask import MultiTaskSimulator, Task
from repro.util.tables import render_table
from repro.workloads.h264 import h264_application, h264_library
from repro.workloads.jpeg import jpeg_application, jpeg_library


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

    Each task's run alone is an ``mrts`` cell; the co-run is two
    applications under two policies, so it runs on
    :class:`~repro.sim.multitask.MultiTaskSimulator` here.
    """
    with resolve_engine(engine) as eng:
        alone = iter(eng.run([
            cell
            for budget in budgets
            for cell in (
                h264_cell(budget, seed, "mrts", frames),
                SweepCell.make(budget, seed + 1, "mrts", workload="jpeg",
                               workload_params={"images": images}),
            )
        ]))
    h264 = h264_application(frames=frames, seed=seed)
    jpeg = jpeg_application(images=images, seed=seed + 1)
    cells: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for cg, prc in budgets:
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        lib_h = h264_library(budget)
        lib_j = jpeg_library(budget)
        alone_h = next(alone)
        alone_j = next(alone)
        shared = MultiTaskSimulator(
            [
                Task("h264", h264, lib_h, MRTS()),
                Task("jpeg", jpeg, lib_j, MRTS()),
            ],
            budget,
        ).run()
        cells[budget.label] = {
            "h264": (
                alone_h["total_cycles"],
                shared.task("h264").stats.total_cycles,
            ),
            "jpeg": (
                alone_j["total_cycles"],
                shared.task("jpeg").stats.total_cycles,
            ),
        }
    return MultiTaskExperimentResult(cells=cells)


__all__ = ["run_multitask", "MultiTaskExperimentResult"]
