"""Section 5.4: implementation overhead of mRTS.

Measures the selector's modelled cycle cost per functional-block selection
(the paper: on average less than 3000 cycles per kernel, about 1.9 % of an
average functional block's execution time) and how much of it the
selection/reconfiguration overlap hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.util.tables import render_table


@dataclass
class OverheadResult:
    selections: int
    kernels_selected: int
    total_overhead_cycles: int
    charged_overhead_cycles: int
    total_cycles: int
    mean_block_cycles: float

    @property
    def cycles_per_selection(self) -> float:
        return self.total_overhead_cycles / max(1, self.selections)

    @property
    def cycles_per_kernel(self) -> float:
        """The paper's '<3000 cycles to select an ISE for each kernel'."""
        return self.total_overhead_cycles / max(1, self.kernels_selected)

    @property
    def fraction_of_block_time(self) -> float:
        """Full overhead per selection relative to a mean block iteration
        (the paper's ~1.9 %)."""
        if self.mean_block_cycles == 0:
            return 0.0
        return self.cycles_per_selection / self.mean_block_cycles

    @property
    def hidden_fraction(self) -> float:
        """Share of the selector work hidden behind reconfigurations."""
        if self.total_overhead_cycles == 0:
            return 0.0
        return 1.0 - self.charged_overhead_cycles / self.total_overhead_cycles

    def render(self) -> str:
        rows = [
            ["selections (block entries)", self.selections],
            ["kernel selections", self.kernels_selected],
            ["mean cycles per kernel selection", round(self.cycles_per_kernel, 1)],
            ["mean cycles per block selection", round(self.cycles_per_selection, 1)],
            ["fraction of block execution time", f"{100 * self.fraction_of_block_time:.2f}%"],
            ["hidden behind reconfiguration", f"{100 * self.hidden_fraction:.2f}%"],
            ["charged fraction of total runtime", f"{100 * self.charged_overhead_cycles / self.total_cycles:.3f}%"],
        ]
        return render_table(
            ["metric", "value"], rows, title="Section 5.4: mRTS overhead"
        )


def run_overhead(
    frames: int = 16,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 2,
    engine: Optional[SweepEngine] = None,
) -> OverheadResult:
    """Measure the mRTS overhead on the H.264 encoder (one ``mrts`` cell)."""
    cell = h264_cell((n_cg, n_prc), seed, "mrts", frames,
                     metrics={"block_profile": {}})
    with resolve_engine(engine) as eng:
        [record] = eng.run([cell])
    profile = record["metrics"]["block_profile"]
    return OverheadResult(
        selections=record["selections"],
        kernels_selected=profile["kernels_selected"],
        total_overhead_cycles=record["overhead_cycles_full"],
        charged_overhead_cycles=record["overhead_cycles_charged"],
        total_cycles=record["total_cycles"],
        mean_block_cycles=profile["mean_block_cycles"],
    )


__all__ = ["run_overhead", "OverheadResult"]
