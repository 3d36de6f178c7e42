"""Fig. 10: application speedup compared to RISC-mode execution.

Runs mRTS over the (CG 0..3, PRC 0..3) grid and groups the combinations
into FG-only, CG-only and multi-grained, as the paper's figure does.  The
published shape: FG-only combinations reach ~1.8-2.2x, multi-grained
combinations exceed 5x at the top, and the (1 CG, 1 PRC) combination beats
3 PRCs or 3 CG fabrics alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.common import budget_grid, geometric_mean, grid_cycles
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.fabric.resources import ResourceBudget
from repro.util.tables import render_table


def classify(budget: ResourceBudget) -> str:
    """Group label of a combination: risc / fg-only / cg-only / multi-grained."""
    if budget.n_prcs == 0 and budget.n_cg_fabrics == 0:
        return "risc"
    if budget.n_cg_fabrics == 0:
        return "fg-only"
    if budget.n_prcs == 0:
        return "cg-only"
    return "multi-grained"


@dataclass
class Fig10Result:
    budgets: List[ResourceBudget]
    speedups: List[float]

    def group(self, kind: str) -> Dict[str, float]:
        """Combination label -> speedup for one group."""
        return {
            b.label: s
            for b, s in zip(self.budgets, self.speedups)
            if classify(b) == kind
        }

    def group_range(self, kind: str) -> (float, float):
        values = list(self.group(kind).values())
        return (min(values), max(values)) if values else (0.0, 0.0)

    @property
    def average_speedup(self) -> float:
        return geometric_mean(
            [s for b, s in zip(self.budgets, self.speedups) if classify(b) != "risc"]
        )

    def speedup_of(self, label: str) -> float:
        for b, s in zip(self.budgets, self.speedups):
            if b.label == label:
                return s
        raise KeyError(label)

    def render(self) -> str:
        from repro.util.plot import bar_chart

        rows = [
            [b.label, classify(b), round(s, 2)]
            for b, s in zip(self.budgets, self.speedups)
        ]
        table = render_table(
            ["combo(CG,PRC)", "group", "speedup"],
            rows,
            title="Fig. 10: mRTS speedup over RISC mode",
        )
        table += "\n" + bar_chart(
            [b.label for b in self.budgets],
            self.speedups,
            unit="x",
        )
        fg_lo, fg_hi = self.group_range("fg-only")
        cg_lo, cg_hi = self.group_range("cg-only")
        mg_lo, mg_hi = self.group_range("multi-grained")
        return (
            f"{table}\n"
            f"FG-only: {fg_lo:.2f}-{fg_hi:.2f}x, CG-only: {cg_lo:.2f}-{cg_hi:.2f}x, "
            f"multi-grained: {mg_lo:.2f}-{mg_hi:.2f}x, average {self.average_speedup:.2f}x\n"
            f"(1 CG, 1 PRC) = {self.speedup_of('11'):.2f}x vs 3 PRCs = "
            f"{self.speedup_of('03'):.2f}x vs 3 CG fabrics = {self.speedup_of('30'):.2f}x"
        )


def run_fig10(
    frames: int = 16,
    seed: int = 7,
    max_cg: int = 3,
    max_prc: int = 3,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    backend=None,
    workers=None,
    coordinator=None,
    engine: SweepEngine = None,
) -> Fig10Result:
    """Reproduce Fig. 10 over the (CG 0..max_cg) x (PRC 0..max_prc) grid.

    Engine flags as in :func:`repro.experiments.fig8_comparison.run_fig8`.
    """
    budgets = budget_grid(max_cg, max_prc)
    with resolve_engine(engine, jobs, use_cache, cache_dir, backend=backend,
                        workers=workers, coordinator=coordinator) as eng:
        cycles = grid_cycles(eng, budgets, ["risc", "mrts"], frames, seed)
    speedups = [
        risc / mrts for risc, mrts in zip(cycles["risc"], cycles["mrts"])
    ]
    return Fig10Result(budgets=budgets, speedups=speedups)


__all__ = ["run_fig10", "Fig10Result", "classify"]
