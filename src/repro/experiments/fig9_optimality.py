"""Fig. 9: the heuristic ISE selection algorithm vs. the optimal algorithm.

Runs mRTS (heuristic selector) and the online-optimal policy (identical
except for an exhaustive-equivalent selector) over the (CG 0..3, PRC 0..6)
grid and reports the percentage performance difference.  The paper's
finding: mostly negligible; within ~3 % whenever at least one CG fabric is
available; worst case ~11 % at 4 PRCs and no CG fabric, where the greedy
heuristic gives 3 of the 4 PRCs to the top kernel while the optimal
algorithm shares them between the two most important kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import budget_grid, grid_cycles
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.fabric.resources import ResourceBudget
from repro.util.tables import render_table


@dataclass
class Fig9Result:
    budgets: List[ResourceBudget]
    heuristic_cycles: List[int]
    optimal_cycles: List[int]

    def percent_difference(self) -> List[float]:
        """Per combination: how much slower the heuristic is than the
        optimal selection, in percent of the heuristic's time (0 = equal;
        negative values mean the heuristic happened to win, which the
        idealised optimal model cannot rule out)."""
        return [
            100.0 * (h - o) / h if h else 0.0
            for h, o in zip(self.heuristic_cycles, self.optimal_cycles)
        ]

    def worst_case(self) -> Tuple[str, float]:
        diffs = self.percent_difference()
        worst = max(range(len(diffs)), key=lambda i: diffs[i])
        return self.budgets[worst].label, diffs[worst]

    def max_difference_with_cg(self) -> float:
        """Worst difference over combinations with at least one CG fabric."""
        return max(
            d
            for d, b in zip(self.percent_difference(), self.budgets)
            if b.n_cg_fabrics >= 1
        )

    def render(self) -> str:
        rows = [
            [b.label, h, o, round(d, 2)]
            for b, h, o, d in zip(
                self.budgets,
                self.heuristic_cycles,
                self.optimal_cycles,
                self.percent_difference(),
            )
        ]
        table = render_table(
            ["combo(CG,PRC)", "heuristic", "optimal", "diff %"],
            rows,
            title="Fig. 9: heuristic vs. optimal run-time selection",
        )
        label, worst = self.worst_case()
        return (
            f"{table}\n"
            f"worst case: {worst:.2f}% at combination {label}; "
            f"max {self.max_difference_with_cg():.2f}% when >=1 CG fabric available"
        )


def run_fig9(
    frames: int = 16,
    seed: int = 7,
    max_cg: int = 3,
    max_prc: int = 6,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    backend=None,
    workers=None,
    coordinator=None,
    engine: SweepEngine = None,
) -> Fig9Result:
    """Reproduce Fig. 9 over the (CG 0..max_cg) x (PRC 0..max_prc) grid.

    Engine flags as in :func:`repro.experiments.fig8_comparison.run_fig8`.
    """
    budgets = budget_grid(max_cg, max_prc)
    with resolve_engine(engine, jobs, use_cache, cache_dir, backend=backend,
                        workers=workers, coordinator=coordinator) as eng:
        cycles = grid_cycles(eng, budgets, ["mrts", "online-optimal"],
                             frames, seed)
    return Fig9Result(
        budgets=budgets,
        heuristic_cycles=cycles["mrts"],
        optimal_cycles=cycles["online-optimal"],
    )


__all__ = ["run_fig9", "Fig9Result"]
