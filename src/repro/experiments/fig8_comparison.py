"""Fig. 8: comparison with the state of the art.

For every fabric combination (CG fabrics 0..4 x PRCs 0..3, labelled "00" ..
"43" as on the paper's x-axis) the H.264 encoder is executed under the
RISPP-like approach, the offline-optimal selection, the Morpheus/4S-like
approach, and mRTS.  The result carries the execution times (the bars) and
the three speedup series of mRTS over each competitor (the lines), plus the
summary statistics the paper quotes: average/maximum speedups and the
parity cases (RISPP at CG=0; Morpheus/4S at single-granularity combos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.common import budget_grid, geometric_mean, grid_cycles
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.fabric.resources import ResourceBudget
from repro.util.tables import render_table

#: The compared run-time systems (the Fig. 8 bars), by registered policy name.
APPROACHES = ("rispp", "offline-optimal", "morpheus4s", "mrts")


@dataclass
class Fig8Result:
    budgets: List[ResourceBudget]
    #: approach -> execution time (cycles) per budget, same order as budgets
    cycles: Dict[str, List[int]]
    risc_cycles: List[int]

    def speedup_series(self, versus: str) -> List[float]:
        """mRTS speedup over ``versus`` per combination (the Fig. 8 lines)."""
        return [
            v / m for v, m in zip(self.cycles[versus], self.cycles["mrts"])
        ]

    def average_speedup(self, versus: str, skip_trivial: bool = True) -> float:
        values = [
            s
            for s, b in zip(self.speedup_series(versus), self.budgets)
            if not (skip_trivial and b.n_prcs == 0 and b.n_cg_fabrics == 0)
        ]
        return geometric_mean(values)

    def max_speedup(self, versus: str) -> float:
        return max(self.speedup_series(versus))

    def parity_budgets(self, versus: str, tolerance: float = 0.05) -> List[str]:
        """Combination labels where mRTS and ``versus`` are within
        ``tolerance`` of each other."""
        return [
            b.label
            for s, b in zip(self.speedup_series(versus), self.budgets)
            if abs(s - 1.0) <= tolerance
        ]

    def render(self) -> str:
        headers = ["combo(CG,PRC)", "RISC"] + list(APPROACHES) + [
            "mRTS/rispp", "mRTS/offline", "mRTS/morpheus"
        ]
        rows = []
        for i, budget in enumerate(self.budgets):
            row = [budget.label, self.risc_cycles[i]]
            row += [self.cycles[name][i] for name in APPROACHES]
            row += [
                round(self.cycles["rispp"][i] / self.cycles["mrts"][i], 2),
                round(self.cycles["offline-optimal"][i] / self.cycles["mrts"][i], 2),
                round(self.cycles["morpheus4s"][i] / self.cycles["mrts"][i], 2),
            ]
            rows.append(row)
        table = render_table(
            headers, rows, title="Fig. 8: execution time (cycles) per fabric combination"
        )
        summary = []
        for versus, label in [
            ("rispp", "RISPP-like"),
            ("offline-optimal", "offline-optimal"),
            ("morpheus4s", "Morpheus+4S-like"),
        ]:
            summary.append(
                f"mRTS vs {label}: avg {self.average_speedup(versus):.2f}x, "
                f"max {self.max_speedup(versus):.2f}x, "
                f"parity at {self.parity_budgets(versus)}"
            )
        return table + "\n" + "\n".join(summary)


def run_fig8(
    frames: int = 16,
    seed: int = 7,
    max_cg: int = 4,
    max_prc: int = 3,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    backend=None,
    workers=None,
    coordinator=None,
    engine: SweepEngine = None,
) -> Fig8Result:
    """Reproduce Fig. 8 over the (CG 0..max_cg) x (PRC 0..max_prc) grid.

    The grid runs as cells on ``engine`` or, without one, on an engine
    built from ``jobs``/``use_cache``/``cache_dir`` and the backend knobs
    (serial and uncached by default); every choice gives identical numbers.
    """
    budgets = budget_grid(max_cg, max_prc)
    with resolve_engine(engine, jobs, use_cache, cache_dir, backend=backend,
                        workers=workers, coordinator=coordinator) as eng:
        cycles = grid_cycles(eng, budgets, ["risc"] + list(APPROACHES),
                             frames, seed)
    risc = cycles.pop("risc")
    return Fig8Result(budgets=budgets, cycles=cycles, risc_cycles=risc)


__all__ = ["run_fig8", "Fig8Result", "APPROACHES"]
