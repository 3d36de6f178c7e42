"""Shared machinery of the experiment modules."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.engine import SweepCell, SweepEngine
from repro.fabric.resources import ResourceBudget

#: Canonical experiment workload parameters (chosen so FG reconfiguration
#: amortisation and run-time variation both play out, cf. DESIGN.md).
DEFAULT_FRAMES = 16
DEFAULT_SEED = 7


def h264_cell(
    budget: Tuple[int, int], seed: int, policy: str, frames: int, **fields
) -> SweepCell:
    """One cell of the canonical H.264 encoder at ``frames`` frames.

    ``budget`` is ``(n_cg_fabrics, n_prcs)``; ``fields`` are further
    :meth:`SweepCell.make` arguments (policy params, metrics, contention).
    """
    return SweepCell.make(
        budget, seed, policy, workload="h264",
        workload_params={"frames": frames}, **fields,
    )


def grid_cycles(
    engine: SweepEngine,
    budgets: Sequence[ResourceBudget],
    policy_names: Sequence[str],
    frames: int,
    seed: int,
) -> Dict[str, List[int]]:
    """Total cycles of every policy on every budget, in one engine run:
    ``policy -> [cycles per budget, in budgets order]``."""
    cells = [
        h264_cell((budget.n_cg_fabrics, budget.n_prcs), seed, name, frames)
        for budget in budgets
        for name in policy_names
    ]
    cycles: Dict[str, List[int]] = {name: [] for name in policy_names}
    for cell, record in zip(cells, engine.run(cells)):
        cycles[cell.policy].append(record["total_cycles"])
    return cycles


def budget_grid(max_cg: int, max_prc: int) -> List[ResourceBudget]:
    """All (CG fabrics, PRCs) combinations, ordered like the paper's x-axes
    (CG-major: "00", "01", ..., "<max_cg><max_prc>")."""
    return [
        ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        for cg in range(max_cg + 1)
        for prc in range(max_prc + 1)
    ]


def geometric_mean(values: List[float]) -> float:
    """Geometric mean (speedups average multiplicatively)."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


__all__ = [
    "budget_grid",
    "geometric_mean",
    "grid_cycles",
    "h264_cell",
    "DEFAULT_FRAMES",
    "DEFAULT_SEED",
]
