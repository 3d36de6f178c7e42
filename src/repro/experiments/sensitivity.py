"""Sensitivity of the headline results to the cost-model assumptions.

The reproduction replaces the authors' place-and-route characterisation
with an analytical technology model (DESIGN.md §2).  This experiment
perturbs the model's most influential assumptions -- the CG fabric's
bit-operation penalty, the FG bitstream size (i.e. the ~1.2 ms
reconfiguration time), and the CG context capacity -- and re-measures the
headline quantity (mRTS speedup over RISC at the top multi-grained
combination, and the MG-vs-single-granularity ordering).  If a conclusion
only holds at one magic constant, this table shows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.engine import SweepCell, SweepEngine, resolve_engine
from repro.util.tables import render_table


@dataclass(frozen=True)
class Variant:
    """One perturbed modelling assumption.

    ``cost_overrides`` are ``(field, value)`` pairs applied to the default
    :class:`~repro.fabric.cost_model.TechnologyCostModel` by the workload
    registry (see ``engine._cost_model_of``).
    """

    name: str
    cost_overrides: Tuple[Tuple[str, object], ...] = ()
    contexts_per_cg_fabric: int = 4
    bitstream_kb: float = 79.2  # informational; folded into the cost model


def _variants() -> List[Variant]:
    return [
        Variant("baseline"),
        Variant(
            "CG bit-op penalty 2x (worse CG for control code)",
            (("cg_bit_op_cycles", 6),),
        ),
        Variant(
            "CG bit-op penalty 1 cycle (CG as good as FG at bits)",
            (("cg_bit_op_cycles", 1),),
        ),
        Variant(
            "FG multiplies cheap (hard DSP blocks)",
            (("fg_mul_extra_depth", 0),),
        ),
        Variant(
            "2 contexts per CG fabric (scarcer CG)",
            contexts_per_cg_fabric=2,
        ),
        Variant(
            "8 contexts per CG fabric (abundant CG)",
            contexts_per_cg_fabric=8,
        ),
    ]


@dataclass
class SensitivityResult:
    #: variant name -> (speedup@33, speedup@11, speedup@30, speedup@03)
    cells: Dict[str, Tuple[float, float, float, float]]

    def speedup_33(self, name: str) -> float:
        return self.cells[name][0]

    def mg_beats_single(self, name: str) -> bool:
        """Does (1 CG, 1 PRC) still beat both 3-unit single-granularity
        budgets under this variant?"""
        _, s11, s30, s03 = self.cells[name]
        return s11 > s03 and s11 > 0.95 * s30

    def render(self) -> str:
        rows = []
        for name, (s33, s11, s30, s03) in self.cells.items():
            rows.append(
                [
                    name,
                    round(s33, 2),
                    round(s11, 2),
                    round(s30, 2),
                    round(s03, 2),
                    "yes" if self.mg_beats_single(name) else "NO",
                ]
            )
        return render_table(
            ["variant", "(3,3)", "(1,1)", "(3,0)", "(0,3)", "MG wins"],
            rows,
            title="Cost-model sensitivity (mRTS speedup over RISC)",
        )


BUDGETS: Tuple[Tuple[int, int], ...] = ((3, 3), (1, 1), (3, 0), (0, 3))


def _variant_cell(
    variant: Variant, budget: Tuple[int, int], policy: str, frames: int, seed: int
) -> SweepCell:
    workload_params: Dict[str, object] = {"frames": frames}
    if variant.cost_overrides:
        workload_params["cost_model"] = variant.cost_overrides
    budget_params: Dict[str, object] = {}
    if variant.contexts_per_cg_fabric != 4:
        budget_params["contexts_per_cg_fabric"] = variant.contexts_per_cg_fabric
    return SweepCell.make(
        budget,
        seed,
        policy,
        workload="h264",
        workload_params=workload_params,
        budget_params=budget_params,
    )


def run_sensitivity(
    frames: int = 8,
    seed: int = 7,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    backend=None,
    workers=None,
    coordinator=None,
    engine: Optional[SweepEngine] = None,
) -> SensitivityResult:
    """Re-measure the headline speedups under each model variant.

    The (variant x budget x policy) grid runs as declarative
    :class:`SweepCell`\\ s on ``engine`` (or one built from the flags), so
    cost-model perturbations are part of each cell's cache key.
    """
    variants = _variants()
    grid = [
        _variant_cell(variant, budget, policy, frames, seed)
        for variant in variants
        for budget in BUDGETS
        for policy in ("risc", "mrts")
    ]
    with resolve_engine(engine, jobs=jobs, use_cache=use_cache,
                        cache_dir=cache_dir, backend=backend,
                        workers=workers, coordinator=coordinator) as eng:
        records = eng.run(grid)

    cells: Dict[str, Tuple[float, float, float, float]] = {}
    cursor = iter(records)
    for variant in variants:
        speedups = []
        for _ in BUDGETS:
            risc = next(cursor)["total_cycles"]
            mrts = next(cursor)["total_cycles"]
            speedups.append(risc / mrts)
        cells[variant.name] = tuple(speedups)
    return SensitivityResult(cells=cells)


__all__ = ["run_sensitivity", "SensitivityResult", "Variant"]
