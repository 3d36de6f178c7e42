"""Ablations of the mRTS design decisions (DESIGN.md Section 6).

Not a paper figure: quantifies the contribution of each mRTS ingredient by
disabling it and re-running the encoder --

* the monoCG-Extension in the ECU cascade (Section 4.2),
* execution on intermediate ISEs (Section 4.1),
* the MPU's error back-propagation (alpha = 0 freezes the offline profile),
* selection-overhead hiding (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.util.tables import render_table

#: Variant name -> :class:`~repro.core.config.MRTSConfig` field overrides
#: (the ``policy_params`` of its ``mrts`` cell).
VARIANTS: Dict[str, Dict[str, object]] = {
    "full mRTS": {},
    "no monoCG-Extension": {"enable_monocg": False},
    "no intermediate ISEs": {"enable_intermediate": False},
    "no MPU adaptation (alpha=0)": {"mpu_alpha": 0.0},
    "no overhead hiding": {"hide_selection_overhead": False},
}


@dataclass
class AblationResult:
    budget_label: str
    cycles: Dict[str, int]

    def slowdown(self, variant: str) -> float:
        """How much slower the variant is than full mRTS (1.0 = no change)."""
        return self.cycles[variant] / self.cycles["full mRTS"]

    def render(self) -> str:
        rows = [
            [name, self.cycles[name], round(self.slowdown(name), 3)]
            for name in VARIANTS
        ]
        return render_table(
            ["variant", "cycles", "slowdown vs full"],
            rows,
            title=f"Ablations at fabric combination {self.budget_label}",
        )


def run_ablations(
    frames: int = 16,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 2,
    engine: Optional[SweepEngine] = None,
) -> AblationResult:
    """Run every ablation variant on the same workload and budget."""
    cells = [
        h264_cell((n_cg, n_prc), seed, "mrts", frames, policy_params=overrides)
        for overrides in VARIANTS.values()
    ]
    with resolve_engine(engine) as eng:
        records = eng.run(cells)
    return AblationResult(
        budget_label=records[0]["budget_label"],
        cycles={
            name: record["total_cycles"]
            for name, record in zip(VARIANTS, records)
        },
    )


__all__ = ["run_ablations", "AblationResult", "VARIANTS"]
