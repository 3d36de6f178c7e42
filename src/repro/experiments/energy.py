"""Energy comparison across run-time systems (extension experiment).

Not a paper figure: the paper evaluates performance only.  This experiment
applies the first-order energy model to every policy on one budget and
reports total energy and energy-delay product -- confirming that the
performance wins translate into energy wins (shorter runtime means less
core activity and less leakage, and the added reconfiguration energy stays
minor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import h264_cell
from repro.experiments.engine import SweepEngine, resolve_engine
from repro.fabric.energy import EnergyBreakdown
from repro.util.tables import render_table

#: The compared run-time systems, by registered policy name.
POLICIES = ("risc", "rispp", "morpheus4s", "offline-optimal", "mrts")


@dataclass
class EnergyResult:
    budget_label: str
    breakdowns: Dict[str, EnergyBreakdown]

    def total_mj(self, policy: str) -> float:
        return self.breakdowns[policy].total_mj

    def saving_vs_risc(self, policy: str) -> float:
        """Fraction of the RISC-mode energy saved by ``policy``."""
        risc = self.total_mj("risc")
        return 1.0 - self.total_mj(policy) / risc

    def render(self) -> str:
        rows = []
        for name in POLICIES:
            b = self.breakdowns[name]
            rows.append(
                [
                    name,
                    round(b.total_mj, 2),
                    round(b.reconfig_mj, 3),
                    round(b.energy_delay_product, 1),
                    f"{100 * self.saving_vs_risc(name):.1f}%",
                ]
            )
        return render_table(
            ["policy", "total (mJ)", "reconfig (mJ)", "EDP (mJ*Mcyc)", "saving vs RISC"],
            rows,
            title=f"Energy at fabric combination {self.budget_label}",
        )


def run_energy(
    frames: int = 12,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 2,
    engine: Optional[SweepEngine] = None,
) -> EnergyResult:
    """Estimate per-policy energy on the H.264 encoder (traced cells with
    the ``energy`` metric)."""
    cells = [
        h264_cell((n_cg, n_prc), seed, name, frames, metrics={"energy": {}})
        for name in POLICIES
    ]
    with resolve_engine(engine) as eng:
        records = eng.run(cells)
    return EnergyResult(
        budget_label=records[0]["budget_label"],
        breakdowns={
            name: EnergyBreakdown(**record["metrics"]["energy"])
            for name, record in zip(POLICIES, records)
        },
    )


__all__ = ["run_energy", "EnergyResult"]
