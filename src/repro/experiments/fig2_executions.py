"""Fig. 2: execution behaviour of the H.264 deblocking filter over time.

Plots the number of deblocking-filter executions in each encoded frame and
annotates which case-study ISE would be the best choice for that frame --
showing that "the performance-wise best ISE during one iteration of the
kernel does not remain the best option for the next iteration".

The numbers come from the ``deblock_frame_winners`` sweep metric riding on
a minimal deblocking carrier cell, so Fig. 2 shares the engine's caching
and backend fan-out with fig8-10 instead of carrying its own closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.engine import SweepCell, SweepEngine, resolve_engine
from repro.util.tables import render_table


@dataclass
class Fig2Result:
    executions_per_frame: List[int]
    best_ise_per_frame: List[str]

    @property
    def distinct_best(self) -> int:
        """How many different ISEs are the per-frame winner at least once."""
        return len(set(self.best_ise_per_frame))

    @property
    def switches(self) -> int:
        """How often the per-frame winner changes."""
        return sum(
            1
            for a, b in zip(self.best_ise_per_frame, self.best_ise_per_frame[1:])
            if a != b
        )

    def render(self) -> str:
        rows = [
            [frame + 1, e, best]
            for frame, (e, best) in enumerate(
                zip(self.executions_per_frame, self.best_ise_per_frame)
            )
        ]
        table = render_table(
            ["frame", "executions", "best ISE"],
            rows,
            title="Fig. 2: deblocking-filter executions per frame (best ISE annotated)",
        )
        from repro.util.plot import sparkline

        return (
            f"{table}\n"
            f"executions: {sparkline(self.executions_per_frame)}\n"
            f"winner changes {self.switches} times across "
            f"{len(self.executions_per_frame)} frames "
            f"({self.distinct_best} distinct winners)"
        )


def fig2_cell(frames: int = 16, seed: int = 0) -> SweepCell:
    """The declarative cell behind Fig. 2.

    The metric derives everything from the seeded trace and the case-study
    profit model; the carrier simulation (one tiny deblocking frame in
    RISC mode) only provides a cached, backend-routable execution context.
    """
    return SweepCell.make(
        (0, 0),
        seed,
        "risc",
        workload="deblocking",
        workload_params={"frames": 1, "scale": 0.05},
        metrics={"deblock_frame_winners": {"frames": frames, "seed": seed}},
    )


def run_fig2(
    frames: int = 16,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Union[str, Path, None] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    coordinator: Optional[str] = None,
    engine: Optional[SweepEngine] = None,
) -> Fig2Result:
    """Reproduce Fig. 2 for ``frames`` frames of the seeded video trace."""
    with resolve_engine(
        engine, jobs, use_cache, cache_dir,
        backend=backend, workers=workers, coordinator=coordinator,
    ) as eng:
        [record] = eng.run([fig2_cell(frames=frames, seed=seed)])
    data = record["metrics"]["deblock_frame_winners"]
    return Fig2Result(
        executions_per_frame=[int(e) for e in data["executions_per_frame"]],
        best_ise_per_frame=list(data["best_ise_per_frame"]),
    )


__all__ = ["run_fig2", "fig2_cell", "Fig2Result"]
