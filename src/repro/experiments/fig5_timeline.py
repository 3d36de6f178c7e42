"""Fig. 5, measured: the execution behaviour of an ISE.

Fig. 5 of the paper is a schematic of how a kernel's executions migrate
through the intermediate ISEs of the selected ISE as its data paths finish
reconfiguring (the ``NoE`` quantities of Eq. 3).  Our simulator can measure
the real staircase: this experiment runs the encoder, extracts the phase
timeline of the deblocking-filter kernel within one functional-block
iteration, and reports the measured NoE / latency of every phase.

The timeline comes from the ``kernel_timeline`` sweep metric on a regular
declarative cell, so Fig. 5 shares the engine's caching and backend
fan-out with fig8-10 instead of running its own traced simulation inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.analysis.timeline import KernelTimeline, timeline_from_payload
from repro.experiments.engine import SweepCell, SweepEngine, resolve_engine


@dataclass
class Fig5Result:
    kernel: str
    timeline: KernelTimeline

    @property
    def n_phases(self) -> int:
        return len(self.timeline.phases)

    @property
    def latencies(self) -> List[int]:
        return [p.latency for p in self.timeline.phases]

    @property
    def staircase_is_monotone(self) -> bool:
        """Does the per-execution latency only improve within the window?"""
        lat = self.latencies
        return all(b <= a for a, b in zip(lat, lat[1:]))

    def render(self) -> str:
        return (
            self.timeline.render()
            + f"\nmeasured saved cycles in this window: "
            f"{self.timeline.saved_cycles:,} "
            f"({self.timeline.total_executions} executions)"
        )


def fig5_cell(
    frames: int = 4,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 2,
    kernel: str = "lf.deblock_luma",
    block_window: int = 0,
) -> SweepCell:
    """The declarative cell behind Fig. 5 (mRTS on the H.264 encoder, with
    the traced ``kernel_timeline`` metric attached)."""
    return SweepCell.make(
        (n_cg, n_prc),
        seed,
        "mrts",
        workload="h264",
        workload_params={"frames": frames},
        metrics={
            "kernel_timeline": {"kernel": kernel, "block_window": block_window}
        },
    )


def run_fig5(
    frames: int = 4,
    seed: int = 7,
    n_cg: int = 2,
    n_prc: int = 2,
    kernel: str = "lf.deblock_luma",
    block_window: int = 0,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Union[str, Path, None] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    coordinator: Optional[str] = None,
    engine: Optional[SweepEngine] = None,
) -> Fig5Result:
    """Measure the Fig. 5 staircase of ``kernel`` in one block iteration."""
    cell = fig5_cell(
        frames=frames, seed=seed, n_cg=n_cg, n_prc=n_prc,
        kernel=kernel, block_window=block_window,
    )
    with resolve_engine(
        engine, jobs, use_cache, cache_dir,
        backend=backend, workers=workers, coordinator=coordinator,
    ) as eng:
        [record] = eng.run([cell])
    timeline = timeline_from_payload(record["metrics"]["kernel_timeline"])
    return Fig5Result(kernel=kernel, timeline=timeline)


__all__ = ["run_fig5", "fig5_cell", "Fig5Result"]
