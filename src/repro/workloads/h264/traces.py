"""Frame-by-frame execution-count traces of the encoder.

The number of kernel executions per frame varies with the video content
(Fig. 2 of the paper: the deblocking filter's executions change so much
between frames that the performance-wise best ISE changes from iteration to
iteration).  We generate that variation with a seeded scene-activity
process: scenes of geometric length draw a mean motion activity, and the
per-frame activity follows an AR(1) pull toward the scene mean.  Motion
kernels scale with activity, intra prediction scales against it, and the
deblocking filter swings hardest (strong blocking artefacts in high-motion
scenes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.sim.program import BlockIteration, KernelIteration
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class _KernelDemand:
    """How a kernel's per-frame executions derive from scene activity."""

    block: str
    base: int            #: executions at activity 1.0
    offset: float        #: activity-independent floor factor
    activity_gain: float #: slope w.r.t. activity (negative = intra-like)
    gap: int             #: non-kernel cycles before each execution
    exponent: float = 1.0  #: curvature: >1 makes the kernel swing harder

    def executions(self, activity: float) -> int:
        factor = max(
            0.02, self.offset + self.activity_gain * activity**self.exponent
        )
        return max(1, int(round(self.base * factor)))


#: Per-kernel demand model (block, base count, floor, activity slope, gap).
H264_DEMANDS: Dict[str, _KernelDemand] = {
    "me.sad": _KernelDemand("ME", 900, 0.30, 1.40, 30),
    "me.satd": _KernelDemand("ME", 300, 0.40, 1.20, 40),
    "ee.dct4x4": _KernelDemand("EE", 350, 0.70, 0.60, 35),
    "ee.ht": _KernelDemand("EE", 120, 0.80, 0.40, 45),
    "ee.iquant": _KernelDemand("EE", 350, 0.70, 0.60, 35),
    "ee.ipred": _KernelDemand("EE", 250, 1.30, -0.80, 40),
    "ee.mc_hz": _KernelDemand("EE", 400, 0.30, 1.40, 30),
    "ee.cavlc": _KernelDemand("EE", 300, 0.60, 0.80, 35),
    "ee.idct": _KernelDemand("EE", 350, 0.70, 0.60, 35),
    "lf.deblock_luma": _KernelDemand("LF", 2600, 0.02, 2.05, 25, exponent=1.6),
    "lf.deblock_chroma": _KernelDemand("LF", 1300, 0.02, 2.05, 25, exponent=1.6),
}


def frame_activity(
    frames: int,
    seed: SeedLike = 0,
    mean_scene_length: float = 5.0,
) -> List[float]:
    """Scene-activity value per frame in [0.05, 1.2].

    Scene cuts arrive geometrically (mean ``mean_scene_length`` frames);
    each scene draws a target activity, and frames pull toward it with AR(1)
    dynamics plus small noise -- producing the piecewise regimes visible in
    Fig. 2.
    """
    check_positive("frames", frames)
    check_positive("mean_scene_length", mean_scene_length)
    rng = make_rng(seed)
    activities: List[float] = []
    scene_mean = float(rng.uniform(0.08, 1.1))
    activity = scene_mean
    for _ in range(frames):
        if rng.random() < 1.0 / mean_scene_length:
            scene_mean = float(rng.uniform(0.08, 1.1))
        activity += 0.6 * (scene_mean - activity) + float(rng.normal(0.0, 0.06))
        activity = float(np.clip(activity, 0.05, 1.2))
        activities.append(activity)
    return activities


def deblock_executions_per_frame(frames: int = 16, seed: SeedLike = 0) -> List[int]:
    """The Fig. 2 series: deblocking-filter executions per encoded frame."""
    demand = H264_DEMANDS["lf.deblock_luma"]
    return [demand.executions(a) for a in frame_activity(frames, seed)]


def h264_iterations(
    frames: int,
    seed: SeedLike = 0,
    scale: float = 1.0,
) -> List[BlockIteration]:
    """The dynamic block-iteration sequence of an encoding run.

    Per frame the encoder runs ME, then EE, then LF.  ``scale`` uniformly
    scales all execution counts (useful for fast tests)."""
    check_positive("scale", scale)
    activities = frame_activity(frames, seed)
    iterations: List[BlockIteration] = []
    for activity in activities:
        per_block: Dict[str, List[KernelIteration]] = {"ME": [], "EE": [], "LF": []}
        for kernel_name, demand in H264_DEMANDS.items():
            executions = max(1, int(round(demand.executions(activity) * scale)))
            # A positive int count and the table's fixed gap: valid by
            # construction.
            per_block[demand.block].append(
                KernelIteration.trusted(kernel_name, executions, demand.gap)
            )
        for block_name in ("ME", "EE", "LF"):
            iterations.append(BlockIteration(block_name, per_block[block_name]))
    return iterations


__all__ = [
    "H264_DEMANDS",
    "frame_activity",
    "deblock_executions_per_frame",
    "h264_iterations",
]
