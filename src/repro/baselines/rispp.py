"""A RISPP-like run-time system extended to coarse-grained fabrics.

RISPP [6] pioneered run-time ISE selection at functional-block level with
intermediate ISEs ("molecules" assembled from "atoms"), but only for the
fine-grained fabric.  The paper extends RISPP's selection to CG fabrics for
a direct comparison (Section 5.2) and attributes its inefficiency on
multi-grained ISEs to its cost function: "these approaches are aimed to
optimize considering the longer reconfiguration time of the fine-grained
reconfigurable fabric (in ms), thus they do not provide good results when
considering the significantly less reconfiguration time (in us) of
coarse-grained fabrics."

We model that mis-tuning faithfully: the RISPP-like profit function
*quantises every reconfiguration time up to whole FG reconfiguration slots*
(its internal arithmetic is built around the FG bitstream port), so the
microsecond availability of CG data paths is invisible to its selection.
The greedy loop is mRTS's, only the profit function differs.  The ECU
cascade is the same as mRTS's minus the monoCG-Extension, which is an mRTS
contribution.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.core.profit import profit_kernel
from repro.core.selector import ISESelector
from repro.util.units import kb_to_reconfig_cycles

#: One FG reconfiguration slot: the port time of a standard data path.
FG_RECONFIG_SLOT_CYCLES = kb_to_reconfig_cycles(79.2)


def quantized_profit(
    latencies: Sequence[int],
    schedule: Sequence[float],
    e: float,
    tf: float,
    tb: float,
) -> float:
    """RISPP's FG-granular cost function (a selector ``profit`` function).

    Every completion time is rounded up to whole FG slots, hiding the
    microsecond CG reconfigurations, and RISPP's benefit curves ignore the
    inter-execution gap (``tb = 0``): against millisecond reconfigurations
    that term is negligible, but for multi-grained ISEs it distorts how
    many executions land on each intermediate ISE.  Only the decision uses
    this view; the selector commits the real schedule.
    """
    quantized: List[float] = []
    for t in schedule:
        slots = math.ceil(t / FG_RECONFIG_SLOT_CYCLES) if t > 0 else 0
        level = max(float(t), slots * float(FG_RECONFIG_SLOT_CYCLES))
        quantized.append(max(level, quantized[-1]) if quantized else level)
    return profit_kernel(latencies, quantized, e, tf, 0.0)


class RisppLikePolicy(MRTS):
    """RISPP [6] extended to CG fabrics, as modelled by the paper."""

    name = "rispp"

    def __init__(self, config: Optional[MRTSConfig] = None):
        # RISPP has no monoCG-Extension; everything else (MPU-style forecast
        # updates, intermediate ISEs, FB-level selection) it pioneered.
        super().__init__(
            dataclasses.replace(config or MRTSConfig(), enable_monocg=False)
        )

    def attach(self, library, controller) -> None:
        super().attach(library, controller)
        self.selector = ISESelector(
            library, mode=self.config.selector_mode, profit=quantized_profit
        )


__all__ = ["RisppLikePolicy", "quantized_profit", "FG_RECONFIG_SLOT_CYCLES"]
