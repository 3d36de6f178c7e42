"""Baseline run-time systems the paper compares against (Section 5.2/5.3).

* :class:`~repro.baselines.riscmode.RiscModePolicy` -- no acceleration at
  all; the reference for the speedups of Fig. 10.
* :class:`~repro.baselines.rispp.RisppLikePolicy` -- the RISPP [6] run-time
  system extended to CG fabrics: functional-block-level run-time selection
  with intermediate ISEs, but a cost function tuned to millisecond-scale FG
  reconfiguration and no monoCG-Extension.
* :class:`~repro.baselines.morpheus4s.Morpheus4SPolicy` -- Morpheus [8] /
  4S [7]-like loosely coupled systems: offline selection, each kernel bound
  to a single granularity, no intermediate ISEs.
* :class:`~repro.baselines.offline_optimal.OfflineOptimalPolicy` -- optimal
  *static* selection for tightly coupled multi-grained fabrics with perfect
  profile knowledge.
* :class:`~repro.baselines.online_optimal.OnlineOptimalPolicy` -- mRTS with
  the exhaustive-equivalent optimal selector instead of the heuristic
  (the Fig. 9 yardstick).
"""

from repro.baselines.riscmode import RiscModePolicy
from repro.baselines.rispp import RisppLikePolicy, quantized_profit
from repro.baselines.morpheus4s import Morpheus4SPolicy
from repro.baselines.offline_optimal import OfflineOptimalPolicy
from repro.baselines.online_optimal import OnlineOptimalPolicy
from repro.baselines.tasklevel import TaskLevelPolicy

__all__ = [
    "RiscModePolicy",
    "RisppLikePolicy",
    "quantized_profit",
    "Morpheus4SPolicy",
    "OfflineOptimalPolicy",
    "OnlineOptimalPolicy",
    "TaskLevelPolicy",
]
