"""Configuration of the mRTS run-time system, including its overhead model.

mRTS executes on a dedicated CG-EDPE (Section 5.1); its computation is not
free.  The paper reports that selecting an ISE takes on average less than
3000 cycles per kernel (~1.9 % of a functional block's execution time) and
that only the *first* selection of a block is exposed: once the first ISE is
selected its reconfiguration starts, and the selection for the remaining
kernels proceeds in parallel with it (Section 5.4).

:class:`OverheadModel` charges cycles per elementary selector operation
(candidate filtering, profit evaluation, greedy round bookkeeping), and
:meth:`OverheadModel.charged_cycles` implements the hiding rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.selector import SelectionResult
from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class OverheadModel:
    """Cycle cost of the selector on its dedicated CG-EDPE."""

    base_cycles: int = 300          #: trigger decode + candidate list setup
    per_candidate_cycles: int = 10  #: fit / coverage filtering per candidate
    per_evaluation_cycles: int = 80 #: one profit computation (Eqs. 2-4)
    per_round_cycles: int = 200     #: greedy round bookkeeping (Fig. 6 step 4)

    def __post_init__(self) -> None:
        for attr in (
            "base_cycles",
            "per_candidate_cycles",
            "per_evaluation_cycles",
            "per_round_cycles",
        ):
            check_non_negative(f"OverheadModel.{attr}", getattr(self, attr))

    def full_cycles(self, result: SelectionResult) -> int:
        """Total selector cycles for one functional-block selection."""
        return (
            self.base_cycles
            + self.per_candidate_cycles * result.candidates_considered
            + self.per_evaluation_cycles * result.profit_evaluations
            + self.per_round_cycles * result.rounds
        )

    def charged_cycles(self, result: SelectionResult, hidden: bool = True) -> int:
        """Cycles that actually delay the application.

        With ``hidden=True`` (the paper's implementation) only the first
        greedy round blocks the core; the remaining rounds overlap the
        reconfiguration of the already-selected ISEs.
        """
        full = self.full_cycles(result)
        if not hidden or result.rounds <= 1:
            return full
        return self.base_cycles + (full - self.base_cycles) // result.rounds


@dataclass(frozen=True)
class MRTSConfig:
    """All knobs of the mRTS policy (defaults = the paper's system)."""

    #: MPU error back-propagation gain (0 freezes the offline profile).
    mpu_alpha: float = 0.5
    #: MPU windowed-mean predictor (extension): 0 = the paper's EWMA scheme,
    #: W > 0 = mean of the last W observations (robust to alternation).
    mpu_window: int = 0
    #: allow execution on intermediate ISEs (Section 4.1).
    enable_intermediate: bool = True
    #: allow monoCG-Extensions in the ECU cascade (Section 4.2).
    enable_monocg: bool = True
    #: see :class:`repro.core.ecu.ExecutionControlUnit`.
    monocg_breakeven_cycles: int = 5_000
    #: overlap selection with reconfiguration (Section 5.4).
    hide_selection_overhead: bool = True
    overhead: OverheadModel = field(default_factory=OverheadModel)
    #: selector implementation: ``"naive"`` | ``"packed"`` | ``None``
    #: (= honour ``$REPRO_SELECTOR``, default packed).  Both produce
    #: byte-identical selections and charged overhead; see
    #: docs/selector.md.
    selector_mode: "str | None" = None


__all__ = ["MRTSConfig", "OverheadModel"]
