"""Trigger instructions: the application's forecast to the run-time system.

The application programmer embeds trigger instructions into the binary to
forecast the kernel executions of the upcoming functional block (Section 4).
Each trigger is the 4-tuple ``{K_i, e_i, tf_i, tb_i}``: the kernel, its
expected number of executions, the time until its first execution, and the
average time between two consecutive executions.  The values start from
offline profiling; at run time the Monitoring & Prediction Unit corrects
them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import ValidationError, build_trusted, check_non_negative


@dataclass(frozen=True)
class TriggerInstruction:
    """Forecast for one kernel of the upcoming functional block."""

    kernel: str          #: K_i  - kernel identifier
    executions: float    #: e_i  - expected number of executions
    time_to_first: float #: tf_i - cycles until the first execution
    time_between: float  #: tb_i - average cycles between consecutive executions

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValidationError("TriggerInstruction.kernel must be non-empty")
        check_non_negative("TriggerInstruction.executions", self.executions)
        check_non_negative("TriggerInstruction.time_to_first", self.time_to_first)
        check_non_negative("TriggerInstruction.time_between", self.time_between)

    @classmethod
    def trusted(
        cls, kernel: str, executions: float, time_to_first: float,
        time_between: float,
    ) -> "TriggerInstruction":
        """Build without re-validating, for callers whose values are
        valid by construction (the MPU's clamped forecasts)."""
        return build_trusted(
            cls, kernel=kernel, executions=executions,
            time_to_first=time_to_first, time_between=time_between,
        )

    def with_forecast(
        self, executions: float, time_to_first: float, time_between: float
    ) -> "TriggerInstruction":
        """Copy with updated forecast values (used by the MPU)."""
        return replace(
            self,
            executions=executions,
            time_to_first=time_to_first,
            time_between=time_between,
        )


__all__ = ["TriggerInstruction"]
