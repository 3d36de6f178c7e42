"""The Monitoring & Prediction Unit (Section 4).

Trigger-instruction forecasts start from offline profiling; because the
number of kernel executions changes at run time (input data, workload), the
MPU monitors the actual executions of every functional-block iteration and
corrects the forecast with a lightweight error back-propagation scheme
(following [12] of the paper): the forecast moves against the last
prediction error by a gain ``alpha``.  The MPU also tracks the execution
counters used for the statistics and keeps the fabric-availability view
current (the latter is delegated to :class:`~repro.fabric.resources.ResourceState`,
which the MPU simply exposes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ValidationError, check_non_negative


@dataclass
class KernelStats:
    """Monitoring state for one (functional block, kernel) pair."""

    forecast_executions: float
    forecast_time_to_first: float
    forecast_time_between: float
    observed_iterations: int = 0
    total_executions: float = 0.0
    last_error: float = 0.0
    #: most recent observations (only kept in windowed-mean mode)
    recent_executions: list = field(default_factory=list)

    def as_trigger(self, kernel: str) -> TriggerInstruction:
        # ``kernel`` comes from a validated trigger and the clamped values
        # are non-negative numbers: what feeds the forecasts is validated
        # (observe_iteration) or measured by the simulator
        # (observe_trusted), so the trigger skips a second check.
        return TriggerInstruction.trusted(
            kernel,
            max(0.0, self.forecast_executions),
            max(0.0, self.forecast_time_to_first),
            max(0.0, self.forecast_time_between),
        )


class MonitoringPredictionUnit:
    """Tracks execution behaviour and refines trigger forecasts."""

    def __init__(self, alpha: float = 0.5, window: int = 0):
        """``alpha`` is the error back-propagation gain: 0 freezes the offline
        profile, 1 jumps to the last observation.

        ``window`` selects an alternative predictor (an extension beyond the
        paper's [12] scheme): with ``window = W > 0`` the execution forecast
        is the mean of the last W observations instead of the EWMA.  The
        EWMA lags one step on strictly alternating workloads (it predicts
        the previous regime every time); a window of 2 averages over the
        alternation and removes that failure mode at the cost of slower
        tracking of genuine drifts."""
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
        if window < 0:
            raise ValidationError(f"window must be >= 0, got {window}")
        self.alpha = alpha
        self.window = window
        self._stats: Dict[Tuple[str, str], KernelStats] = {}

    # ----------------------------------------------------------- forecast
    def forecast(
        self, block_name: str, profiled: TriggerInstruction
    ) -> TriggerInstruction:
        """The corrected trigger for ``profiled.kernel`` in ``block_name``.

        The first call seeds the state from the profiled (compile-time)
        trigger; afterwards the corrected values are returned.
        """
        key = (block_name, profiled.kernel)
        stats = self._stats.get(key)
        if stats is None:
            stats = KernelStats(
                forecast_executions=profiled.executions,
                forecast_time_to_first=profiled.time_to_first,
                forecast_time_between=profiled.time_between,
            )
            self._stats[key] = stats
        return stats.as_trigger(profiled.kernel)

    # ------------------------------------------------------------ monitor
    def observe_iteration(
        self,
        block_name: str,
        kernel: str,
        actual_executions: float,
        actual_time_to_first: Optional[float] = None,
        actual_time_between: Optional[float] = None,
    ) -> None:
        """Back-propagate the prediction error of one finished iteration."""
        check_non_negative("actual_executions", actual_executions)
        if actual_time_to_first is not None:
            check_non_negative("actual_time_to_first", actual_time_to_first)
        if actual_time_between is not None:
            check_non_negative("actual_time_between", actual_time_between)
        self.observe_trusted(
            block_name, kernel, actual_executions,
            actual_time_to_first, actual_time_between,
        )

    def observe_trusted(
        self,
        block_name: str,
        kernel: str,
        actual_executions: float,
        actual_time_to_first: Optional[float] = None,
        actual_time_between: Optional[float] = None,
    ) -> None:
        """:meth:`observe_iteration` without re-validating, for callers
        whose observations are valid by construction (the policies' block
        exits: the simulator measures non-negative counts and times)."""
        key = (block_name, kernel)
        stats = self._stats.get(key)
        if stats is None:
            stats = KernelStats(
                forecast_executions=actual_executions,
                forecast_time_to_first=actual_time_to_first or 0.0,
                forecast_time_between=actual_time_between or 0.0,
            )
            self._stats[key] = stats
        error = actual_executions - stats.forecast_executions
        stats.last_error = error
        if self.window > 0:
            stats.recent_executions.append(actual_executions)
            del stats.recent_executions[: -self.window]
            stats.forecast_executions = sum(stats.recent_executions) / len(
                stats.recent_executions
            )
        else:
            stats.forecast_executions += self.alpha * error
        if actual_time_to_first is not None:
            stats.forecast_time_to_first += self.alpha * (
                actual_time_to_first - stats.forecast_time_to_first
            )
        if actual_time_between is not None:
            stats.forecast_time_between += self.alpha * (
                actual_time_between - stats.forecast_time_between
            )
        stats.observed_iterations += 1
        stats.total_executions += actual_executions

    # ---------------------------------------------------------- reporting
    def stats(self, block_name: str, kernel: str) -> Optional[KernelStats]:
        return self._stats.get((block_name, kernel))

    def mean_absolute_error(self) -> float:
        """Mean |last prediction error| across all tracked kernels."""
        if not self._stats:
            return 0.0
        return sum(abs(s.last_error) for s in self._stats.values()) / len(self._stats)


__all__ = ["MonitoringPredictionUnit", "KernelStats"]
