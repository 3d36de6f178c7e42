"""The mRTS profit function (Eqs. 1-4 of the paper).

The profit of an ISE is the performance improvement it is *expected* to
contribute to the upcoming functional block: the sum of the improvements of
its intermediate ISEs (each used between the completion of one
reconfiguration and the next, Eq. 2/3) plus the improvement of the fully
reconfigured ISE for the remaining executions (Eq. 4).  The expected number
of executions per phase comes from the trigger-instruction parameters
``e`` (expected executions), ``tf`` (time until the first execution) and
``tb`` (average time between consecutive executions).

All times are core cycles relative to the moment of selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ise.ise import ISE
from repro.util.validation import ValidationError, check_non_negative


def pif(
    sw_time: float,
    hw_time: float,
    reconfiguration_latency: float,
    executions: float,
) -> float:
    """Performance Improvement Factor of an ISE (Eq. 1).

    ``pif = sw_time * e / (reconfiguration_latency + hw_time * e)`` -- the
    speedup over RISC mode once the fixed reconfiguration overhead is
    amortised over ``executions`` kernel executions.  Zero executions yield
    a pif of 0 (nothing ran, nothing improved).
    """
    check_non_negative("sw_time", sw_time)
    check_non_negative("hw_time", hw_time)
    check_non_negative("reconfiguration_latency", reconfiguration_latency)
    check_non_negative("executions", executions)
    # Ordering comparisons instead of float ==: every operand is validated
    # non-negative above, so <= 0 is exactly the zero case.
    if executions <= 0:
        return 0.0
    denominator = reconfiguration_latency + hw_time * executions
    if denominator <= 0:
        raise ValidationError(
            "pif undefined: zero reconfiguration latency and zero hw_time"
        )
    return sw_time * executions / denominator


@dataclass(frozen=True)
class ProfitBreakdown:
    """Per-level decomposition of an ISE's expected profit.

    ``noe[i]`` is the expected number of executions on intermediate ISE
    ``i+1`` (levels 1..n-1); ``noe_risc`` the executions still in RISC mode
    before the first level is ready; ``final_executions`` the executions on
    the fully reconfigured ISE.  ``profit`` is Eq. 4's total in saved cycles.
    """

    noe_risc: float
    noe: Tuple[float, ...]
    final_executions: float
    per_improvement: Tuple[float, ...]
    final_improvement: float

    @property
    def profit(self) -> float:
        return sum(self.per_improvement) + self.final_improvement


def _check_forecast(
    latencies: Sequence[int],
    rec_schedule: Sequence[float],
    e: float,
    tf: float,
    tb: float,
) -> None:
    """The argument checks of :func:`expected_executions`."""
    check_non_negative("e", e)
    check_non_negative("tf", tf)
    check_non_negative("tb", tb)
    n = len(rec_schedule)
    if n == 0:
        raise ValidationError("rec_schedule must have at least one level")
    if len(latencies) != n + 1:
        raise ValidationError(
            f"latencies must have {n + 1} entries (RISC + {n} levels), got {len(latencies)}"
        )
    for a, b in zip(rec_schedule, rec_schedule[1:]):
        if b < a:
            raise ValidationError(f"rec_schedule must be non-decreasing: {rec_schedule}")


def _phases(
    latencies: Sequence[int],
    rec_schedule: Sequence[float],
    e: float,
    tf: float,
    tb: float,
) -> Tuple[float, List[float], float]:
    """Eq. 3 without argument checks, for the checked public functions
    (:func:`profit_kernel` carries the same operations fused with Eq. 2)."""
    remaining = float(e)

    # RISC-mode phase: executions before level 1 is ready (Fig. 5's NoE_RM).
    if rec_schedule[0] > tf:
        noe_risc = (rec_schedule[0] - tf) / (latencies[0] + tb)
    else:
        noe_risc = 0.0
    noe_risc = min(noe_risc, remaining)
    remaining -= noe_risc

    # Intermediate phases 1..n-1 (Eq. 3): level i is used from the moment it
    # is ready (or from tf, if it is ready before the first execution) until
    # level i+1 completes.
    noe_levels: List[float] = []
    for i in range(1, len(rec_schedule)):
        rec_i, rec_next = rec_schedule[i - 1], rec_schedule[i]
        period_latency = latencies[i] + tb
        if rec_i >= tf:
            raw = (rec_next - rec_i) / period_latency
        elif rec_next >= tf:
            raw = (rec_next - tf) / period_latency
        else:
            raw = 0.0
        noe_i = min(max(0.0, raw), remaining)
        remaining -= noe_i
        noe_levels.append(noe_i)

    return noe_risc, noe_levels, remaining


def _improvement(noe_i: float, latency_rm: int, latency_i: int) -> float:
    """Eq. 2 without argument checks, for the checked public functions
    (:func:`profit_kernel` carries the same expression inline)."""
    return noe_i * (latency_rm - latency_i)


def profit_kernel(
    latencies: Sequence[int],
    rec_schedule: Sequence[float],
    e: float,
    tf: float,
    tb: float,
) -> float:
    """Eq. 4's total profit, unchecked: the hot-path selector ``profit``.

    The arguments must satisfy :func:`expected_executions`' checks (the
    trigger instructions and latency staircases the selector hands over
    already do); :func:`profit_value` is the checked entry point.  The
    selectors call this once per candidate evaluation, so Eq. 3's phases
    and Eq. 2's terms are fused into one loop here: the same operations
    as :func:`_phases` and :func:`_improvement` in the same order
    (``max``/``min`` spelled as the comparisons they make, a skipped RISC
    phase subtracting nothing), summed in :attr:`ProfitBreakdown.profit`'s
    order, so the result is bit-identical to ``ise_profit(...).profit``
    (``tests/test_profit_properties.py`` proves it on generated inputs).
    """
    remaining = float(e)
    latency_rm = latencies[0]
    rec_i = rec_schedule[0]
    if rec_i > tf:
        noe = (rec_i - tf) / (latency_rm + tb)
        if remaining < noe:
            noe = remaining
        remaining -= noe
    improvements: List[float] = []
    for i in range(1, len(rec_schedule)):
        rec_next = rec_schedule[i]
        if rec_i >= tf:
            raw = (rec_next - rec_i) / (latencies[i] + tb)
        elif rec_next >= tf:
            raw = (rec_next - tf) / (latencies[i] + tb)
        else:
            raw = 0.0
        noe = raw if raw > 0.0 else 0.0
        if remaining < noe:
            noe = remaining
        remaining -= noe
        improvements.append(noe * (latency_rm - latencies[i]))
        rec_i = rec_next
    return sum(improvements) + remaining * (latency_rm - latencies[-1])


def expected_executions(
    latencies: Sequence[int],
    rec_schedule: Sequence[float],
    e: float,
    tf: float,
    tb: float,
) -> Tuple[float, List[float], float]:
    """Expected executions per intermediate-ISE phase (Eq. 3, plus Fig. 5's
    ``NoE_RM`` phase).

    Parameters
    ----------
    latencies:
        ``latencies[i]`` = execution latency of level ``i`` (``latencies[0]``
        is RISC mode), as produced by :attr:`repro.ise.ISE.latencies`.
    rec_schedule:
        ``rec_schedule[i]`` = cycle (relative to now) at which level ``i+1``
        becomes available; non-decreasing, one entry per level.
    e, tf, tb:
        Trigger-instruction forecast.

    Returns
    -------
    (noe_risc, noe_levels, final_executions):
        RISC-phase executions, executions per level ``1..n-1``, and
        executions on the final level.  The phases are clamped so their sum
        never exceeds ``e`` (a forecast of few executions cannot produce
        profit from levels that would only become ready afterwards).
    """
    _check_forecast(latencies, rec_schedule, e, tf, tb)
    return _phases(latencies, rec_schedule, e, tf, tb)


def per_improvement(noe_i: float, latency_rm: int, latency_i: int) -> float:
    """Performance improvement of one intermediate ISE (Eq. 2):
    ``NoE(i) * (latency_RM - latency(ISE_i))``."""
    check_non_negative("noe_i", noe_i)
    return _improvement(noe_i, latency_rm, latency_i)


def profit_value(
    latencies: Sequence[int],
    rec_schedule: Sequence[float],
    e: float,
    tf: float,
    tb: float,
) -> float:
    """Eq. 4's total profit without the :class:`ProfitBreakdown` object.

    Operates on the raw latency staircase instead of an :class:`ISE`.  It
    checks its arguments as :func:`expected_executions` does and returns
    :func:`profit_kernel`'s value, bit-identical to
    :attr:`ProfitBreakdown.profit` (the byte-identity contract of
    ``docs/selector.md``).
    """
    _check_forecast(latencies, rec_schedule, e, tf, tb)
    return profit_kernel(latencies, rec_schedule, e, tf, tb)


def ise_profit(
    ise: ISE,
    e: float,
    tf: float,
    tb: float,
    rec_schedule: Optional[Sequence[float]] = None,
) -> ProfitBreakdown:
    """Expected profit of ``ise`` for the upcoming functional block (Eq. 4).

    ``rec_schedule`` is the predicted completion time of every level
    relative to now; when omitted, the contention-free cold-start schedule
    of the ISE is used (useful for offline analysis -- the run-time selector
    always passes the port-aware prediction).
    """
    schedule = list(rec_schedule) if rec_schedule is not None else ise.reconfig_schedule()
    noe_risc, noe_levels, final_count = expected_executions(
        ise.latencies, schedule, e, tf, tb
    )
    latency_rm = ise.latencies[0]
    improvements = tuple(
        per_improvement(noe, latency_rm, ise.latencies[i])
        for i, noe in enumerate(noe_levels, start=1)
    )
    final_improvement = per_improvement(final_count, latency_rm, ise.full_latency)
    return ProfitBreakdown(
        noe_risc=noe_risc,
        noe=tuple(noe_levels),
        final_executions=final_count,
        per_improvement=improvements,
        final_improvement=final_improvement,
    )


__all__ = [
    "pif",
    "ProfitBreakdown",
    "expected_executions",
    "per_improvement",
    "profit_kernel",
    "profit_value",
    "ise_profit",
]
