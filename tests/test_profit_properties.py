"""Property-based tests for the Eq. 1-4 functions.

Hypothesis drives :mod:`repro.core.profit` (the production implementation)
and :mod:`repro.verification.equations` (the paper-verbatim transcription)
over their whole input domains, pinning the invariants the selector's
correctness rests on:

* ``pif`` is non-negative and agrees with Eq. 1 wherever Eq. 1 is defined;
* no expected-execution phase exceeds the forecast ``e``, and the phases
  never sum to more than ``e`` (the clamping the paper leaves implicit);
* profit is monotone non-decreasing in the forecast ``e``;
* a per-level improvement is positive/zero/negative exactly as the
  hardware latency is below/at/above the RISC latency;
* the unchecked Eq. 3/4 kernel the selectors call is bit-for-bit the
  checked public functions' profit, and only the public functions check.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.rispp import FG_RECONFIG_SLOT_CYCLES, quantized_profit
from repro.core.profit import (
    expected_executions,
    ise_profit,
    per_improvement,
    pif,
    profit_kernel,
    profit_value,
)
from repro.util.validation import ValidationError
from repro.verification.equations import eq1_pif, eq2_per_imp
from repro.workloads.h264 import deblocking_case_study

#: Real multi-level ISEs (the Section 2 case study) for the profit laws.
_KERNEL, _CASE_ISES = deblocking_case_study()
ISES = sorted(_CASE_ISES.values(), key=lambda ise: ise.name)

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
counts = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
latencies_int = st.integers(min_value=1, max_value=10_000)


class TestEq1Pif:
    @settings(max_examples=100, deadline=None)
    @given(sw=times, hw=times, rec=times, e=counts)
    def test_non_negative(self, sw, hw, rec, e):
        if e > 0 and rec + hw * e == 0:
            return  # degenerate denominator raises by design
        assert pif(sw, hw, rec, e) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(sw=times, hw=times, rec=times,
           e=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))
    def test_matches_paper_eq1_on_its_domain(self, sw, hw, rec, e):
        if rec + hw * e == 0:
            return
        assert math.isclose(
            pif(sw, hw, rec, e), eq1_pif(sw, e, rec, hw),
            rel_tol=1e-12, abs_tol=1e-12,
        )


@st.composite
def noe_inputs(draw):
    """Latencies + non-decreasing reconfiguration schedule + forecast."""
    n_levels = draw(st.integers(min_value=1, max_value=4))
    latencies = [draw(latencies_int) for _ in range(n_levels + 1)]
    deltas = [draw(times) for _ in range(n_levels)]
    schedule, at = [], 0.0
    for delta in deltas:
        at += delta
        schedule.append(at)
    e = draw(counts)
    tf = draw(times)
    tb = draw(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    return latencies, schedule, e, tf, tb


class TestEq3ExpectedExecutions:
    @settings(max_examples=100, deadline=None)
    @given(inputs=noe_inputs())
    def test_phases_never_exceed_forecast(self, inputs):
        latencies, schedule, e, tf, tb = inputs
        noe_risc, noe_levels, final = expected_executions(
            latencies, schedule, e, tf, tb
        )
        for noe_i in [noe_risc, *noe_levels, final]:
            assert 0.0 <= noe_i <= e + 1e-9, "NoE(i) <= e violated"
        assert noe_risc + sum(noe_levels) + final <= e + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(inputs=noe_inputs())
    def test_final_phase_gets_the_remainder(self, inputs):
        latencies, schedule, e, tf, tb = inputs
        noe_risc, noe_levels, final = expected_executions(
            latencies, schedule, e, tf, tb
        )
        assert math.isclose(
            final, e - noe_risc - sum(noe_levels), rel_tol=1e-9, abs_tol=1e-6
        )


class TestEq4ProfitMonotoneInE:
    @settings(max_examples=100, deadline=None)
    @given(
        ise_index=st.integers(min_value=0, max_value=len(ISES) - 1),
        e_lo=counts,
        e_delta=counts,
        tf=times,
        tb=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    def test_more_forecast_executions_never_reduce_profit(
        self, ise_index, e_lo, e_delta, tf, tb
    ):
        ise = ISES[ise_index]
        lo = ise_profit(ise, e_lo, tf, tb).profit
        hi = ise_profit(ise, e_lo + e_delta, tf, tb).profit
        assert hi >= lo - 1e-6
        assert lo >= -1e-9, "profit of a real ISE is never negative"


class TestEq2PerImprovementSign:
    @settings(max_examples=100, deadline=None)
    @given(
        noe=st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
        latency_rm=latencies_int,
        latency_i=latencies_int,
    )
    def test_sign_matches_latency_ordering(self, noe, latency_rm, latency_i):
        value = per_improvement(noe, latency_rm, latency_i)
        if latency_i < latency_rm:
            assert value > 0.0
        elif latency_i == latency_rm:
            assert value == 0.0
        else:
            assert value < 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        noe=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        latency_rm=latencies_int,
        latency_i=latencies_int,
    )
    def test_matches_paper_eq2(self, noe, latency_rm, latency_i):
        assert per_improvement(noe, latency_rm, latency_i) == eq2_per_imp(
            noe, latency_rm, latency_i
        )


def _public_profit(latencies, schedule, e, tf, tb):
    """Eq. 4 composed from the checked public functions, summed in
    :attr:`ProfitBreakdown.profit`'s order."""
    _, noe_levels, final = expected_executions(latencies, schedule, e, tf, tb)
    improvements = tuple(
        per_improvement(noe, latencies[0], latencies[i])
        for i, noe in enumerate(noe_levels, start=1)
    )
    return sum(improvements) + per_improvement(final, latencies[0], latencies[-1])


class TestUncheckedKernel:
    """``profit_kernel`` is the one copy of the Eq. 3/4 arithmetic: the
    packed selector and RISPP's ``quantized_profit`` call it directly,
    the public functions check their arguments and then call it."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=noe_inputs())
    def test_kernel_bit_equals_public_functions(self, inputs):
        latencies, schedule, e, tf, tb = inputs
        kernel = profit_kernel(latencies, schedule, e, tf, tb)
        assert kernel.hex() == profit_value(latencies, schedule, e, tf, tb).hex()
        assert kernel.hex() == _public_profit(latencies, schedule, e, tf, tb).hex()

    @settings(max_examples=100, deadline=None)
    @given(
        ise_index=st.integers(min_value=0, max_value=len(ISES) - 1),
        e=counts,
        tf=times,
        tb=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    def test_kernel_bit_equals_ise_profit(self, ise_index, e, tf, tb):
        ise = ISES[ise_index]
        schedule = ise.reconfig_schedule()
        expected = ise_profit(ise, e, tf, tb, schedule).profit
        assert profit_kernel(ise.latencies, schedule, e, tf, tb).hex() == expected.hex()

    @settings(max_examples=100, deadline=None)
    @given(inputs=noe_inputs())
    def test_quantized_profit_is_the_kernel_on_fg_slots(self, inputs):
        latencies, schedule, e, tf, tb = inputs
        slot = float(FG_RECONFIG_SLOT_CYCLES)
        quantized = []
        for t in schedule:
            level = max(t, math.ceil(t / slot) * slot if t > 0 else 0.0)
            quantized.append(max(level, quantized[-1]) if quantized else level)
        assert quantized_profit(latencies, schedule, e, tf, tb).hex() == (
            _public_profit(latencies, quantized, e, tf, 0.0).hex()
        )

    @pytest.mark.parametrize(
        "args",
        [
            ([10, 5], [100.0], -1.0, 0.0, 0.0),
            ([10, 5], [100.0], 1.0, -1.0, 0.0),
            ([10, 5], [100.0], 1.0, 0.0, -1.0),
            ([10, 5], [], 1.0, 0.0, 0.0),
            ([10], [100.0], 1.0, 0.0, 0.0),
            ([10, 5, 2], [100.0, 50.0], 1.0, 0.0, 0.0),
        ],
    )
    def test_public_functions_keep_their_checks(self, args):
        with pytest.raises(ValidationError):
            profit_value(*args)
        with pytest.raises(ValidationError):
            expected_executions(*args)

    def test_per_improvement_keeps_its_check(self):
        with pytest.raises(ValidationError):
            per_improvement(-1.0, 10, 5)
