"""The Monitoring & Prediction Unit and the overhead/config models."""

import pytest

from repro.core.config import MRTSConfig, OverheadModel
from repro.core.mpu import MonitoringPredictionUnit
from repro.core.selector import SelectionResult
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ValidationError


def trig(e=100.0, tf=50.0, tb=20.0):
    return TriggerInstruction("k", e, tf, tb)


class TestMPUForecast:
    def test_first_forecast_is_the_profile(self):
        mpu = MonitoringPredictionUnit(alpha=0.5)
        out = mpu.forecast("B", trig(e=100))
        assert out.executions == 100.0

    def test_error_backpropagation_moves_toward_observation(self):
        mpu = MonitoringPredictionUnit(alpha=0.5)
        mpu.forecast("B", trig(e=100))
        mpu.observe_iteration("B", "k", actual_executions=200)
        out = mpu.forecast("B", trig(e=100))
        assert out.executions == 150.0

    def test_alpha_one_jumps_to_observation(self):
        mpu = MonitoringPredictionUnit(alpha=1.0)
        mpu.forecast("B", trig(e=100))
        mpu.observe_iteration("B", "k", actual_executions=240)
        assert mpu.forecast("B", trig(e=100)).executions == 240.0

    def test_alpha_zero_freezes_profile(self):
        mpu = MonitoringPredictionUnit(alpha=0.0)
        mpu.forecast("B", trig(e=100))
        mpu.observe_iteration("B", "k", actual_executions=240)
        assert mpu.forecast("B", trig(e=100)).executions == 100.0

    def test_converges_on_stationary_workload(self):
        mpu = MonitoringPredictionUnit(alpha=0.5)
        mpu.forecast("B", trig(e=10))
        for _ in range(20):
            mpu.observe_iteration("B", "k", actual_executions=300)
        assert mpu.forecast("B", trig(e=10)).executions == pytest.approx(300, rel=0.01)

    def test_blocks_are_independent(self):
        mpu = MonitoringPredictionUnit(alpha=1.0)
        mpu.forecast("B1", trig(e=100))
        mpu.forecast("B2", trig(e=100))
        mpu.observe_iteration("B1", "k", actual_executions=500)
        assert mpu.forecast("B1", trig(e=100)).executions == 500.0
        assert mpu.forecast("B2", trig(e=100)).executions == 100.0

    def test_timing_fields_also_corrected(self):
        mpu = MonitoringPredictionUnit(alpha=1.0)
        mpu.forecast("B", trig(tf=50, tb=20))
        mpu.observe_iteration(
            "B", "k", actual_executions=100, actual_time_to_first=80,
            actual_time_between=44,
        )
        out = mpu.forecast("B", trig())
        assert out.time_to_first == 80.0
        assert out.time_between == 44.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValidationError):
            MonitoringPredictionUnit(alpha=1.5)

    def test_negative_observed_timing_rejected(self):
        # The forecast trigger is built unchecked, so the observations
        # feeding it are validated where they enter.
        mpu = MonitoringPredictionUnit(alpha=1.0)
        mpu.forecast("B", trig())
        with pytest.raises(ValidationError, match="actual_time_between"):
            mpu.observe_iteration(
                "B", "k", actual_executions=10, actual_time_between=-1.0
            )
        with pytest.raises(ValidationError, match="actual_time_to_first"):
            mpu.observe_iteration(
                "B", "k", actual_executions=10, actual_time_to_first=-0.5
            )
        # Neither rejected observation touched the forecast.
        assert mpu.forecast("B", trig()) == trig()

    def test_forecast_equals_a_validated_trigger(self):
        mpu = MonitoringPredictionUnit(alpha=0.5)
        mpu.forecast("B", trig(e=100, tf=50, tb=20))
        mpu.observe_iteration(
            "B", "k", actual_executions=0, actual_time_to_first=0,
            actual_time_between=4,
        )
        out = mpu.forecast("B", trig())
        assert out == TriggerInstruction("k", 50.0, 25.0, 12.0)
        assert hash(out) == hash(TriggerInstruction("k", 50.0, 25.0, 12.0))

    def test_mae_reporting(self):
        mpu = MonitoringPredictionUnit(alpha=0.5)
        assert mpu.mean_absolute_error() == 0.0
        mpu.forecast("B", trig(e=100))
        mpu.observe_iteration("B", "k", actual_executions=160)
        assert mpu.mean_absolute_error() == 60.0

    def test_observation_without_forecast_seeds_state(self):
        mpu = MonitoringPredictionUnit(alpha=0.5)
        mpu.observe_iteration("B", "k", actual_executions=40)
        assert mpu.forecast("B", trig(e=999)).executions == 40.0

    def test_stats_accessor(self):
        mpu = MonitoringPredictionUnit()
        assert mpu.stats("B", "k") is None
        mpu.forecast("B", trig())
        assert mpu.stats("B", "k") is not None


class TestOverheadModel:
    def make_result(self, candidates=60, evals=120, rounds=4):
        result = SelectionResult()
        result.candidates_considered = candidates
        result.profit_evaluations = evals
        result.rounds = rounds
        return result

    def test_full_cycles_composition(self):
        model = OverheadModel(
            base_cycles=100, per_candidate_cycles=2,
            per_evaluation_cycles=10, per_round_cycles=50,
        )
        result = self.make_result(candidates=10, evals=20, rounds=2)
        assert model.full_cycles(result) == 100 + 20 + 200 + 100

    def test_hiding_charges_first_round_only(self):
        model = OverheadModel()
        result = self.make_result(rounds=4)
        full = model.full_cycles(result)
        charged = model.charged_cycles(result, hidden=True)
        assert charged < full
        assert charged == model.base_cycles + (full - model.base_cycles) // 4

    def test_no_hiding_charges_everything(self):
        model = OverheadModel()
        result = self.make_result()
        assert model.charged_cycles(result, hidden=False) == model.full_cycles(result)

    def test_single_round_cannot_hide(self):
        model = OverheadModel()
        result = self.make_result(rounds=1)
        assert model.charged_cycles(result, hidden=True) == model.full_cycles(result)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValidationError):
            OverheadModel(base_cycles=-1)


class TestMRTSConfig:
    def test_defaults_match_paper_features(self):
        config = MRTSConfig()
        assert config.enable_intermediate
        assert config.enable_monocg
        assert config.hide_selection_overhead

    def test_overhead_model_is_attached(self):
        assert isinstance(MRTSConfig().overhead, OverheadModel)


class TestWindowedForecast:
    """The windowed-mean extension of the MPU (beyond the paper's [12])."""

    def trig(self, e=100.0):
        return TriggerInstruction("k", e, 50.0, 20.0)

    def test_strict_alternation_converges_to_the_mean(self):
        """EWMA lags one step on A,B,A,B,...; a window of 2 predicts the
        mean of the alternation exactly."""
        mpu = MonitoringPredictionUnit(alpha=0.5, window=2)
        mpu.forecast("B", self.trig())
        for i in range(10):
            mpu.observe_iteration("B", "k", actual_executions=30 if i % 2 else 900)
        assert mpu.forecast("B", self.trig()).executions == pytest.approx(465.0)

    def test_ewma_lags_strict_alternation(self):
        mpu = MonitoringPredictionUnit(alpha=1.0, window=0)
        mpu.forecast("B", self.trig())
        observations = [900 if i % 2 == 0 else 30 for i in range(10)]
        for obs in observations:
            mpu.observe_iteration("B", "k", actual_executions=obs)
        # alpha=1 EWMA predicts the *previous* regime: maximally wrong.
        assert mpu.forecast("B", self.trig()).executions == observations[-1]

    def test_window_tracks_steps_with_delay(self):
        mpu = MonitoringPredictionUnit(window=3)
        mpu.forecast("B", self.trig(e=10))
        for _ in range(5):
            mpu.observe_iteration("B", "k", actual_executions=300)
        assert mpu.forecast("B", self.trig()).executions == pytest.approx(300)

    def test_window_keeps_only_w_observations(self):
        mpu = MonitoringPredictionUnit(window=2)
        mpu.forecast("B", self.trig())
        for value in (10, 20, 30, 40):
            mpu.observe_iteration("B", "k", actual_executions=value)
        assert mpu.forecast("B", self.trig()).executions == pytest.approx(35.0)

    def test_negative_window_rejected(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError):
            MonitoringPredictionUnit(window=-1)

    def test_timing_fields_still_use_ewma(self):
        mpu = MonitoringPredictionUnit(alpha=1.0, window=2)
        mpu.forecast("B", self.trig())
        mpu.observe_iteration(
            "B", "k", actual_executions=100,
            actual_time_to_first=77, actual_time_between=33,
        )
        out = mpu.forecast("B", self.trig())
        assert out.time_to_first == 77.0
        assert out.time_between == 33.0
