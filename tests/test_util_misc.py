"""RNG determinism, table rendering, and validation helpers."""

import numpy as np
import pytest

from repro.util.rng import make_rng, spawn_rng
from repro.util.tables import render_series, render_table
from repro.util.validation import (
    ValidationError,
    build_trusted,
    check_non_negative,
    check_positive,
    check_type,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 10**9)
        b = make_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        rng = np.random.default_rng(5)
        assert make_rng(rng) is rng

    def test_spawn_rng_is_deterministic(self):
        a = spawn_rng(make_rng(9), 3).integers(0, 10**9)
        b = spawn_rng(make_rng(9), 3).integers(0, 10**9)
        assert a == b

    def test_spawned_children_are_independent(self):
        parent = make_rng(9)
        a = spawn_rng(parent, 0).integers(0, 10**9)
        b = spawn_rng(parent, 1).integers(0, 10**9)
        assert a != b


class TestRenderTable:
    def test_headers_and_rows_aligned(self):
        out = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert lines[-1].endswith("22")

    def test_float_precision(self):
        out = render_table(["x"], [[1.23456]], precision=2)
        assert "1.23" in out and "1.235" not in out

    def test_title_line(self):
        out = render_table(["x"], [[1]], title="Fig. 1")
        assert out.splitlines()[0] == "Fig. 1"

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])


class TestRenderSeries:
    def test_series_columns(self):
        out = render_series({"s1": [1.0, 2.0], "s2": [3.0, 4.0]}, x_label="e")
        assert "s1" in out and "s2" in out and "e" in out

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            render_series({"a": [1.0], "b": [1.0, 2.0]})

    def test_custom_x_values(self):
        out = render_series({"a": [1.0, 2.0]}, x_values=[10, 20])
        assert "10" in out and "20" in out

    def test_x_values_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="x_values"):
            render_series({"a": [1.0, 2.0]}, x_values=[1])

    def test_empty_series_returns_title(self):
        assert render_series({}, title="t") == "t"


class TestValidation:
    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive("x", 0)

    def test_check_non_negative_accepts_zero(self):
        check_non_negative("x", 0)

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative("x", -1)

    def test_check_type_rejects_bool_as_int(self):
        with pytest.raises(ValidationError):
            check_type("x", True, int)

    def test_check_type_accepts_match(self):
        check_type("x", 3, int)

    def test_check_type_rejects_mismatch(self):
        with pytest.raises(ValidationError):
            check_type("x", "3", int)

    def test_numeric_checks_reject_bool(self):
        for check in (check_non_negative, check_positive):
            with pytest.raises(ValidationError):
                check("x", True)
        with pytest.raises(ValidationError):
            check_type("x", False, (int, float))

    def test_check_type_accepts_bool_where_expected(self):
        check_type("x", True, (bool, int))


class TestBuildTrusted:
    def test_trusted_instances_match_constructed_ones(self):
        """``build_trusted`` skips ``__init__`` but yields an instance that
        compares, hashes, prints and pickles like the constructed one."""
        import pickle

        from repro.core.ecu import ExecutionDecision, ExecutionMode, ExecutionRun
        from repro.fabric.datapath import FabricType
        from repro.fabric.reconfig import ReconfigRequest

        decision = dict(
            kernel="k", mode=ExecutionMode.SELECTED, latency=7, level=1,
            ise_name="k.ise",
        )
        cases = [
            (ExecutionDecision, decision),
            (ExecutionRun, dict(
                decision=ExecutionDecision(**decision), count=3,
                horizon=float("inf"), cascade_called=False, event_crossed=True,
            )),
            (ReconfigRequest, dict(
                impl_name="k.dp@fg", fabric=FabricType.FG, start=5, done=9,
                owner="o", requested_at=2,
            )),
        ]
        for cls, fields in cases:
            built, trusted = cls(**fields), build_trusted(cls, **fields)
            assert trusted == built and hash(trusted) == hash(built)
            assert repr(trusted) == repr(built)
            assert pickle.loads(pickle.dumps(trusted)) == built


class TestPublicConstructorsValidate:
    """The public constructors and methods reject a bool where they want a
    number; the simulator's trusted paths, which skip the checks, are
    separate entry points."""

    def test_trigger_instruction(self):
        from repro.sim.trigger import TriggerInstruction

        with pytest.raises(ValidationError):
            TriggerInstruction("k", True, 0, 1)
        assert TriggerInstruction.trusted("k", True, 0, 1).executions is True

    def test_kernel_iteration(self):
        from repro.sim.program import KernelIteration

        with pytest.raises(ValidationError):
            KernelIteration("k", True, 5)
        with pytest.raises(ValidationError):
            KernelIteration("k", 3, True)
        assert KernelIteration.trusted("k", True, 5).executions is True

    def test_observe_iteration(self):
        from repro.core.mpu import MonitoringPredictionUnit

        mpu = MonitoringPredictionUnit()
        with pytest.raises(ValidationError):
            mpu.observe_iteration("B", "k", actual_executions=True)
        with pytest.raises(ValidationError):
            mpu.observe_iteration("B", "k", 3.0, actual_time_between=True)
        assert mpu.stats("B", "k") is None
        mpu.observe_trusted("B", "k", 3.0)
        assert mpu.stats("B", "k").observed_iterations == 1

    def test_schedule_reconfig(self):
        from repro.fabric.cg_fabric import CGFabricArray
        from repro.fabric.fg_fabric import FGFabric

        fg = FGFabric(n_prcs=1)
        cg = CGFabricArray(n_fabrics=1)
        for fabric in (fg, cg):
            with pytest.raises(ValidationError):
                fabric.schedule_reconfig(True, 10)
            with pytest.raises(ValidationError):
                fabric.schedule_reconfig(0, True)
        assert fg.port_available_at == 0
        assert fg.schedule_trusted(0, 10)[:2] == (0, 10)
        assert cg.schedule_trusted(5, 10) == (5, 15)

    def test_evict(self):
        from repro.fabric.datapath import FabricType
        from repro.fabric.resources import ResourceBudget, ResourceState

        state = ResourceState(ResourceBudget(n_prcs=1, n_cg_fabrics=0))
        with pytest.raises(ValidationError):
            state.evict(FabricType.FG, True, 0)
        assert state.evict_in_order([], FabricType.FG, 1, 0) == 1
