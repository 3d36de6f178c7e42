"""The packed engine's per-run event loop: traced runs, event by event.

With trace collection on, the packed engine never takes its folds: it
walks every run group as one event -- one ECU decision, then a
fast-forward over the run's remaining executions -- and records one
``ExecutionRunRecord`` per event.  This suite pins that loop: its
counters and run records, its identity to the stepped oracle on the JPEG
workload (every policy on the fig8 budget cut, and under run-time fabric
contention) and on randomized programs, and the engine resolution that
selects it.  ``tests/test_sim_packed.py`` covers the h264 grid, the
untraced folds and the compact program.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ecu import ExecutionMode
from repro.core.mrts import MRTS
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.contention import ContentionEvent, ContentionSchedule
from repro.sim.simulator import ENGINE_MODE_ENV, resolve_engine_mode
from repro.sim.trace import ExecutionRunRecord
from repro.util.validation import ReproError
from repro.workloads.h264 import h264_application, h264_library
from repro.workloads.jpeg import jpeg_application, jpeg_library
from tests.test_sim_packed import (
    GRID_BUDGETS,
    POLICY_FACTORIES,
    _deblocking_scenario,
    _identical,
    _random_application,
    _run,
    iteration_params,
    kernel_shapes,
)


def _jpeg_application():
    return jpeg_application(images=3, blocks_per_image=60, seed=0)


def _assert_runs_account_for_executions(result):
    """Every execution is a cascade call or a fast-forward, and the run
    records expand to exactly the per-execution trace."""
    stats = result.stats
    assert stats.ecu_calls + stats.executions_fastforwarded == stats.total_executions
    assert [
        record for run in result.trace.runs for record in run.expand()
    ] == result.trace.executions


# ------------------------------------------------- golden-workload identity


class TestGoldenWorkload:
    def test_deblocking_byte_identical(self):
        application, budget, make_library = _deblocking_scenario()
        stepped, packed = _identical(application, budget, make_library, MRTS)
        assert packed.stats.ecu_calls < stepped.stats.ecu_calls

    def test_stepped_counters_are_trivial(self):
        application, budget, make_library = _deblocking_scenario()
        result = _run(application, budget, make_library, MRTS, "stepped")
        stats = result.stats
        assert stats.ecu_calls == stats.total_executions
        assert stats.executions_fastforwarded == 0
        assert stats.events_processed == 0
        assert result.trace.runs == []

    def test_event_counters_account_for_every_execution(self):
        application, budget, make_library = _deblocking_scenario()
        result = _run(application, budget, make_library, MRTS, "packed")
        assert result.stats.executions_fastforwarded > 0
        _assert_runs_account_for_executions(result)

    def test_engine_payload_separate_from_golden_payload(self):
        application, budget, make_library = _deblocking_scenario()
        stats = _run(application, budget, make_library, MRTS, "packed").stats
        engine = stats.engine_payload()
        assert set(engine) == {
            "ecu_calls",
            "executions_fastforwarded",
            "events_processed",
            "fastforward_fraction",
        }
        assert 0.0 < engine["fastforward_fraction"] < 1.0
        # The golden snapshots compare to_payload(); engine counters must
        # never leak into it or the snapshots become engine-dependent.
        assert not set(engine) & set(stats.to_payload())


# ----------------------------------------------- policy x budget grid


class TestPolicyGrid:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    def test_engines_identical_across_budgets(self, policy_name):
        for cg, prc in GRID_BUDGETS:
            budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
            _, packed = _identical(
                _jpeg_application(),
                budget,
                lambda budget=budget: jpeg_library(budget),
                POLICY_FACTORIES[policy_name],
            )
            _assert_runs_account_for_executions(packed)

    def test_event_engine_reduces_ecu_calls_for_mrts(self):
        application = h264_application(frames=2, seed=7)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        stepped, packed = _identical(
            application, budget, lambda: h264_library(budget), MRTS
        )
        assert stepped.stats.ecu_calls >= 5 * packed.stats.ecu_calls


# --------------------------------------------------------- contention


class TestContention:
    def test_periodic_contention_identical(self):
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _identical(
            _jpeg_application(),
            budget,
            lambda: jpeg_library(budget),
            MRTS,
            contention_factory=lambda: ContentionSchedule.periodic(
                period=40_000, duty_prcs=1, duty_cg_slots=1, until=400_000
            ),
        )

    def test_full_contention_identical(self):
        """Everything claimed at t=0, released mid-run: the event loop
        must re-evaluate regimes when block-boundary contention events
        mutate the fabric."""
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        _identical(
            _jpeg_application(),
            budget,
            lambda: jpeg_library(budget),
            MRTS,
            contention_factory=lambda: ContentionSchedule(
                [
                    ContentionEvent(time=0, task="bg", n_prcs=2, n_cg_slots=8),
                    ContentionEvent(time=150_000, task="bg"),
                ]
            ),
        )


# ------------------------------------------------- randomized workloads


class TestRandomized:
    @settings(max_examples=25, deadline=None)
    @given(
        shapes=kernel_shapes,
        cg=st.integers(min_value=0, max_value=3),
        prc=st.integers(min_value=0, max_value=3),
        demands=iteration_params,
    )
    def test_random_libraries_identical(self, shapes, cg, prc, demands):
        application, kernels = _random_application(shapes, demands)
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        _, packed = _identical(
            application, budget, lambda: ISELibrary(kernels, budget), MRTS
        )
        _assert_runs_account_for_executions(packed)


# ------------------------------------------------- engine resolution


class TestEngineResolution:
    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "stepped")
        assert resolve_engine_mode() == "stepped"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "stepped")
        assert resolve_engine_mode("packed") == "packed"

    def test_event_rejected(self, monkeypatch):
        """The standalone event engine is gone: asking for it is an
        error, never a silent fallback."""
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        with pytest.raises(ReproError):
            resolve_engine_mode("event")
        monkeypatch.setenv(ENGINE_MODE_ENV, "event")
        with pytest.raises(ReproError):
            resolve_engine_mode()

    @pytest.mark.parametrize("bad", ["fast", "STEPPED", ""])
    def test_invalid_explicit_rejected(self, bad, monkeypatch):
        monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)
        if bad:
            with pytest.raises(ReproError):
                resolve_engine_mode(bad)
        else:
            # Empty string falls through to the default like None.
            assert resolve_engine_mode(bad) == "packed"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_MODE_ENV, "warp")
        with pytest.raises(ReproError):
            resolve_engine_mode()

    def test_simulator_honours_env(self, monkeypatch):
        application, budget, make_library = _deblocking_scenario()
        monkeypatch.setenv(ENGINE_MODE_ENV, "stepped")
        result = _run(application, budget, make_library, MRTS, None)
        assert result.trace.runs == []
        assert result.stats.executions_fastforwarded == 0


# ------------------------------------------------- run-record expansion


class TestRunRecord:
    def test_expand_reconstructs_stepped_records(self):
        run = ExecutionRunRecord(
            time=100,
            block="B",
            kernel="k",
            mode=ExecutionMode.RISC,
            latency=7,
            level=0,
            ise_name=None,
            count=3,
            period=10,
        )
        records = run.expand()
        assert [r.time for r in records] == [100, 110, 120]
        assert all(
            (r.kernel, r.mode, r.latency, r.level) == ("k", ExecutionMode.RISC, 7, 0)
            for r in records
        )
