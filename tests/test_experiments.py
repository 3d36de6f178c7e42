"""The experiment modules (fast, reduced-size runs)."""

import pytest

from repro.experiments import (
    run_ablations,
    run_fig1,
    run_fig2,
    run_fig8,
    run_fig9,
    run_fig10,
    run_overhead,
    run_search_space,
)
from repro.experiments.common import budget_grid, geometric_mean, h264_cell
from repro.experiments.engine import SweepEngine
from repro.experiments.fig10_speedup import classify
from repro.fabric.resources import ResourceBudget


class TestCommon:
    def test_budget_grid_order_matches_paper_axis(self):
        grid = budget_grid(max_cg=1, max_prc=1)
        assert [b.label for b in grid] == ["00", "01", "10", "11"]

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_matrix_runner_caches(self):
        """Experiment cells that repeat (e.g. the RISC reference the
        comparison figures share) are simulated once per engine run."""
        cell = h264_cell((0, 1), 1, "risc", frames=1)
        with SweepEngine(jobs=1, use_cache=False) as engine:
            a, b = engine.run([cell, h264_cell((0, 1), 1, "risc", frames=1)])
            assert engine.stats.cells == 2
            assert engine.stats.unique_cells == engine.stats.executed == 1
        assert a is b

    def test_classify(self):
        assert classify(ResourceBudget(0, 0)) == "risc"
        assert classify(ResourceBudget(2, 0)) == "fg-only"
        assert classify(ResourceBudget(0, 2)) == "cg-only"
        assert classify(ResourceBudget(1, 1)) == "multi-grained"


class TestFig1:
    def test_sweep_structure(self):
        result = run_fig1(max_executions=5000, points=10)
        assert len(result.executions) == len(result.best) == 10
        assert set(result.curves) == {"ISE-1", "ISE-2", "ISE-3"}
        assert "Fig. 1" in result.render()

    def test_curves_monotone_nondecreasing(self):
        result = run_fig1(points=20)
        for series in result.curves.values():
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_boundaries_are_recorded(self):
        result = run_fig1(points=50)
        assert len(result.boundaries) >= 2

    def test_unknown_dominance_region_is_none(self):
        result = run_fig1(max_executions=100, points=2)
        assert result.dominance_region("ISE-1") is None


class TestFig2:
    def test_counts_match_trace_module(self):
        from repro.workloads.h264.traces import deblock_executions_per_frame

        result = run_fig2(frames=8, seed=3)
        assert result.executions_per_frame == deblock_executions_per_frame(8, seed=3)

    def test_render_mentions_winner_changes(self):
        result = run_fig2(frames=8, seed=0)
        assert "winner changes" in result.render()

    def test_best_ise_values_are_valid(self):
        result = run_fig2(frames=8, seed=0)
        assert set(result.best_ise_per_frame) <= {"ISE-1", "ISE-2", "ISE-3"}


class TestFigEnginePath:
    """fig2/fig5 ride the sweep engine as metric-bearing cells: a cached
    run must equal the plain run, and a warm rerun must serve from cache."""

    def test_fig2_caches_like_a_grid_cell(self, tmp_path):
        plain = run_fig2(frames=4, seed=3)
        cold = run_fig2(frames=4, seed=3, use_cache=True, cache_dir=tmp_path)
        warm = run_fig2(frames=4, seed=3, use_cache=True, cache_dir=tmp_path)
        assert plain == cold == warm
        from repro.experiments.engine import cache_stats

        assert cache_stats(tmp_path)["records"] > 0

    def test_fig5_caches_like_a_grid_cell(self, tmp_path):
        from repro.experiments.fig5_timeline import run_fig5

        plain = run_fig5(frames=2)
        cold = run_fig5(frames=2, use_cache=True, cache_dir=tmp_path)
        warm = run_fig5(frames=2, use_cache=True, cache_dir=tmp_path)
        assert plain == cold == warm
        assert plain.staircase_is_monotone

    def test_fig2_backend_kwargs_accepted(self):
        serial = run_fig2(frames=2, seed=0, backend="serial")
        pooled = run_fig2(frames=2, seed=0, backend="pool", jobs=2)
        assert serial == pooled


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(frames=2, seed=1, max_cg=1, max_prc=1)

    def test_grid_size(self, result):
        assert len(result.budgets) == 4
        for series in result.cycles.values():
            assert len(series) == 4

    def test_speedup_series_and_summaries(self, result):
        series = result.speedup_series("morpheus4s")
        assert len(series) == 4
        assert result.average_speedup("morpheus4s") > 0
        assert result.max_speedup("morpheus4s") >= max(series) - 1e-9

    def test_trivial_combo_is_parity(self, result):
        assert "00" in result.parity_budgets("rispp")

    def test_render_contains_summary(self, result):
        text = result.render()
        assert "mRTS vs" in text and "combo" in text


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(frames=2, seed=1, max_cg=1, max_prc=2)

    def test_percent_difference_shape(self, result):
        diffs = result.percent_difference()
        assert len(diffs) == len(result.budgets) == 6

    def test_worst_case_is_max(self, result):
        label, worst = result.worst_case()
        assert worst == max(result.percent_difference())
        assert label in [b.label for b in result.budgets]

    def test_render(self, result):
        assert "worst case" in result.render()


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10(frames=2, seed=1, max_cg=1, max_prc=1)

    def test_risc_combo_is_one(self, result):
        assert result.speedup_of("00") == pytest.approx(1.0, rel=0.01)

    def test_groups_partition_grid(self, result):
        total = sum(
            len(result.group(kind))
            for kind in ("risc", "fg-only", "cg-only", "multi-grained")
        )
        assert total == len(result.budgets)

    def test_average_excludes_risc(self, result):
        assert result.average_speedup > 1.0

    def test_unknown_label_raises(self, result):
        with pytest.raises(KeyError):
            result.speedup_of("99")


class TestOverheadExperiment:
    def test_metrics_consistent(self):
        result = run_overhead(frames=2, seed=1)
        assert result.selections == 6
        assert result.kernels_selected == 6 * 11 // 3 + 6 * 11 % 3  # 2+7+2 per frame
        assert 0 <= result.hidden_fraction <= 1
        assert result.cycles_per_selection >= result.total_overhead_cycles / 10
        assert "overhead" in result.render().lower()


class TestSearchSpaceExperiment:
    def test_counts(self):
        result = run_search_space()
        assert result.combinations > result.heuristic_evaluations
        assert result.reduction_factor > 1
        assert len(result.kernels) == 7


class TestAblationsExperiment:
    def test_full_is_reference(self):
        result = run_ablations(frames=2, seed=1)
        assert result.slowdown("full mRTS") == 1.0
        assert set(result.cycles) == {
            "full mRTS",
            "no monoCG-Extension",
            "no intermediate ISEs",
            "no MPU adaptation (alpha=0)",
            "no overhead hiding",
        }


class TestSensitivityExperiment:
    def test_variants_and_columns(self):
        from repro.experiments.sensitivity import run_sensitivity

        result = run_sensitivity(frames=2)
        assert len(result.cells) == 6
        for name, speedups in result.cells.items():
            assert len(speedups) == 4
            assert all(s >= 1.0 for s in speedups), name
        assert "sensitivity" in result.render().lower()


class TestEnergyExperiment:
    def test_breakdowns_cover_all_policies(self):
        from repro.experiments.energy import POLICIES, run_energy

        result = run_energy(frames=2)
        assert set(result.breakdowns) == set(POLICIES)
        assert result.saving_vs_risc("mrts") > 0
        assert "Energy" in result.render()


class TestMultitaskExperiment:
    def test_cells_and_interference(self):
        from repro.experiments.multitask import run_multitask

        result = run_multitask(frames=2, images=2, budgets=[(2, 2)])
        assert set(result.cells) == {"22"}
        for task in ("h264", "jpeg"):
            assert result.interference("22", task) >= 0.99
        assert "Multi-task" in result.render()
