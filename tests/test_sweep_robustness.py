"""The sweep utility + seed robustness of the headline shapes."""

import pytest

from repro.experiments.sweep import run_sweep
from repro.util.validation import ReproError

#: A short, thinned H.264 run per cell.
FAST_APP = {"frames": 4, "scale": 0.5}


class TestSweepMachinery:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(
            budgets=[(1, 1), (2, 2)],
            seeds=[1, 2],
            policies=["mrts"],
            workload_params=FAST_APP,
        )

    def test_point_count(self, sweep):
        assert len(sweep.points) == 2 * 2 * 1

    def test_filtering(self, sweep):
        assert len(sweep.filtered(budget_label="11")) == 2
        assert len(sweep.filtered(budget_label="11", seed=1)) == 1

    def test_mean_and_spread(self, sweep):
        mean = sweep.mean_speedup("22", "mrts")
        lo, hi = sweep.speedup_spread("22", "mrts")
        assert lo <= mean <= hi

    def test_unknown_cell_raises(self, sweep):
        with pytest.raises(ReproError):
            sweep.mean_speedup("99", "mrts")

    def test_unknown_filter_attribute_raises(self, sweep):
        with pytest.raises(ReproError, match="unknown sweep point attribute"):
            sweep.filtered(budget="11")  # the attribute is budget_label
        with pytest.raises(ReproError, match="valid:"):
            sweep.filtered(budget_label="11", polcy="mrts")

    def test_records_and_render(self, sweep):
        headers, rows = sweep.records()
        assert len(rows) == len(sweep.points)
        assert "speedup" in headers
        assert "Parameter sweep" in sweep.render()


class TestSeedRobustness:
    """The paper's headline orderings must not hinge on one lucky seed."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(
            budgets=[(0, 3), (3, 0), (1, 1), (3, 3)],
            seeds=[0, 7, 13],
            policies=["mrts"],
            workload_params={"frames": 8},
        )

    def test_multigrained_beats_single_granularity_every_seed(self, sweep):
        for seed in (0, 7, 13):
            mixed = sweep.filtered(budget_label="11", seed=seed)[0].speedup_vs_risc
            fg = sweep.filtered(budget_label="03", seed=seed)[0].speedup_vs_risc
            cg = sweep.filtered(budget_label="30", seed=seed)[0].speedup_vs_risc
            assert mixed > fg, f"seed {seed}"
            assert mixed > cg * 0.97, f"seed {seed}"

    def test_fg_only_band_stable(self, sweep):
        lo, hi = sweep.speedup_spread("03", "mrts")
        assert 1.5 < lo and hi < 2.8

    def test_top_combo_consistently_strong(self, sweep):
        lo, _ = sweep.speedup_spread("33", "mrts")
        assert lo > 4.0

    def test_acceleration_fraction_high_everywhere(self, sweep):
        for point in sweep.filtered(budget_label="33"):
            assert point.accelerated_fraction > 0.85
