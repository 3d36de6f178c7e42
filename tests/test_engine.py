"""The parallel cached sweep engine.

Covers the PR's acceptance contract: a >=32-cell sweep through a 4-wide
process pool is byte-identical to the serial path, a repeated run is served
entirely from the content-addressed cache (>=5x faster, zero simulations),
and cache keys react to every cell dimension.
"""

import json
import time

import pytest

from repro.core.mrts import MRTS
from repro.experiments import engine as engine_module
from repro.experiments.engine import (
    POLICIES,
    SweepCell,
    SweepEngine,
    cell_key,
    execute_cell,
)
from repro.experiments.fig10_speedup import run_fig10
from repro.experiments.sweep import run_sweep
from repro.util.validation import ReproError
from repro.service.store import STORE_NAME
from tests.test_cache_concurrency import run_sql

#: Small-but-real workload: each cell is a genuine mRTS/RISC simulation.
FAST = {"frames": 2, "scale": 0.4}


def make_cells(budgets=((1, 1), (2, 2), (3, 3)), seeds=range(6),
               policies=("risc", "mrts")):
    """3 budgets x 6 seeds x 2 policies = 36 cells by default."""
    return [
        SweepCell.make(budget, seed, policy, workload_params=FAST)
        for budget in budgets
        for seed in seeds
        for policy in policies
    ]


class TestCellKeys:
    def test_key_is_stable(self):
        cell = SweepCell.make((1, 2), 7, "mrts", workload_params=FAST)
        again = SweepCell.make((1, 2), 7, "mrts", workload_params=FAST)
        assert cell_key(cell) == cell_key(again)

    def test_key_ignores_param_ordering(self):
        a = SweepCell.make((1, 1), 0, "mrts",
                           workload_params={"frames": 2, "scale": 0.4})
        b = SweepCell.make((1, 1), 0, "mrts",
                           workload_params={"scale": 0.4, "frames": 2})
        assert cell_key(a) == cell_key(b)

    @pytest.mark.parametrize("change", [
        dict(budget=(2, 1)),
        dict(seed=8),
        dict(policy="risc"),
        dict(workload_params={"frames": 3, "scale": 0.4}),
        dict(workload_params={"frames": 2, "scale": 0.5}),
        dict(workload="deblocking"),
    ])
    def test_key_changes_with_every_dimension(self, change):
        base = dict(budget=(1, 2), seed=7, policy="mrts",
                    workload="h264", workload_params=FAST)
        assert cell_key(SweepCell.make(**base)) != cell_key(
            SweepCell.make(**{**base, **change})
        )

    def test_unknown_policy_and_workload_rejected(self):
        with pytest.raises(ReproError):
            SweepCell.make((1, 1), 0, "definitely-not-a-policy")
        with pytest.raises(ReproError):
            SweepCell.make((1, 1), 0, "mrts", workload="no-such-workload")


class TestAcceptance:
    """The headline contract, on one 36-cell sweep."""

    def test_parallel_identical_and_cache_5x(self, tmp_path):
        cells = make_cells()
        assert len(cells) >= 32

        serial = SweepEngine(jobs=1, use_cache=False).run(cells)

        pool = SweepEngine(jobs=4, use_cache=True, cache_dir=tmp_path / "c")
        cold_start = time.perf_counter()
        parallel = pool.run(cells)
        cold = time.perf_counter() - cold_start
        assert pool.stats.executed == len(cells)

        assert json.dumps(serial) == json.dumps(parallel)

        warm_start = time.perf_counter()
        cached = pool.run(cells)
        warm = time.perf_counter() - warm_start
        assert pool.stats.cache_hits == len(cells)
        assert pool.stats.executed == 0
        assert json.dumps(serial) == json.dumps(cached)
        assert cold / warm >= 5.0, f"cache speedup only {cold / warm:.1f}x"


class TestCache:
    def test_second_run_skips_simulation(self, tmp_path, monkeypatch):
        calls = []

        def counting_execute(cell):
            calls.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", counting_execute)
        cells = make_cells(budgets=[(1, 1)], seeds=[0, 1])
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        first = eng.run(cells)
        assert len(calls) == len(cells)
        second = eng.run(cells)
        assert len(calls) == len(cells), "cache hit must not simulate again"
        assert first == second

    def test_duplicate_cells_simulated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_execute(cell):
            calls.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", counting_execute)
        cell = SweepCell.make((1, 1), 0, "risc", workload_params=FAST)
        records = SweepEngine(jobs=1, cache_dir=tmp_path / "c").run([cell, cell])
        assert len(calls) == 1
        assert records[0] == records[1]

    def test_changed_cell_is_a_miss(self, tmp_path, monkeypatch):
        calls = []

        def counting_execute(cell):
            calls.append(cell)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", counting_execute)
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        eng.run([SweepCell.make((1, 1), 0, "risc", workload_params=FAST)])
        eng.run([SweepCell.make((1, 1), 1, "risc", workload_params=FAST)])
        assert len(calls) == 2

    def test_corrupt_cache_entry_reexecutes(self, tmp_path):
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        cell = SweepCell.make((1, 1), 0, "risc", workload_params=FAST)
        first = eng.run([cell])
        run_sql(tmp_path / "c", "UPDATE cells SET record = '{not json'")
        second = eng.run([cell])
        assert eng.stats.executed == 1
        assert first == second
        eng.run([cell])  # the re-executed record overwrote the bad row
        assert eng.stats.cache_hits == 1

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        eng = SweepEngine(jobs=1, use_cache=False, cache_dir=tmp_path / "c")
        eng.run([SweepCell.make((1, 1), 0, "risc", workload_params=FAST)])
        assert not (tmp_path / "c").exists()


class TestCellStore:
    """Deterministic pins on the cell store's work per run."""

    def test_corrupt_store_file_reexecutes_every_cell(self, tmp_path):
        cells = make_cells(budgets=[(1, 1)], seeds=[0, 1])
        expected = SweepEngine(jobs=1, use_cache=False).run(cells)
        cache = tmp_path / "c"
        cache.mkdir()
        (cache / STORE_NAME).write_bytes(b"\x00garbage" * 512)
        eng = SweepEngine(jobs=1, cache_dir=cache)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert eng.run(cells) == expected
        assert eng.stats.executed == len(cells) and eng.stats.cache_hits == 0
        assert eng.run(cells) == expected
        assert eng.stats.cache_hits == len(cells)

    def test_warm_run_batches_reads(self, tmp_path, monkeypatch):
        """N cached cells: ceil(N / 900) SELECTs, one recency transaction,
        no per-record file open."""
        cells = [
            SweepCell.make((1, 1), seed, policy, workload_params=FAST)
            for seed in range(455)
            for policy in ("risc", "mrts")
        ]
        eng = SweepEngine(jobs=1, cache_dir=tmp_path)
        eng.store.put_many(
            (cell_key(cell), cell.payload(), {"seed": cell.seed, "policy": cell.policy})
            for cell in cells
        )
        before = eng.store.counters()
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a))
        delivered = {}
        count = eng.run_streamed(cells, lambda i, cell, record: delivered.setdefault(i, record))
        monkeypatch.undo()
        after = eng.store.counters()
        assert count == len(cells) == 910 and eng.stats.cache_hits == 910
        assert after["selects"] - before["selects"] == 2
        assert after["transactions"] - before["transactions"] == 1
        assert after["writes"] == before["writes"]
        assert opened == []
        assert delivered[3] == {"policy": "mrts", "seed": 1}

    def test_one_cell_runs_do_constant_store_work(self, tmp_path):
        """Each one-cell run issues the same statements whatever the store
        holds, and none of them scans the table."""

        def statements_per_run(root, filler):
            eng = SweepEngine(jobs=1, cache_dir=root)
            eng.store.put_many(
                (f"{n:064x}", {}, {"pad": "x" * 50}) for n in range(filler)
            )
            conn = eng.store._connection()
            traced = []
            conn.set_trace_callback(traced.append)
            runs = []
            for seed in range(3):
                del traced[:]
                eng.run([SweepCell.make((1, 1), seed, "risc", workload_params=FAST)])
                runs.append(list(traced))
            conn.set_trace_callback(None)
            plans = [
                detail
                for run in runs
                for sql in run
                for (*_, detail) in conn.execute("EXPLAIN QUERY PLAN " + sql)
            ]
            return runs, plans

        small, small_plans = statements_per_run(tmp_path / "small", 0)
        large, large_plans = statements_per_run(tmp_path / "large", 3000)
        shapes = [[sql.split(" ")[0] for sql in run] for run in small + large]
        assert shapes == [["SELECT", "BEGIN", "SELECT", "INSERT", "COMMIT"]] * 6
        assert small_plans == large_plans
        assert large_plans and not any(plan.startswith("SCAN") for plan in large_plans)


class TestRunSweepRouting:
    def test_engine_path_matches_legacy_path(self):
        budgets, seeds = [(1, 1)], [1, 2]
        from repro.workloads.h264 import h264_application

        engine_points = run_sweep(budgets, seeds, ["mrts"]).points
        legacy_points = run_sweep(
            budgets, seeds, {"mrts": MRTS},
            application_factory=lambda seed: h264_application(frames=8, seed=seed),
        ).points
        assert engine_points == legacy_points

    def test_parallel_sweep_points_identical(self, tmp_path):
        budgets, seeds = [(1, 1), (2, 2)], [1, 2]
        serial = run_sweep(budgets, seeds, ["mrts"],
                           workload_params=FAST)
        parallel = run_sweep(budgets, seeds, ["mrts"],
                             workload_params=FAST, jobs=4,
                             use_cache=True, cache_dir=tmp_path / "c")
        assert serial.points == parallel.points

    def test_unknown_policy_name_raises(self):
        with pytest.raises(ReproError):
            run_sweep([(1, 1)], [0], ["not-a-policy"])

    def test_registry_covers_cli_policies(self):
        from repro.cli import POLICIES as cli_policies

        assert cli_policies is POLICIES


class TestFigRouting:
    def test_fig10_engine_matches_serial(self, tmp_path):
        kwargs = dict(frames=2, seed=7, max_cg=1, max_prc=1)
        serial = run_fig10(**kwargs)
        engined = run_fig10(jobs=2, use_cache=True,
                            cache_dir=tmp_path / "c", **kwargs)
        assert serial.speedups == engined.speedups
        assert [b.label for b in serial.budgets] == [
            b.label for b in engined.budgets
        ]


@pytest.mark.slow
class TestScale:
    """Larger fan-out, excluded from tier-1 (run with ``-m slow``)."""

    def test_128_cell_sweep(self, tmp_path):
        cells = make_cells(
            budgets=[(0, 1), (1, 0), (1, 1), (2, 2)],
            seeds=range(16),
            policies=("risc", "mrts"),
        )
        assert len(cells) == 128
        eng = SweepEngine(jobs=4, cache_dir=tmp_path / "c")
        records = eng.run(cells)
        assert len(records) == 128
        assert eng.run(cells) == records
        assert eng.stats.cache_hits == 128
