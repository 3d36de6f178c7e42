"""Cache maintenance (LRU eviction, stats, clear) and the cell-key
extensions that route the sensitivity experiment through the engine
(``budget_params`` and cost-model overrides)."""

import warnings

import pytest

from repro.cli import main
from repro.experiments.engine import (
    SweepCell,
    SweepEngine,
    cache_stats,
    cell_key,
    clear_cache,
    evict_cache,
    execute_cell,
)
from repro.service.store import STORE_NAME, RecordStore
from repro.util.validation import ReproError
from tests.test_cache_concurrency import run_sql

FAST = {"frames": 2, "scale": 0.4}


def _plant(cache_dir, key, size, used):
    """Plant a store row of a known size and use generation."""
    store = RecordStore(cache_dir)
    store.put(key, {}, {})
    store.close()
    run_sql(cache_dir, "UPDATE cells SET size = ?, used = ? WHERE key = ?", (size, used, key))


def _keys(cache_dir):
    return [key for (key,) in run_sql(cache_dir, "SELECT key FROM cells ORDER BY key")]


class TestEviction:
    def test_evicts_oldest_first(self, tmp_path):
        _plant(tmp_path, "aa1", 100, used=1)
        _plant(tmp_path, "bb2", 100, used=2)
        _plant(tmp_path, "cc3", 100, used=3)
        report = evict_cache(tmp_path, max_bytes=250)
        assert report == {"evicted": 1, "freed_bytes": 100}
        assert _keys(tmp_path) == ["bb2", "cc3"]

    def test_evicts_until_under_budget(self, tmp_path):
        for i, used in enumerate((1, 2, 3, 4)):
            _plant(tmp_path, f"e{i}x", 100, used=used)
        report = evict_cache(tmp_path, max_bytes=150)
        assert report["evicted"] == 3
        assert cache_stats(tmp_path)["total_bytes"] == 100
        assert _keys(tmp_path) == ["e3x"]

    def test_zero_budget_clears_everything(self, tmp_path):
        _plant(tmp_path, "aa1", 50, used=1)
        _plant(tmp_path, "bb2", 50, used=2)
        assert evict_cache(tmp_path, max_bytes=0)["evicted"] == 2
        assert cache_stats(tmp_path)["records"] == 0

    def test_under_budget_is_a_no_op(self, tmp_path):
        _plant(tmp_path, "aa1", 50, used=1)
        assert evict_cache(tmp_path, max_bytes=10_000) == {
            "evicted": 0, "freed_bytes": 0,
        }

    def test_use_generation_ties_break_by_key(self, tmp_path):
        """Equal use generations break ties by key."""
        _plant(tmp_path, "bb2", 100, used=7)
        _plant(tmp_path, "aa1", 100, used=7)
        evict_cache(tmp_path, max_bytes=100)
        assert _keys(tmp_path) == ["bb2"]

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            evict_cache(tmp_path, max_bytes=-1)

    def test_missing_dir_is_empty(self, tmp_path):
        ghost = tmp_path / "nope"
        assert evict_cache(ghost, max_bytes=0) == {"evicted": 0, "freed_bytes": 0}
        assert cache_stats(ghost)["records"] == 0
        assert clear_cache(ghost) == 0
        assert not ghost.exists()

    def test_cache_hit_takes_a_new_use_generation(self, tmp_path):
        """Reads count as use: a record served from cache must not be the
        next eviction victim."""
        old, new = (
            SweepCell.make((1, 1), seed, "risc", workload_params=FAST)
            for seed in (0, 1)
        )
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        engine.run([old])
        engine.run([new])
        engine.run([old])  # cache hit -> newest use
        assert engine.stats.cache_hits == 1
        sizes = dict(run_sql(tmp_path, "SELECT key, size FROM cells"))
        report = evict_cache(tmp_path, max_bytes=sizes[cell_key(old)])
        assert report["evicted"] == 1
        assert _keys(tmp_path) == [cell_key(old)]

    def test_engine_enforces_budget_after_run(self, tmp_path):
        cells = [
            SweepCell.make((1, 1), seed, "risc", workload_params=FAST)
            for seed in range(3)
        ]
        engine = SweepEngine(
            jobs=1, use_cache=True, cache_dir=tmp_path, cache_max_bytes=1
        )
        records = engine.run(cells)
        assert len(records) == 3
        assert cache_stats(tmp_path)["total_bytes"] <= 1

    def test_engine_rejects_negative_budget(self):
        with pytest.raises(ReproError):
            SweepEngine(jobs=1, use_cache=True, cache_max_bytes=-5)


class TestStatsAndClear:
    def test_stats_counts_bytes_and_ages(self, tmp_path):
        _plant(tmp_path, "aa1", 30, used=1)
        _plant(tmp_path, "bb2", 70, used=2)
        stats = cache_stats(tmp_path)
        assert stats == {
            "cache_dir": str(tmp_path), "records": 2, "total_bytes": 100,
        }

    def test_clear_removes_records_and_shards(self, tmp_path):
        _plant(tmp_path, "aa1", 10, used=1)
        _plant(tmp_path, "bb2", 10, used=1)
        assert clear_cache(tmp_path) == 2
        assert cache_stats(tmp_path)["records"] == 0
        assert _keys(tmp_path) == []


class TestSidecarIndex:
    """Stats, eviction and clear are SQL over the store itself: there is
    no second copy of the sizes to go stale, and an unreadable store file
    is set aside and rebuilt empty."""

    def test_scan_seeds_index_then_serves_from_it(self, tmp_path, monkeypatch):
        _plant(tmp_path, "aa1", 30, used=1)
        _plant(tmp_path, "bb2", 70, used=2)
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a))
        first = cache_stats(tmp_path)
        second = cache_stats(tmp_path)
        assert opened == []
        assert first == second
        assert {k: second[k] for k in ("records", "total_bytes")} == {
            "records": 2, "total_bytes": 100,
        }
        assert not (tmp_path / "index.json").exists()

    def test_index_and_scan_agree(self, tmp_path):
        cells = [
            SweepCell.make((1, 1), seed, "risc", workload_params=FAST)
            for seed in range(2)
        ]
        SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path).run(cells)
        rows = run_sql(tmp_path, "SELECT cell, record, size FROM cells")
        stats = cache_stats(tmp_path)
        assert stats["records"] == len(rows) == 2
        assert stats["total_bytes"] == sum(size for _, _, size in rows)
        assert all(size == len(cell) + len(record) for cell, record, size in rows)

    def test_external_write_invalidates_index(self, tmp_path):
        _plant(tmp_path, "aa1", 30, used=1)
        reader = RecordStore(tmp_path)
        assert reader.stats()["records"] == 1
        # Another process writes through its own connection: the next
        # stats call sees it, with no invalidation step.
        _plant(tmp_path, "cc3", 70, used=2)
        assert reader.stats() == {"records": 2, "total_bytes": 100}

    def test_engine_run_keeps_index_incremental(self, tmp_path):
        cells = [
            SweepCell.make((1, 1), seed, "risc", workload_params=FAST)
            for seed in range(2)
        ]
        engine = SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)
        engine.run(cells)
        assert cache_stats(tmp_path)["records"] == len(cells)
        engine.run(cells)
        assert engine.stats.cache_hits == len(cells)
        assert cache_stats(tmp_path)["records"] == len(cells)

    def test_eviction_keeps_index_consistent(self, tmp_path):
        _plant(tmp_path, "aa1", 100, used=1)
        _plant(tmp_path, "bb2", 100, used=2)
        evict_cache(tmp_path, max_bytes=100)
        stats = cache_stats(tmp_path)
        assert stats["records"] == 1 and stats["total_bytes"] == 100

    def test_corrupt_index_falls_back_to_scan(self, tmp_path):
        """A ``cells.sqlite`` that is not a SQLite database is set aside
        (``cells.sqlite.corrupt``) and the store starts empty."""
        (tmp_path / STORE_NAME).write_bytes(b"this is not a database" * 100)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            stats = cache_stats(tmp_path)
        assert stats["records"] == 0
        assert (tmp_path / (STORE_NAME + ".corrupt")).read_bytes().startswith(b"this is")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _plant(tmp_path, "aa1", 30, used=1)
            assert cache_stats(tmp_path)["records"] == 1

    def test_clear_cache_removes_index(self, tmp_path):
        _plant(tmp_path, "aa1", 10, used=1)
        clear_cache(tmp_path)
        assert cache_stats(tmp_path)["records"] == 0
        assert not (tmp_path / "index.json").exists()
        # The emptied store still takes writes.
        _plant(tmp_path, "bb2", 10, used=1)
        assert cache_stats(tmp_path)["records"] == 1


class TestCliCache:
    def test_cache_stats_command(self, tmp_path, capsys):
        _plant(tmp_path, "aa1", 42, used=1)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "records:      1" in out
        assert "42" in out

    def test_cache_stats_with_eviction(self, tmp_path, capsys):
        _plant(tmp_path, "aa1", 100, used=1)
        _plant(tmp_path, "bb2", 100, used=2)
        assert main([
            "cache", "stats", "--cache-dir", str(tmp_path),
            "--max-bytes", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 records" in out
        assert "records:      1" in out

    def test_cache_clear_command(self, tmp_path, capsys):
        _plant(tmp_path, "aa1", 10, used=1)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cached records" in capsys.readouterr().out
        assert cache_stats(tmp_path)["records"] == 0

    def test_sweep_accepts_cache_max_bytes(self, tmp_path, capsys):
        assert main([
            "sweep", "--budgets", "11", "--seeds", "0", "--policies", "risc",
            "--frames", "2", "--cache-dir", str(tmp_path),
            "--cache-max-bytes", "1",
        ]) == 0
        assert cache_stats(tmp_path)["total_bytes"] <= 1


class TestBudgetParams:
    def test_empty_budget_params_keep_legacy_keys(self):
        """Cells without budget overrides hash exactly as before the field
        existed -- pre-existing caches stay valid."""
        cell = SweepCell.make((1, 1), 0, "mrts", workload_params=FAST)
        assert cell.budget_params == ()
        assert "budget_params" not in cell.payload()

    def test_budget_params_change_the_key(self):
        base = SweepCell.make((1, 1), 0, "mrts", workload_params=FAST)
        tuned = SweepCell.make(
            (1, 1), 0, "mrts", workload_params=FAST,
            budget_params={"contexts_per_cg_fabric": 2},
        )
        assert cell_key(base) != cell_key(tuned)
        assert "budget_params" in tuned.payload()

    def test_budget_params_reach_the_simulation(self):
        base = SweepCell.make((1, 2), 0, "mrts", workload_params=FAST)
        tuned = SweepCell.make(
            (1, 2), 0, "mrts", workload_params=FAST,
            budget_params={"contexts_per_cg_fabric": 1},
        )
        assert tuned.resource_budget().contexts_per_cg_fabric == 1
        assert execute_cell(base) != execute_cell(tuned)

    def test_cost_model_overrides_change_key_and_result(self):
        base = SweepCell.make((2, 2), 0, "mrts", workload_params=FAST)
        tuned = SweepCell.make(
            (2, 2), 0, "mrts",
            workload_params={**FAST, "cost_model": (("cg_bit_op_cycles", 9),)},
        )
        assert cell_key(base) != cell_key(tuned)
        assert execute_cell(base) != execute_cell(tuned)

    def test_sensitivity_cells_cache_cleanly(self, tmp_path):
        """The closure-free sensitivity path: serial == engine == cached."""
        from repro.experiments.sensitivity import run_sensitivity

        serial = run_sensitivity(frames=2, jobs=1, use_cache=False)
        cached = run_sensitivity(
            frames=2, jobs=1, use_cache=True, cache_dir=tmp_path
        )
        rerun = run_sensitivity(
            frames=2, jobs=1, use_cache=True, cache_dir=tmp_path
        )
        assert serial.cells == cached.cells == rerun.cells
        assert cache_stats(tmp_path)["records"] > 0
