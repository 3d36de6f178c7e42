"""The parallel cached sweep engine.

Covers the PR's acceptance contract: a >=32-cell sweep through a 4-wide
process pool is byte-identical to the serial path, a repeated run is served
entirely from the content-addressed cache (>=5x faster, zero simulations),
and cache keys react to every cell dimension.
"""

import dataclasses
import json
import os
import random
import sys
import threading
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
from tests.fig8_grid import FIG8_BUDGETS, FIG8_POLICIES, fig8_cells
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


class TestBuildMemo:
    def test_fig8_quick_grid_builds_pinned(self):
        """All five policies over the quick fig8 grid (h264 frames=4): one
        application, and one library per budget, serve all 15 cells, so
        the memos save 26 of 30 constructions (7.5x)."""
        engine_module.clear_build_memo()
        try:
            eng = SweepEngine(jobs=1, use_cache=False, backend="serial")
            eng.run(fig8_cells(FIG8_POLICIES, frames=4))
        finally:
            engine_module.clear_build_memo()
        assert (
            eng.stats.applications_built,
            eng.stats.libraries_built,
            eng.stats.builds_saved,
        ) == (1, 3, 26)

    def test_shuffled_ten_seed_stream_builds_pinned(self, monkeypatch):
        """A service job stream draws its new cells from blocks of ten
        application seeds x the Fig. 8 grid, shuffled.  One of two workers
        executes every other 3-cell batch of the first 1,200 distinct
        cells, which interleave all ten seeds of each of two blocks: the
        memo builds each application once (20), where 8 slots thrash."""
        family = engine_module.WORKLOADS["h264"]
        monkeypatch.setitem(
            engine_module.WORKLOADS, "h264",
            dataclasses.replace(family, application=lambda seed, params: object()),
        )
        rng = random.Random(7)
        stream = []
        for block in range(2):
            cells = [
                SweepCell.make(budget, 10 * block + k, policy,
                               workload_params={"frames": 2})
                for k in range(10)
                for budget in FIG8_BUDGETS
                for policy in FIG8_POLICIES
            ]
            rng.shuffle(cells)
            stream.extend(cells)
        served = [
            cell
            for start in range(0, 1200, 6)
            for cell in stream[start:start + 3]
        ]

        def builds(capacity):
            monkeypatch.setattr(engine_module, "APP_MEMO_CAPACITY", capacity)
            engine_module.clear_build_memo()
            try:
                for cell in served:
                    engine_module._application_of(cell)
                return engine_module.BUILD_COUNTERS["applications_built"]
            finally:
                engine_module.clear_build_memo()

        assert engine_module.APP_MEMO_CAPACITY == 16
        assert builds(16) == 20
        assert builds(8) > 100

    @pytest.mark.parametrize(
        "per_run,compiles", [(1, 3), (15, 5)], ids=["cell-per-run", "one-run"]
    )
    def test_fig8_quick_grid_compiles_pinned(self, monkeypatch, per_run, compiles):
        """Keying a cell compiles its ISE library for the fingerprint; the
        process that then executes the cell claims that library instead of
        compiling it again.  One cell per run (the fig8-cold shape)
        compiles each of the three budgets' libraries once: 3 (6 when the
        key and the execution each compiled).  One run of all 15 cells
        keys every budget before executing any, and the hand-off keeps
        only the last library: 5."""
        family = engine_module.WORKLOADS["h264"]
        calls = []

        def counting_library(budget, params):
            calls.append(budget)
            return family.library(budget, params)

        monkeypatch.setitem(
            engine_module.WORKLOADS, "h264",
            dataclasses.replace(family, library=counting_library),
        )
        engine_module.clear_build_memo()
        try:
            eng = SweepEngine(jobs=1, use_cache=False, backend="serial")
            cells = fig8_cells(FIG8_POLICIES, frames=4)
            built = 0
            for start in range(0, len(cells), per_run):
                eng.run(cells[start:start + per_run])
                built += eng.stats.libraries_built
        finally:
            engine_module.clear_build_memo()
        assert (len(calls), built) == (compiles, 3)

    def test_co_run_cell_compiles_pinned(self, monkeypatch):
        """One co-run cell in a fresh process keys both libraries (the
        cell's, then its co-task's) before executing.  The fingerprint
        hand-off holds only the last keyed library, so the co-task's JPEG
        library is compiled once and the cell's H.264 library twice."""
        calls = []
        for name in ("h264", "jpeg"):
            family = engine_module.WORKLOADS[name]

            def counting_library(budget, params, name=name, family=family):
                calls.append(name)
                return family.library(budget, params)

            monkeypatch.setitem(
                engine_module.WORKLOADS, name,
                dataclasses.replace(family, library=counting_library),
            )
        engine_module.clear_build_memo()
        try:
            eng = SweepEngine(jobs=1, use_cache=False, backend="serial")
            eng.run([co_run_cell()])
        finally:
            engine_module.clear_build_memo()
        assert sorted(calls) == ["h264", "h264", "jpeg"]
        assert (eng.stats.libraries_built, eng.stats.applications_built) == (2, 2)

    def test_racing_threads_compile_a_fingerprint_once(self, monkeypatch):
        """Threads keying one new library at once (a daemon's intake
        threads, concurrent service clients) share one compile."""
        family = engine_module.WORKLOADS["h264"]
        calls = []

        def slow_library(budget, params):
            calls.append(budget)
            time.sleep(0.05)  # hold the compile open while the others ask
            return family.library(budget, params)

        monkeypatch.setitem(
            engine_module.WORKLOADS, "h264",
            dataclasses.replace(family, library=slow_library),
        )
        engine_module.clear_build_memo()
        barrier = threading.Barrier(6)
        fingerprints = []

        def key():
            barrier.wait()
            fingerprints.append(
                engine_module.library_fingerprint("h264", (2, 2), FAST)
            )

        threads = [threading.Thread(target=key) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            engine_module.clear_build_memo()
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert len(fingerprints) == 6 and len(set(fingerprints)) == 1

    def test_child_forked_while_the_lock_is_held_can_key(self):
        """A worker forked while another thread compiles a fingerprint
        starts with a free lock, not one held forever."""
        engine_module.clear_build_memo()
        with engine_module._FINGERPRINT_LOCK:
            pid = os.fork()
            if pid == 0:  # the child: key a fresh library, then leave
                code = 1
                try:
                    engine_module.library_fingerprint("h264", (1, 1), FAST)
                    code = 0
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child blocked on the fingerprint lock")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


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
        """Engine sweep points equal hand-built in-process ``Simulator``
        runs of the same applications (the in-process reference)."""
        from repro.baselines.riscmode import RiscModePolicy
        from repro.experiments.sweep import SweepPoint
        from repro.fabric.resources import ResourceBudget
        from repro.sim.simulator import Simulator
        from repro.workloads.h264 import h264_application, h264_library

        budgets, seeds = [(1, 1)], [1, 2]
        engine_points = run_sweep(budgets, seeds, ["mrts"]).points
        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=1)
        library = h264_library(budget)
        reference = []
        for seed in seeds:
            application = h264_application(frames=8, seed=seed)
            risc = Simulator(application, library, budget, RiscModePolicy()).run()
            run = Simulator(application, library, budget, MRTS()).run()
            reference.append(SweepPoint(
                budget_label=budget.label,
                seed=seed,
                policy="mrts",
                total_cycles=run.total_cycles,
                speedup_vs_risc=risc.total_cycles / run.total_cycles,
                accelerated_fraction=run.stats.accelerated_fraction(),
                reconfigurations=run.stats.reconfigurations,
            ))
        assert engine_points == reference

    def test_registered_factory_dict_runs_unregistered_raises(self):
        budgets, seeds = [(1, 1)], [1]
        by_name = run_sweep(budgets, seeds, ["mrts"], workload_params=FAST)
        by_factory = run_sweep(budgets, seeds, {"mrts": MRTS},
                               workload_params=FAST)
        assert by_name.points == by_factory.points
        with pytest.raises(ReproError, match="register_policy"):
            run_sweep(budgets, seeds, {"mrts": lambda: MRTS()},
                      workload_params=FAST)

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


class TestExperimentCells:
    """The cell shapes the single-application experiments run as."""

    CONTENTION = {"period": 40_000, "duty_prcs": 1, "duty_cg_slots": 2,
                  "until": 400_000}

    @staticmethod
    def _reference(policy, collect_trace=False, contention=None):
        from repro.fabric.resources import ResourceBudget
        from repro.sim.simulator import Simulator
        from repro.workloads.h264 import h264_application, h264_library

        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        return Simulator(
            h264_application(seed=3, **FAST), h264_library(budget), budget,
            policy, collect_trace=collect_trace, contention=contention,
        ).run()

    def test_contention_enters_payload_only_when_set(self):
        plain = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST)
        contended = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                                   contention=self.CONTENTION)
        assert "contention" not in plain.payload()
        assert contended.payload()["contention"] == [
            ["duty_cg_slots", 2], ["duty_prcs", 1],
            ["period", 40_000], ["until", 400_000],
        ]
        wire = json.loads(json.dumps(contended.payload()))
        assert SweepCell.from_payload(wire) == contended
        assert cell_key(plain) != cell_key(contended)
        with pytest.raises(ReproError, match="contention needs exactly"):
            SweepCell.make((2, 2), 3, "mrts", contention={"period": 5})

    def test_contended_cell_matches_in_process_schedule(self):
        from repro.sim.contention import ContentionSchedule

        cell = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                              contention=self.CONTENTION)
        reference = self._reference(
            MRTS(), contention=ContentionSchedule.periodic(**self.CONTENTION)
        )
        record = execute_cell(cell)
        assert record["total_cycles"] == reference.total_cycles
        assert record["total_cycles"] != execute_cell(
            SweepCell.make((2, 2), 3, "mrts", workload_params=FAST)
        )["total_cycles"]

    def test_mrts_policy_params_are_config_overrides(self):
        from repro.core.config import MRTSConfig

        assert POLICIES["mrts"] is MRTS
        assert MRTS(enable_monocg=False).config == MRTSConfig(
            enable_monocg=False
        )
        cell = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                              policy_params={"mpu_alpha": 0.0})
        reference = self._reference(MRTS(MRTSConfig(mpu_alpha=0.0)))
        assert execute_cell(cell)["total_cycles"] == reference.total_cycles

    def test_energy_and_block_profile_metrics(self):
        import dataclasses

        from repro.fabric.energy import estimate_energy

        cell = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                              metrics={"energy": {}, "block_profile": {}})
        metrics = execute_cell(cell)["metrics"]
        reference = self._reference(MRTS(), collect_trace=True)
        assert metrics["energy"] == dataclasses.asdict(
            estimate_energy(reference)
        )
        application = reference.application
        assert metrics["block_profile"] == {
            "kernels_selected": sum(
                len(application.block(it.block).kernels)
                for it in application.iterations
            ),
            "mean_block_cycles": reference.stats.mean_block_cycles(),
        }


#: A small JPEG encoder co-running with the ``FAST`` H.264 cells.
JPEG_CO_TASK = {"workload": "jpeg", "seed": 4, "policy": "mrts",
                "workload_params": {"images": 1, "blocks_per_image": 60}}


def co_run_cell(**fields):
    return SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                          co_tasks=[JPEG_CO_TASK], **fields)


class TestCoRunCell:
    """A cell with co-tasks: several applications on one fabric."""

    def test_co_tasks_enter_payload_only_when_set(self):
        plain = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST)
        cell = co_run_cell()
        assert "co_tasks" not in plain.payload()
        assert cell.payload()["co_tasks"] == [{
            "workload": "jpeg",
            "workload_params": [["blocks_per_image", 60], ["images", 1]],
            "seed": 4,
            "policy": "mrts",
        }]
        assert SweepCell.from_payload(cell.payload()) == cell
        wire = json.loads(json.dumps(cell.payload()))
        assert SweepCell.from_payload(wire) == cell
        assert cell_key(SweepCell.from_payload(wire)) == cell_key(cell)
        assert cell_key(plain) != cell_key(cell)

    def test_co_task_workloads_must_differ(self):
        with pytest.raises(ReproError, match="must all differ"):
            SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                           co_tasks=[{**JPEG_CO_TASK, "workload": "h264"}])
        with pytest.raises(ReproError, match="unknown policy"):
            SweepCell.make((2, 2), 3, "mrts",
                           co_tasks=[{**JPEG_CO_TASK, "policy": "nope"}])

    def test_co_run_cell_takes_no_metrics(self):
        """Metrics read the shared controller and the wall clock, so they
        would charge this task for its co-tasks' reconfigurations."""
        with pytest.raises(ReproError, match="takes no metrics"):
            co_run_cell(metrics={"energy": {}})

    def test_co_task_library_changes_key(self, monkeypatch):
        """The key covers each co-task's library fingerprint: a changed
        JPEG library moves the co-run's key and not the plain cell's."""
        import repro.workloads.jpeg as jpeg_module
        from repro.fabric.cost_model import DEFAULT_COST_MODEL

        plain = SweepCell.make((2, 2), 3, "mrts", workload_params=FAST)
        before = (cell_key(plain), cell_key(co_run_cell()))
        slower = dataclasses.replace(DEFAULT_COST_MODEL, cg_mul_cycles=5)
        monkeypatch.setitem(
            engine_module.WORKLOADS, "jpeg",
            dataclasses.replace(
                engine_module.WORKLOADS["jpeg"],
                library=lambda budget, params: jpeg_module.jpeg_library(
                    budget, cost_model=slower
                ),
            ),
        )
        engine_module.clear_build_memo()
        try:
            after = (cell_key(plain), cell_key(co_run_cell()))
        finally:
            engine_module.clear_build_memo()
        assert after[0] == before[0]
        assert after[1] != before[1]

    def test_record_matches_in_process_co_run(self):
        from repro.fabric.resources import ResourceBudget
        from repro.sim.simulator import Task
        from repro.sim.simulator import Simulator
        from repro.workloads.h264 import h264_application, h264_library
        from repro.workloads.jpeg import jpeg_application, jpeg_library

        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        shared = Simulator.co_run([
            Task("h264", h264_application(seed=3, **FAST),
                 h264_library(budget), MRTS()),
            Task("jpeg", jpeg_application(seed=4, images=1,
                                          blocks_per_image=60),
                 jpeg_library(budget), MRTS()),
        ], budget)
        h264, jpeg = shared.task("h264"), shared.task("jpeg")
        record = execute_cell(co_run_cell())
        assert record["total_cycles"] == h264.stats.total_cycles
        assert record["reconfigurations"] == h264.stats.reconfigurations
        assert record["finished_at"] == h264.finished_at
        assert record["co_tasks"] == [{
            "workload": "jpeg",
            "total_cycles": jpeg.stats.total_cycles,
            "finished_at": jpeg.finished_at,
            "reconfigurations": jpeg.stats.reconfigurations,
        }]
        plain = execute_cell(
            SweepCell.make((2, 2), 3, "mrts", workload_params=FAST)
        )
        assert "co_tasks" not in plain and "finished_at" not in plain

    def test_second_cached_run_executes_nothing(self, tmp_path):
        cells = [
            co_run_cell(),
            SweepCell.make((2, 2), 3, "mrts", workload_params=FAST,
                           co_tasks=[{**JPEG_CO_TASK, "seed": 5}]),
        ]
        eng = SweepEngine(jobs=1, cache_dir=tmp_path / "c")
        first = eng.run(cells)
        assert eng.stats.executed == 2
        second = eng.run(cells)
        assert (eng.stats.executed, eng.stats.cache_hits) == (0, 2)
        assert json.dumps(first) == json.dumps(second)


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
