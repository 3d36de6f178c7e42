"""Concurrent cell-store writers and crash recovery.

The store's safety story is SQLite's transaction: readers either miss or
see a complete, valid record -- never a partial one -- no matter how many
threads or processes race on the same key, and a writer that dies
mid-transaction leaves a store every later reader and writer can use.
"""

import json
import multiprocessing
import os
import signal
import sqlite3
import threading

import pytest

from repro.experiments.engine import (
    ENGINE_SCHEMA,
    SweepCell,
    SweepEngine,
    cache_stats,
    cell_key,
    clear_build_memo,
)
from repro.service.store import STORE_NAME, RecordStore

FAST = {"frames": 2, "scale": 0.4}


def make_cell(seed=0, policy="risc"):
    return SweepCell.make((1, 1), seed, policy, workload_params=FAST)


def make_engine(tmp_path):
    return SweepEngine(jobs=1, use_cache=True, cache_dir=tmp_path)


def run_sql(cache_dir, statement, params=()):
    """Run one SQL statement against a cache dir's store, as an outside
    writer would (its own connection, committed on return); returns the
    rows it produced."""
    conn = sqlite3.connect(os.path.join(str(cache_dir), STORE_NAME))
    try:
        with conn:
            return conn.execute(statement, params).fetchall()
    finally:
        conn.close()


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_build_memo()
    yield
    clear_build_memo()


def _process_writer(root, key, cell_payload, record, rounds, start):
    start.wait(30)
    store = RecordStore(root)
    for _ in range(rounds):
        store.put(key, cell_payload, record)
    store.close()


def _killed_writer(root, key):
    conn = sqlite3.connect(os.path.join(root, STORE_NAME), isolation_level=None)
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        "INSERT OR REPLACE INTO cells VALUES (?, ?, ?, ?, ?, ?)",
        (key, ENGINE_SCHEMA, "{}", '{"torn": true}', 14, 99),
    )
    os.kill(os.getpid(), signal.SIGKILL)


class TestAtomicPublish:
    def _race(self, tmp_path, start_writers, n_writers):
        """A reader polls one key while ``start_writers`` publishes
        ``n_writers`` payloads to it; every record it sees must be one
        whole payload."""
        cell = make_cell()
        key = cell_key(cell)
        payloads = [{"writer": w, "blob": "x" * (200 + 40 * w)} for w in range(n_writers)]
        start = threading.Barrier(2)
        stop = threading.Event()
        seen, errors = [], []

        def read():
            store = RecordStore(tmp_path)
            start.wait(30)
            while not stop.is_set():
                try:
                    record = store.get(key)
                except Exception as exc:  # a partial record would land here
                    errors.append(exc)
                    return
                if record is not None:
                    seen.append(record)
            store.close()

        reader = threading.Thread(target=read)
        reader.start()
        start.wait(30)
        start_writers(key, cell.payload(), payloads)
        stop.set()
        reader.join(30)
        assert not reader.is_alive()
        assert not errors
        assert seen, "reader never observed a published record"
        for record in seen:
            assert record in payloads
        assert RecordStore(tmp_path).get(key) in payloads

    def test_racing_writers_never_expose_a_torn_record(self, tmp_path):
        """Property: under N thread writers (one connection each) x M
        rounds on one key, every read observes either a miss or one
        complete record."""

        def threads(key, cell_payload, payloads):
            def write(record):
                store = RecordStore(tmp_path)
                for _ in range(25):
                    store.put(key, cell_payload, record)
                store.close()

            writers = [threading.Thread(target=write, args=(p,)) for p in payloads]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(60)
                assert not thread.is_alive()

        self._race(tmp_path, threads, 6)

    def test_racing_process_writers_never_expose_a_torn_record(self, tmp_path):
        context = multiprocessing.get_context("spawn")

        def processes(key, cell_payload, payloads):
            start = context.Event()
            writers = [
                context.Process(
                    target=_process_writer,
                    args=(str(tmp_path), key, cell_payload, p, 25, start),
                )
                for p in payloads
            ]
            for process in writers:
                process.start()
            start.set()
            for process in writers:
                process.join(60)
                assert process.exitcode == 0

        self._race(tmp_path, processes, 3)

    def test_crashing_writer_leaves_no_tmp_debris(self, tmp_path):
        """A record that cannot be encoded raises before the transaction:
        no row, no stray file, and the store stays usable."""
        store = RecordStore(tmp_path)
        cell = make_cell()
        key = cell_key(cell)
        with pytest.raises(TypeError):
            store.put(key, cell.payload(), {"bad": object()})
        assert store.get(key) is None
        store.put(key, cell.payload(), {"good": 1})
        assert store.get(key) == {"good": 1}
        assert sorted(p.name for p in tmp_path.iterdir() if "sqlite" not in p.name) == []

    def test_racing_engines_converge_on_identical_cache(self, tmp_path):
        """Two engines sweeping the same cells against one cache dir must
        agree with each other, and leave a cache a third run fully hits."""
        cells = [make_cell(seed, policy)
                 for seed in (0, 1) for policy in ("risc", "mrts")]
        results, start = {}, threading.Barrier(2)

        def sweep(tag):
            engine = make_engine(tmp_path)
            start.wait()
            results[tag] = engine.run(cells)

        threads = [threading.Thread(target=sweep, args=(t,)) for t in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert json.dumps(results["a"]) == json.dumps(results["b"])

        warm = make_engine(tmp_path)
        assert json.dumps(warm.run(cells)) == json.dumps(results["a"])
        assert warm.stats.cache_hits == len(cells)


class TestCrashMidWrite:
    def _prime(self, tmp_path):
        engine = make_engine(tmp_path)
        cell = make_cell()
        records = engine.run([cell])
        return engine, cell, cell_key(cell), records

    def test_truncated_record_is_a_miss_not_a_crash(self, tmp_path):
        engine, cell, key, records = self._prime(tmp_path)
        run_sql(tmp_path, "UPDATE cells SET record = substr(record, 1, length(record) / 2)")

        rerun = make_engine(tmp_path)
        assert json.dumps(rerun.run([cell])) == json.dumps(records)
        assert rerun.stats.cache_hits == 0

        healed = make_engine(tmp_path)
        healed.run([cell])
        assert healed.stats.cache_hits == 1

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        engine, cell, key, _ = self._prime(tmp_path)
        run_sql(tmp_path, "UPDATE cells SET record = ?", (b"\x00\xff not json",))
        assert engine.store.get(key) is None
        run_sql(tmp_path, "UPDATE cells SET record = '[1, 2]'")
        assert engine.store.get(key) is None

    def test_schema_or_key_mismatch_is_a_miss(self, tmp_path):
        engine, cell, key, records = self._prime(tmp_path)
        run_sql(tmp_path, "UPDATE cells SET schema = ?", (ENGINE_SCHEMA - 1,))
        assert engine.store.get(key) is None

        run_sql(tmp_path, "UPDATE cells SET schema = ?, key = ?", (ENGINE_SCHEMA, "0" * 64))
        assert engine.store.get(key) is None

        rerun = make_engine(tmp_path)
        assert rerun.run([cell]) == records and rerun.stats.executed == 1
        assert rerun.store.get(key) == records[0]

    def test_orphan_tmp_files_are_invisible(self, tmp_path):
        """Files of other layouts in the cache dir -- stray ``.tmp`` files,
        an ``index.json``, a ``<key[:2]>/<key>.json`` record tree -- are
        never read: the store alone answers."""
        engine, cell, key, _ = self._prime(tmp_path)
        other = make_cell(seed=5)
        other_key = cell_key(other)
        shard = tmp_path / other_key[:2]
        shard.mkdir()
        (shard / f"{other_key}.json").write_text(json.dumps({
            "schema": ENGINE_SCHEMA, "key": other_key,
            "cell": other.payload(), "record": {"total_cycles": 1},
        }), encoding="utf-8")
        (shard / "tmpabc123.tmp").write_text("partial", encoding="utf-8")
        (tmp_path / "index.json").write_text("{}", encoding="utf-8")

        stats = cache_stats(tmp_path)
        assert stats["records"] == 1
        assert engine.store.get(key) is not None
        assert engine.store.get(other_key) is None

    def test_killed_writer_leaves_a_readable_store(self, tmp_path):
        """A writer SIGKILLed between ``BEGIN`` and ``COMMIT``: its row
        never appears, earlier rows survive, and the store takes writes."""
        engine, cell, key, records = self._prime(tmp_path)
        other_key = cell_key(make_cell(seed=3))
        context = multiprocessing.get_context("spawn")
        writer = context.Process(target=_killed_writer, args=(str(tmp_path), other_key))
        writer.start()
        writer.join(60)
        assert writer.exitcode == -signal.SIGKILL

        fresh = RecordStore(tmp_path)
        assert fresh.get(other_key) is None
        assert fresh.get(key) == records[0]
        fresh.put(other_key, {}, {"after": 1})
        assert fresh.get(other_key) == {"after": 1}
        assert cache_stats(tmp_path)["records"] == 2


class TestForkSafety:
    def test_store_opened_in_parent_survives_pool_fork(self, tmp_path):
        """The engine's connection is open when the ``jobs=2`` pool forks;
        the workers never use or close it, so the parent keeps reading
        and writing through it afterwards."""
        cells = [make_cell(seed, policy) for seed in (0, 1) for policy in ("risc", "mrts")]
        engine = SweepEngine(jobs=2, use_cache=True, cache_dir=tmp_path)
        engine.run(cells[:1])  # opens the connection before any fork
        connection = engine.store._conn
        assert connection is not None
        first = engine.run(cells)
        assert engine.stats.cache_hits == 1 and engine.stats.executed == 3
        assert engine.store._conn is connection
        second = engine.run(cells)
        assert engine.stats.cache_hits == len(cells)
        assert json.dumps(first) == json.dumps(second)
        assert cache_stats(tmp_path)["records"] == len(cells)

    def test_forked_child_opens_its_own_connection(self, tmp_path):
        store = RecordStore(tmp_path)
        store.put("a" * 64, {}, {"parent": 1})
        inherited = store._conn
        pid = os.fork()
        if pid == 0:  # child: read, write and exit without cleanup
            try:
                ok = store.get("a" * 64) == {"parent": 1}
                store.put("b" * 64, {}, {"child": 1})
                ok = ok and store._conn is not inherited
                ok = ok and store._inherited == [inherited]
            except BaseException:
                ok = False
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        assert store._conn is inherited
        assert store.get("b" * 64) == {"child": 1}
