"""The always-on sweep service: fair scheduler semantics, the
network-served record store, concurrent clients vs. the serial
reference, remote-cache hits, worker-death reassignment, graceful
drain, and the worker reconnect schedule."""

import asyncio
import gc
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import engine as engine_module
from repro.experiments.backends import resolve_backend
from repro.experiments.backends.service import ServiceBackend
from repro.experiments.backends.worker import (
    RECONNECT_BASE,
    RECONNECT_CAP,
    reconnect_delays,
    run_worker,
    worker_loop,
)
from repro.experiments.engine import SweepCell, SweepEngine, clear_build_memo
from repro.service import (
    FairScheduler,
    RecordStore,
    ServiceClient,
    start_service_thread,
    wire,
)
from repro.service.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.util.validation import ReproError
from tests.fig8_grid import fig8_cells
from tests.test_cache_concurrency import run_sql

FAST = {"frames": 2, "scale": 0.4}


def make_cells(budgets=((1, 1), (2, 1)), seeds=(0, 1),
               policies=("risc", "mrts")):
    return [
        SweepCell.make(budget, seed, policy, workload_params=FAST)
        for budget in budgets
        for seed in seeds
        for policy in policies
    ]


def six_budget_cells():
    """Six cells of one seed and one policy over six budgets: six
    libraries, one cell each -- a typical set of a job's new cells."""
    return [
        SweepCell.make(budget, 0, "mrts", workload_params=FAST)
        for budget in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3))
    ]


def _planned_job(cells, live=0, chunk=None):
    """Submit ``cells`` as one job to a two-worker daemon that has no
    sockets behind it (``live`` of its workers connected); returns the
    cell indices of each batch it planned, in order."""
    from repro.service.daemon import SweepService, _Peer

    class _Writer:
        def write(self, data):
            pass

        async def drain(self):
            pass

    service = SweepService(workers=2)
    for peer_id in range(1, live + 1):
        service._live[peer_id] = _Peer(peer_id, "worker", None, None)
    frame = {"cells": [c.payload() for c in cells]}
    if chunk is not None:
        frame["chunk"] = chunk
    asyncio.run(service._on_job(_Peer(0, "client", None, _Writer()), frame))
    index = {json.dumps(c.payload(), sort_keys=True): i for i, c in enumerate(cells)}
    batches = [
        [index[json.dumps(p, sort_keys=True)] for p in state.frame["cells"]]
        for _token, state in sorted(service._batches.items())
    ]
    assert service._jobs[0].counters["frames_sent"] == len(batches)
    return batches


def canonical(records):
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_build_memo()
    yield
    clear_build_memo()


# ------------------------------------------------------------- scheduler


class TestFairScheduler:
    def test_single_job_served_in_submission_order(self):
        sched = FairScheduler(quantum=4)
        sched.submit(1, "a", 0, [(10, 1), (11, 1), (12, 1)])
        assert [sched.next_batch() for _ in range(3)] == [10, 11, 12]
        assert sched.next_batch() is None

    def test_requeue_returns_batch_to_the_front(self):
        sched = FairScheduler(quantum=4)
        sched.submit(1, "a", 0, [(10, 1), (11, 1), (12, 1)])
        assert sched.next_batch() == 10
        assert sched.next_batch() == 11
        sched.requeue(10)
        # The interrupted batch is redispatched before the untouched tail.
        assert sched.next_batch() == 10
        assert sched.next_batch() == 12

    def test_requeue_reenters_ring_after_all_batches_in_flight(self):
        # Regression: a submitter whose batches are all in flight is
        # popped from the ring while keeping a (zeroed) deficit entry;
        # requeue() must put it back in the ring regardless, or the
        # requeued batch is never dispatchable again (job hangs).
        sched = FairScheduler(quantum=4)
        sched.submit(1, "a", 0, [(1, 1)])
        sched.submit(2, "b", 0, [(2, 1), (3, 1)])
        assert {sched.next_batch() for _ in range(3)} == {1, 2, 3}
        assert sched.next_batch() is None  # everything in flight
        sched.requeue(1)
        assert sched.has_work()
        assert sched.next_batch() == 1

    def test_equal_priority_submitters_alternate_per_quantum(self):
        sched = FairScheduler(quantum=2)
        sched.submit(1, "a", 0, [(i, 1) for i in range(6)])
        sched.submit(2, "b", 0, [(10 + i, 1) for i in range(6)])
        order = [sched.next_batch() for _ in range(12)]
        # Visits of two batches each, round-robin across submitters.
        assert order == [0, 1, 10, 11, 2, 3, 12, 13, 4, 5, 14, 15]

    def test_priority_scales_bandwidth_share(self):
        sched = FairScheduler(quantum=2)
        sched.submit(1, "a", 1, [(i, 1) for i in range(8)])
        sched.submit(2, "b", 2, [(10 + i, 1) for i in range(8)])
        order = [sched.next_batch() for _ in range(8)]
        served_b = sum(1 for token in order if token >= 10)
        # Priority-2 submitter earns twice the refill: 4 of the first 8.
        # Priority-1 gets 2 per visit, so b's share is at least double
        # within any window after both visited once.
        assert served_b >= 4

    def test_big_batch_eventually_affordable(self):
        sched = FairScheduler(quantum=2)
        sched.submit(1, "a", 0, [(1, 7)])
        sched.submit(2, "b", 0, [(2, 1), (3, 1)])
        order = [sched.next_batch() for _ in range(3)]
        # a's 7-cell batch needs several visits' credit; b is served
        # meanwhile instead of starving behind it.
        assert set(order) == {1, 2, 3}
        assert order[0] in (2, 3)

    def test_higher_priority_job_first_within_submitter(self):
        sched = FairScheduler(quantum=8)
        sched.submit(1, "a", 0, [(1, 1)])
        sched.submit(2, "a", 5, [(2, 1)])
        assert sched.next_batch() == 2
        assert sched.next_batch() == 1

    def test_arrival_order_breaks_priority_ties(self):
        sched = FairScheduler(quantum=8)
        sched.submit(1, "a", 3, [(1, 1)])
        sched.submit(2, "a", 3, [(2, 1)])
        assert [sched.next_batch(), sched.next_batch()] == [1, 2]

    def test_complete_retires_drained_jobs(self):
        sched = FairScheduler(quantum=4)
        sched.submit(1, "a", 0, [(1, 1), (2, 1)])
        assert sched.has_work()
        sched.next_batch()
        sched.next_batch()
        assert not sched.has_work()
        sched.complete(1)
        sched.complete(2)
        assert sched.pending_batches() == 0
        assert sched.submitters() == []
        # The job id is reusable once retired.
        sched.submit(1, "a", 0, [(3, 1)])
        assert sched.next_batch() == 3

    def test_duplicate_job_id_rejected(self):
        sched = FairScheduler(quantum=4)
        sched.submit(1, "a", 0, [(1, 1)])
        with pytest.raises(ValueError, match="already submitted"):
            sched.submit(1, "b", 0, [(2, 1)])

    def test_quantum_must_be_positive(self):
        with pytest.raises(ValueError, match="quantum"):
            FairScheduler(quantum=0)


# ----------------------------------------------------------------- store


class TestRecordStore:
    def _cell(self):
        return make_cells()[0]

    def test_roundtrip_uses_cache_layout(self, tmp_path):
        store = RecordStore(tmp_path)
        cell = self._cell()
        key = engine_module.cell_key(cell)
        record = {"total_cycles": 123, "policy": "risc"}
        assert store.get(key) is None
        store.put(key, cell.payload(), record)
        assert store.get(key) == record
        [(schema, cell_text, record_text)] = run_sql(
            tmp_path, "SELECT schema, cell, record FROM cells WHERE key = ?", (key,)
        )
        assert schema == engine_module.ENGINE_SCHEMA
        assert json.loads(cell_text) == cell.payload()
        assert record_text == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_flush_index_feeds_engine_sidecar(self, tmp_path):
        """A record the daemon's store wrote is a hit for a local engine
        on the same directory, and counts in its cache_stats."""
        store = RecordStore(tmp_path)
        cell = self._cell()
        key = engine_module.cell_key(cell)
        store.put(key, cell.payload(), {"total_cycles": 1})
        assert engine_module.cache_stats(tmp_path)["records"] == 1
        engine = engine_module.SweepEngine(cache_dir=tmp_path)
        assert engine.run([cell]) == [{"total_cycles": 1}]
        assert engine.stats.cache_hits == 1

    def test_verified_put_rejects_wrong_namespace(self, tmp_path):
        store = RecordStore(tmp_path)
        cell = self._cell()
        key = engine_module.cell_key(cell)
        with pytest.raises(ReproError, match="namespace mismatch"):
            store.verified_put("bogus", key, cell.payload(), {"x": 1})

    def test_verified_put_rejects_wrong_key(self, tmp_path):
        store = RecordStore(tmp_path)
        cell = self._cell()
        fingerprint = engine_module.library_fingerprint(
            cell.workload, cell.budget,
            cell.workload_params, cell.budget_params,
        )
        with pytest.raises(ReproError, match="key mismatch"):
            store.verified_put(
                fingerprint, "0" * 64, cell.payload(), {"x": 1}
            )

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        store = RecordStore(tmp_path)
        cell = self._cell()
        key = engine_module.cell_key(cell)
        store.put(key, cell.payload(), {"x": 1})
        run_sql(tmp_path, "UPDATE cells SET schema = -1")
        assert store.get(key) is None


# ---------------------------------------------------------- service e2e


class TestServiceEndToEnd:
    def test_two_concurrent_clients_byte_identical_to_serial(self, tmp_path):
        cells_a = make_cells(budgets=((1, 1), (2, 1)))
        cells_b = make_cells(budgets=((2, 1), (2, 2)))  # overlaps on (2, 1)
        ref_a = SweepEngine(backend="serial", use_cache=False).run(cells_a)
        ref_b = SweepEngine(backend="serial", use_cache=False).run(cells_b)
        handle = start_service_thread(workers=2, cache_dir=str(tmp_path))
        results, errors = {}, []
        try:
            def submit(name, cells):
                try:
                    with ServiceClient(
                        handle.coordinator, submitter=name
                    ) as client:
                        records, _ = client.run_job(
                            [c.payload() for c in cells]
                        )
                    results[name] = records
                except Exception as error:  # surfaced after join
                    errors.append(error)

            threads = [
                threading.Thread(target=submit, args=("a", cells_a)),
                threading.Thread(target=submit, args=("b", cells_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            assert handle.stop()
        assert not errors
        assert canonical(results["a"]) == canonical(ref_a)
        assert canonical(results["b"]) == canonical(ref_b)

    def test_second_submission_served_from_store(self, tmp_path):
        cells = make_cells()
        payloads = [c.payload() for c in cells]
        handle = start_service_thread(workers=2, cache_dir=str(tmp_path))
        try:
            with ServiceClient(handle.coordinator) as client:
                first, counters_first = client.run_job(payloads)
            with ServiceClient(handle.coordinator) as client:
                second, counters_second = client.run_job(payloads)
        finally:
            assert handle.stop()
        assert canonical(first) == canonical(second)
        assert counters_first["remote_cache_hits"] == 0
        assert counters_first["frames_sent"] > 0
        # Resubmission never reaches the workers: every cell comes from
        # the network-served store.
        assert counters_second["frames_sent"] == 0
        assert counters_second["remote_cache_hits"] == len(cells)
        assert counters_second["jobs_completed"] == 1

    @pytest.fixture
    def frozen_heap(self):
        """Collect what earlier tests in this process left and freeze the
        survivors, so no timed arm pays for a full collection of that heap:
        one took 0.14 s in a full tier-1 run, as long as the whole
        concurrent arm of the test below."""
        gc.collect()
        gc.freeze()
        yield
        gc.unfreeze()

    def test_daemon_beats_one_shot_fleets(self, tmp_path, frozen_heap):
        """Four concurrent submissions of the quick fig8 grid through one
        daemon finish at least 1.5x faster than the same four sweeps run
        sequentially as one-shot self-hosted fleets, and every sweep stays
        byte-identical to serial: the daemon shares one fleet and serves
        repeats from its in-flight table and store."""
        cells = fig8_cells(("risc", "mrts"), frames=3)
        ref = canonical(
            SweepEngine(backend="serial", use_cache=False).run(cells)
        )

        clear_build_memo()
        started = time.perf_counter()
        for _ in range(4):
            eng = SweepEngine(backend="service", use_cache=False, workers=2)
            assert canonical(eng.run(cells)) == ref
        sequential = time.perf_counter() - started

        clear_build_memo()
        started = time.perf_counter()
        handle = start_service_thread(workers=2, cache_dir=str(tmp_path))
        try:
            def submit(_index):
                eng = SweepEngine(
                    backend="service",
                    use_cache=False,
                    coordinator=handle.coordinator,
                )
                return canonical(eng.run(cells)), eng.stats.engine_payload()

            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = list(pool.map(submit, range(4)))
            concurrent = time.perf_counter() - started
        finally:
            assert handle.stop()
        assert all(records == ref for records, _ in runs)
        counters = {
            name: sum(payload[name] for _, payload in runs)
            for name in (
                "frames_sent", "remote_cache_hits", "jobs_completed",
                "worker_restarts",
            )
        }
        assert counters == {
            "frames_sent": 3,
            "remote_cache_hits": 18,
            "jobs_completed": 4,
            "worker_restarts": 0,
        }
        speedup = sequential / concurrent
        assert speedup >= 1.5, f"daemon only {speedup:.2f}x faster"

    def test_worker_death_mid_job_reassigns_deterministically(self, tmp_path):
        cells = make_cells()
        ref = SweepEngine(backend="serial", use_cache=False).run(cells)
        handle = start_service_thread(
            worker_specs=[{"fail_after": 0}, {}], cache_dir=str(tmp_path)
        )
        try:
            # Both workers must have joined before the job is planned, so
            # the doomed worker is guaranteed to receive (and drop) a batch.
            deadline = time.monotonic() + 30
            while len(handle.service._live) < 2:
                assert time.monotonic() < deadline, "workers never joined"
                time.sleep(0.01)
            with ServiceClient(handle.coordinator) as client:
                records, counters = client.run_job(
                    [c.payload() for c in cells]
                )
        finally:
            assert handle.stop()
        assert canonical(records) == canonical(ref)
        assert counters["worker_restarts"] >= 1

    def test_batch_plan_ignores_workers_still_connecting(self):
        """A job that arrives while one of two local workers has connected
        is planned for both, as it is before either or after both connect:
        its batches and ``frames_sent`` do not depend on the race."""
        from repro.experiments.backends.base import plan_batches
        from repro.service.daemon import _fill_batches

        def merged(parts):
            # The daemon's plan: planned batches merged up to the smaller
            # of the DRR quantum (4) and the cells per worker.
            return _fill_batches(
                plan_batches(cells, parts=parts), min(4, -(-len(cells) // parts))
            )

        cells = fig8_cells(("risc", "mrts"), frames=3)
        batches = _planned_job(cells, live=1)
        assert batches == merged(2) == [[0, 1], [2, 3, 4], [5]]
        assert len(batches) > len(merged(1))

    def test_explicit_chunk_is_not_merged(self):
        cells = six_budget_cells()
        assert _planned_job(cells, chunk=1) == [[i] for i in range(6)]
        assert _planned_job(cells) == [[0, 1, 2], [3, 4, 5]]

    @staticmethod
    def _fail_on_result(result):
        """Feed ``result`` for a 2-cell batch of one job to the daemon's
        result handler; returns ``(service, job)`` for inspection."""
        from repro.service.daemon import (
            SweepService, _BatchState, _JobState, _Peer,
        )

        service = SweepService(workers=0)
        peer = _Peer(0, "client", None, None)
        peer.closed = True  # no socket behind it: assert bookkeeping only
        job = _JobState(0, peer, "a", 0)
        job.indices_by_key = {"k0": [0], "k1": [1]}
        job.unresolved = {"k0", "k1"}
        service._jobs[0] = job
        service._computing = {"k0": [0], "k1": [0]}
        service.scheduler.submit(0, "a", 0, [(7, 2)])
        assert service.scheduler.next_batch() == 7
        service._batches[7] = _BatchState(
            7, 0, ["k0", "k1"], {"type": "batch", "cells": [{}, {}]}
        )
        worker = _Peer(1, "worker", None, None)
        worker.token = 7
        asyncio.run(service._on_result(worker, dict(result, batch=7)))
        return service, job

    def test_short_record_list_fails_job_instead_of_hanging(self):
        # Regression: a worker result with fewer records than batch keys
        # used to zip-truncate, stranding the tail keys in _computing and
        # the job in unresolved forever; it must fail the job loudly.
        service, job = self._fail_on_result({
            "type": "result",
            "block": wire.encode_record_block([(0, {"x": 1})]),
        })
        assert job.failed
        assert 0 not in service._jobs
        assert service._computing == {}
        assert service.jobs_failed == 1

    def test_unreadable_result_fails_job_instead_of_hanging(self):
        # A result without a record block (or with a corrupt one) must
        # fail the job too, not strand its keys.
        service, job = self._fail_on_result({"type": "result"})
        assert job.failed
        assert service._computing == {}
        assert service.jobs_failed == 1

    def test_cache_frames_roundtrip_and_namespace_guard(self, tmp_path):
        cell = make_cells()[0]
        key = engine_module.cell_key(cell)
        fingerprint = engine_module.library_fingerprint(
            cell.workload, cell.budget,
            cell.workload_params, cell.budget_params,
        )
        record = {"total_cycles": 42, "policy": "risc"}
        handle = start_service_thread(workers=0, cache_dir=str(tmp_path))
        try:
            with ServiceClient(handle.coordinator) as client:
                assert client.cache_get(key) is None
                client.cache_put(fingerprint, key, cell.payload(), record)
                assert client.cache_get(key) == record
                with pytest.raises(ReproError, match="namespace mismatch"):
                    client.cache_put(
                        "divergent", key, cell.payload(), record
                    )
        finally:
            assert handle.stop()
        # What the daemon stored is this directory's local cell cache.
        assert RecordStore(tmp_path).get(key) == record

    def test_drain_rejects_new_jobs_but_finishes_accepted(self, tmp_path):
        cells = make_cells()[:2]
        handle = start_service_thread(workers=0, cache_dir=str(tmp_path))
        hello = {
            "type": "hello",
            "schema": engine_module.ENGINE_SCHEMA,
            "protocol": PROTOCOL_VERSION,
        }
        release = threading.Event()

        def slow_worker():
            # A synchronous protocol worker that holds every batch until
            # released -- keeping the accepted job in flight while the
            # drain semantics are probed.
            conn = socket.create_connection(handle.address, timeout=30)
            try:
                send_frame(conn, hello)
                assert recv_frame(conn)["type"] == "welcome"
                while True:
                    frame = recv_frame(conn)
                    if frame.get("type") == "shutdown":
                        return
                    if frame.get("type") != "batch":
                        continue
                    release.wait(timeout=60)
                    batch_cells = [
                        SweepCell.from_payload(p) for p in frame["cells"]
                    ]
                    records, built = engine_module.execute_batch(batch_cells)
                    send_frame(conn, {
                        "type": "result",
                        "batch": frame["batch"],
                        "block": wire.encode_record_block(
                            list(enumerate(records))
                        ),
                        "built": built,
                    })
            finally:
                conn.close()

        worker_thread = threading.Thread(target=slow_worker, daemon=True)
        worker_thread.start()

        client_a = socket.create_connection(handle.address, timeout=30)
        send_frame(client_a, dict(hello, role="client"))
        assert recv_frame(client_a)["type"] == "welcome"
        send_frame(
            client_a,
            {"type": "job", "cells": [c.payload() for c in cells]},
        )
        assert recv_frame(client_a)["type"] == "job_accepted"

        handle.request_drain()

        # A job submitted after the drain request is turned away...
        client_b = socket.create_connection(handle.address, timeout=30)
        send_frame(client_b, dict(hello, role="client"))
        assert recv_frame(client_b)["type"] == "welcome"
        send_frame(client_b, {"type": "job", "cells": [cells[0].payload()]})
        reply = recv_frame(client_b)
        assert reply["type"] == "reject"
        assert "drain" in reply["reason"]
        client_b.close()

        # ...while the accepted job still runs to completion.
        release.set()
        seen = []
        while True:
            frame = recv_frame(client_a)
            if frame["type"] == "cell_result_block":
                rows = wire.decode_record_block(frame["block"])
                seen.extend(index for index, _record in rows)
            elif frame["type"] == "job_done":
                break
        assert sorted(seen) == [0, 1]
        client_a.close()
        assert handle.stop()
        worker_thread.join(timeout=30)


# -------------------------------------------------------------- transport


class TestTransport:
    """What one job costs on the wire: one frame from the client, few
    batches per job, no Nagle delay on either blocking socket."""

    def test_blocking_sockets_set_tcp_nodelay(self, monkeypatch):
        from repro.experiments.backends import worker as worker_module
        from repro.service import protocol

        worker_nodelay = []

        def dial(address, timeout):
            sock = protocol.dial(address, timeout)
            worker_nodelay.append(
                sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            return sock

        monkeypatch.setattr(worker_module, "dial", dial)
        handle = start_service_thread(workers=0)
        worker = threading.Thread(
            target=worker_module.worker_loop, args=(handle.address,)
        )
        worker.start()
        try:
            with ServiceClient(handle.coordinator) as client:
                assert client._conn.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            deadline = time.monotonic() + 30
            while not handle.service._live:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.01)
        finally:
            assert handle.stop()
            worker.join(timeout=30)
        assert worker_nodelay and worker_nodelay[0]

    def test_run_job_writes_only_the_job_frame(self, monkeypatch):
        from repro.service import client as client_module

        cells = make_cells()
        sent = []
        recording = False
        real_send = client_module.send_frame

        def send_frame(sock, obj, stats=None):
            if recording:
                sent.append(obj["type"])
            real_send(sock, obj, stats=stats)

        monkeypatch.setattr(client_module, "send_frame", send_frame)
        handle = start_service_thread(workers=2)
        try:
            with ServiceClient(handle.coordinator) as client:
                recording = True
                records, counters = client.run_job([c.payload() for c in cells])
                recording = False
        finally:
            assert handle.stop()
        assert sent == ["job"]
        # More than one result block came back, none of them acknowledged.
        assert counters["frames_sent"] > 1
        assert canonical(records) == canonical(
            SweepEngine(backend="serial", use_cache=False).run(cells)
        )

    def test_six_budget_job_goes_out_as_two_batches(self):
        cells = six_budget_cells()
        handle = start_service_thread(workers=2)
        try:
            with ServiceClient(handle.coordinator) as client:
                records, counters = client.run_job([c.payload() for c in cells])
        finally:
            assert handle.stop()
        assert counters["frames_sent"] == 2
        assert canonical(records) == canonical(
            SweepEngine(backend="serial", use_cache=False).run(cells)
        )

    def test_non_first_library_mismatch_fails_the_job(self, monkeypatch):
        """A batch spanning two libraries whose second fingerprint is not
        what the worker compiles is refused, and its job fails loudly."""
        cells = six_budget_cells()[:2]
        handle = start_service_thread(workers=1)
        try:
            deadline = time.monotonic() + 30
            while not handle.service._live:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.01)
            # The worker process is already forked, so only the daemon
            # sees the diverged fingerprint of the second budget.
            real = engine_module.library_fingerprint

            def diverged(workload, budget, *args):
                if tuple(budget) == cells[1].budget:
                    return "f" * 64
                return real(workload, budget, *args)

            monkeypatch.setattr(engine_module, "library_fingerprint", diverged)
            with ServiceClient(handle.coordinator) as client:
                with pytest.raises(ReproError, match="fingerprint mismatch"):
                    client.run_job([c.payload() for c in cells])
            assert handle.service.jobs_failed == 1
        finally:
            assert handle.stop()


# ---------------------------------------------------------------- backend


class TestServiceBackend:
    def test_registered_and_resolvable(self):
        backend = resolve_backend("service", workers=1)
        assert isinstance(backend, ServiceBackend)
        assert backend.name == "service"

    def test_self_hosted_sweep_identical_to_serial(self):
        cells = make_cells()
        ref = SweepEngine(backend="serial", use_cache=False).run(cells)
        eng = SweepEngine(backend="service", use_cache=False)
        got = eng.run(cells)
        assert canonical(got) == canonical(ref)
        assert eng.stats.jobs_completed == 1
        payload = eng.stats.engine_payload()
        assert payload["jobs_completed"] == 1
        assert payload["remote_cache_hits"] == 0
        assert payload["frames_sent"] > 0

    def test_connected_mode_uses_running_daemon(self, tmp_path):
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        ref = SweepEngine(backend="serial", use_cache=False).run(cells)
        handle = start_service_thread(workers=2, cache_dir=str(tmp_path))
        try:
            eng = SweepEngine(
                backend="service",
                use_cache=False,
                coordinator=handle.coordinator,
            )
            got = eng.run(cells)
        finally:
            assert handle.stop()
        assert canonical(got) == canonical(ref)


# -------------------------------------------------------------- reconnect


class TestWorkerReconnect:
    def test_schedule_is_deterministic_and_capped(self):
        delays = reconnect_delays(8)
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]
        assert delays[0] == RECONNECT_BASE
        assert max(delays) == RECONNECT_CAP
        assert reconnect_delays(8) == delays  # no jitter, ever

    def test_unreachable_coordinator_walks_schedule_then_gives_up(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()  # nobody listens here any more
        started = time.monotonic()
        code = run_worker(address, reconnect=True, max_attempts=2)
        elapsed = time.monotonic() - started
        assert code == 1
        # Two backoff sleeps (0.1 + 0.2) plus three fast refused dials.
        assert elapsed >= 0.3

    def test_rejected_handshake_never_retries(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        address = server.getsockname()

        def reject_once():
            conn, _ = server.accept()
            recv_frame(conn)
            send_frame(conn, {"type": "reject", "reason": "wrong schema"})
            conn.close()

        thread = threading.Thread(target=reject_once, daemon=True)
        thread.start()
        code = run_worker(address, reconnect=True, max_attempts=8)
        assert code == 2
        thread.join(timeout=10)
        server.close()

    def test_lost_after_welcome_reports_code_3(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        address = server.getsockname()

        def welcome_then_hang_up():
            conn, _ = server.accept()
            recv_frame(conn)
            send_frame(conn, {
                "type": "welcome",
                "schema": engine_module.ENGINE_SCHEMA,
                "protocol": PROTOCOL_VERSION,
                "fingerprints": [],
            })
            conn.close()

        thread = threading.Thread(target=welcome_then_hang_up, daemon=True)
        thread.start()
        code = worker_loop(address)
        assert code == 3
        thread.join(timeout=10)
        server.close()
