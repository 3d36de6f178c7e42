"""Executor backends: registry, batch planning, the frame codec, the
daemon handshake, worker retry, construction memoisation, and the
cross-backend byte-identity contract (serial == pool == service)."""

import gc
import io
import json
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import engine as engine_module
from repro.experiments.backends import (
    BACKENDS,
    PoolBackend,
    SerialBackend,
    backend_names,
    plan_batches,
    resolve_backend,
)
from repro.experiments.backends.base import group_key
from repro.experiments.backends.service import ServiceBackend
from repro.experiments.engine import (
    BUILD_COUNTERS,
    SweepCell,
    SweepEngine,
    clear_build_memo,
    execute_batch,
)
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.daemon import start_service_thread
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.util.validation import ReproError
from tests.fig8_grid import FIG8_BUDGETS, FIG8_POLICIES, fig8_cells

FAST = {"frames": 2, "scale": 0.4}


def make_cells(budgets=((1, 1), (2, 1)), seeds=(0, 1),
               policies=("risc", "mrts")):
    """2 budgets x 2 seeds x 2 policies = 8 small-but-real cells."""
    return [
        SweepCell.make(budget, seed, policy, workload_params=FAST)
        for budget in budgets
        for seed in seeds
        for policy in policies
    ]


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts and ends with empty construction memos."""
    clear_build_memo()
    yield
    clear_build_memo()


class TestRegistry:
    def test_all_four_backends_registered(self):
        # Every shipped backend: the sync ``distributed`` coordinator is
        # gone, and its name now fails like any unknown backend.
        assert backend_names() == ["pool", "serial", "service"]
        assert set(backend_names()) == set(BACKENDS)

    def test_auto_selection_matches_legacy_behaviour(self):
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
        assert isinstance(resolve_backend(None, jobs=4), PoolBackend)

    def test_explicit_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool", jobs=2), PoolBackend)
        assert isinstance(resolve_backend("service"), ServiceBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown backend"):
            resolve_backend("warp")
        with pytest.raises(ReproError, match="unknown backend"):
            SweepEngine(backend="warp")
        with pytest.raises(ReproError, match="registered: "):
            resolve_backend("distributed")


class TestPlanBatches:
    def test_batches_never_span_library_groups(self):
        cells = make_cells()
        batches = plan_batches(cells, chunk_size=3)
        for batch in batches:
            keys = {group_key(cells[i]) for i in batch}
            assert len(keys) == 1

    def test_every_cell_dispatched_exactly_once(self):
        cells = make_cells()
        batches = plan_batches(cells, parts=3)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(cells)))

    def test_groups_in_first_appearance_order(self):
        cells = make_cells()
        batches = plan_batches(cells, chunk_size=100)
        first_keys = [group_key(cells[batch[0]]) for batch in batches]
        seen = []
        for cell in cells:
            key = group_key(cell)
            if key not in seen:
                seen.append(key)
        assert first_keys == seen

    def test_chunk_size_caps_batches(self):
        cells = make_cells()
        assert all(len(b) == 1 for b in plan_batches(cells, chunk_size=1))

    def test_empty_and_plan_is_deterministic(self):
        assert plan_batches([]) == []
        cells = make_cells()
        assert plan_batches(cells, parts=2) == plan_batches(cells, parts=2)

    # Named shapes.  ``plan_batches(cells, chunk_size=c)`` with the default
    # chunk ``c = ceil(cells / (4 * parts))`` is the library-chunked plan,
    # which the default must keep wherever whole applications do not
    # spread evenly over the workers.

    def test_fig8_pool_shape_goes_out_one_application_per_batch(self):
        """One budget x two seeds x five policies on two workers: each
        worker gets one whole application, so each builds one."""
        cells = make_cells(budgets=((2, 1),), seeds=(3, 4),
                           policies=FIG8_POLICIES)
        assert plan_batches(cells, parts=2) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_fig8_pool_shape_on_four_workers_keeps_singletons(self):
        cells = make_cells(budgets=((2, 1),), seeds=(3, 4),
                           policies=FIG8_POLICIES)
        assert plan_batches(cells, parts=4) == [[i] for i in range(10)]

    def test_uneven_applications_cut_only_the_leftover(self):
        """Three applications cannot split evenly over two workers (two
        would land on one): each worker gets one whole application, and
        only the third is cut into chunks."""
        cells = make_cells(budgets=((2, 1),), seeds=(3, 4, 5),
                           policies=FIG8_POLICIES)
        plan = plan_batches(cells, parts=2)
        assert plan == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11], [12, 13], [14]]
        assert plan_batches(cells, chunk_size=2) == [
            list(range(15))[lo:lo + 2] for lo in range(0, 15, 2)
        ]

    def test_quick_grid_cuts_only_the_budget_that_does_not_fit(self):
        cells = fig8_cells(("risc", "mrts"), frames=3)
        assert plan_batches(cells, parts=2) == [[0, 1], [2, 3], [4], [5]]

    def test_warm_store_fill_keeps_library_whole_batches(self):
        """3 workloads x 20 budgets x 2 seeds x 5 policies on two workers:
        each library's two applications merge back into the one batch it
        went out as under library chunking, in the same cell order even
        when the two applications' cells interleave."""
        sizes = {"h264": {"frames": 1}, "jpeg": {"images": 1},
                 "deblocking": {"frames": 1}}
        fill = [
            SweepCell.make(budget, seed, policy, workload=workload,
                           workload_params=params)
            for workload, params in sizes.items()
            for seed in (1, 2)
            for budget in FIG8_BUDGETS
            for policy in FIG8_POLICIES
        ]
        seed_innermost = sorted(fill, key=lambda c: (c.workload, c.budget, c.policy))
        for cells in (fill, seed_innermost):
            plan = plan_batches(cells, parts=2)
            assert len(plan) == 60
            assert plan == plan_batches(cells, chunk_size=75)
            for batch in plan:
                assert len(batch) == 10
                assert len({group_key(cells[i]) for i in batch}) == 1
                assert len({cells[i].seed for i in batch}) == 2

    def test_full_fig8_grid_goes_out_one_budget_per_batch(self):
        cells = fig8_cells(FIG8_POLICIES, frames=2, budgets=FIG8_BUDGETS)
        for parts in (2, 4):
            plan = plan_batches(cells, parts=parts)
            assert plan == [list(range(lo, lo + 5)) for lo in range(0, 100, 5)]

    def test_narrow_run_keeps_one_cell_per_batch(self):
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        assert plan_batches(cells, parts=3) == [[0], [1]]


class TestWireProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            frame = {"type": "batch", "batch": 3, "cells": [{"seed": 1}]}
            send_frame(a, frame)
            assert recv_frame(b) == frame
        finally:
            a.close()
            b.close()

    def test_length_prefix_is_big_endian(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"x": 1})
            (length,) = struct.unpack(">I", b.recv(4))
            payload = b.recv(length)
            assert len(payload) == length
            assert payload[0] == wire.WIRE_MAGIC
        finally:
            a.close()
            b.close()

    def test_oversized_incoming_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ReproError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address(None) == ("127.0.0.1", 0)
        assert parse_address("10.0.0.5:7777") == ("10.0.0.5", 7777)
        with pytest.raises(ReproError):
            parse_address("no-port")
        with pytest.raises(ReproError):
            parse_address("host:notanint")


class TestHandshake:
    """The daemon's hello/welcome exchange, over a raw socket."""

    @pytest.fixture
    def daemon(self):
        handle = start_service_thread(workers=0)
        try:
            yield handle
        finally:
            assert handle.stop()

    @staticmethod
    def _hello(**overrides):
        hello = {
            "type": "hello",
            "schema": engine_module.ENGINE_SCHEMA,
            "protocol": PROTOCOL_VERSION,
            "role": "client",
        }
        hello.update(overrides)
        return hello

    def _exchange(self, daemon, hello):
        conn = socket.create_connection(daemon.address, timeout=30)
        try:
            send_frame(conn, hello)
            return recv_frame(conn)
        finally:
            conn.close()

    def test_matching_hello_welcomed_with_fingerprints(self, daemon):
        daemon.service._fingerprints.add("abc123")
        reply = self._exchange(daemon, self._hello())
        assert reply["type"] == "welcome"
        assert reply["protocol"] == PROTOCOL_VERSION == 4
        assert reply["fingerprints"] == ["abc123"]
        assert "wire" not in reply

    def test_v2_hello_negotiates_binary_wire(self, daemon):
        # No negotiation left: whatever the hello carries, the welcome
        # itself already rides the binary envelope.
        conn = socket.create_connection(daemon.address, timeout=30)
        try:
            send_frame(conn, self._hello(wire=["v2"]))
            (length,) = struct.unpack(">I", conn.recv(4))
            payload = b""
            while len(payload) < length:
                payload += conn.recv(length - len(payload))
        finally:
            conn.close()
        assert payload[0] == wire.WIRE_MAGIC
        assert wire.decode_blob(payload)["type"] == "welcome"

    def test_schema_mismatch_rejected(self, daemon):
        reply = self._exchange(daemon, self._hello(schema=-1))
        assert reply["type"] == "reject"
        assert "mismatch" in reply["reason"]

    def test_protocol_mismatch_rejected(self, daemon):
        reply = self._exchange(
            daemon, self._hello(protocol=PROTOCOL_VERSION + 1)
        )
        assert reply["type"] == "reject"

    def test_protocol_1_hello_rejected(self, daemon):
        # A peer from before the one-wire protocol that does speak the
        # envelope still announces protocol 1: refused, not served.
        reply = self._exchange(daemon, self._hello(protocol=1))
        assert reply["type"] == "reject"
        assert "protocol=1" in reply["reason"]

    @pytest.mark.parametrize("role", ["client", "worker"])
    def test_protocol_2_hello_rejected(self, daemon, role):
        # A version-2 client would still acknowledge every block, and a
        # version-2 worker would check only a batch's first library.
        hello = self._hello(protocol=2)
        if role == "worker":
            del hello["role"]
        reply = self._exchange(daemon, hello)
        assert reply["type"] == "reject"
        assert "protocol=2" in reply["reason"]

    @pytest.mark.parametrize("role", ["client", "worker"])
    def test_protocol_3_hello_rejected(self, daemon, role):
        # A version-3 peer sends or expects columnar record blocks: it is
        # refused at the handshake, not failed mid-job.
        hello = self._hello(protocol=3)
        if role == "worker":
            del hello["role"]
        reply = self._exchange(daemon, hello)
        assert reply["type"] == "reject"
        assert "protocol=3" in reply["reason"]

    def test_plain_json_hello_gets_no_welcome(self, daemon):
        conn = socket.create_connection(daemon.address, timeout=30)
        try:
            body = json.dumps(self._hello(protocol=1)).encode("utf-8")
            conn.sendall(struct.pack(">I", len(body)) + body)
            # The daemon cannot decode the frame and hangs up.
            assert conn.recv(4) == b""
        finally:
            conn.close()


class TestConstructionMemo:
    def test_batch_reuses_applications_and_libraries(self):
        cells = make_cells()
        records, built = execute_batch(cells)
        assert len(records) == len(cells)
        # 2 seeds -> 2 applications; 2 budgets -> 2 libraries; the other
        # 12 logical constructions are memo hits.
        assert built["applications_built"] == 2
        assert built["libraries_built"] == 2
        assert built["applications_saved"] == len(cells) - 2
        assert built["libraries_saved"] == len(cells) - 2

    def test_memoized_records_identical_to_cold(self):
        cells = make_cells()
        cold, _ = execute_batch(cells)
        warm, built = execute_batch(cells)  # memos still populated
        assert json.dumps(cold) == json.dumps(warm)
        assert built["applications_built"] == 0
        assert built["libraries_built"] == 0

    def test_clear_build_memo_resets_counters(self):
        execute_batch(make_cells())
        clear_build_memo()
        assert all(value == 0 for value in BUILD_COUNTERS.values())


class TestBackendIdentity:
    def test_serial_pool_distributed_byte_identical(self):
        cells = make_cells()
        blobs = {}
        for name in backend_names():
            engine = SweepEngine(
                jobs=2 if name == "pool" else 1,
                use_cache=False,
                backend=name,
                workers=2 if name == "service" else None,
            )
            blobs[name] = json.dumps(engine.run(cells))
            if name == "serial":
                assert engine.stats.builds_saved > 0
                assert engine.stats.frames_sent == 0
            else:
                assert engine.stats.frames_sent > 0
        assert set(blobs) == {"pool", "serial", "service"}
        assert blobs["pool"] == blobs["serial"]
        assert blobs["service"] == blobs["serial"]

    def test_fig8_quick_grid_byte_identical(self):
        cells = fig8_cells(FIG8_POLICIES, frames=4)
        blobs = {}
        for name in backend_names():
            clear_build_memo()
            engine = SweepEngine(
                jobs=2 if name == "pool" else 1,
                use_cache=False,
                backend=name,
                workers=2 if name == "service" else None,
            )
            blobs[name] = json.dumps(engine.run(cells))
        assert blobs["pool"] == blobs["serial"]
        assert blobs["service"] == blobs["serial"]

    def test_fig8_pool_sweep_builds_each_application_once(self):
        """A fig8-pool sweep (one budget x two seeds x five policies) on a
        fresh two-worker engine sends one batch per application, so the
        two workers build two applications between them -- whichever
        worker takes which batch -- and the records match serial."""
        cells = make_cells(budgets=((2, 1),), seeds=(3, 4),
                           policies=FIG8_POLICIES)
        with SweepEngine(jobs=2, use_cache=False) as engine:
            blob = json.dumps(engine.run(cells))
            assert engine.stats.applications_built == 2
            assert engine.stats.frames_sent == 2
        clear_build_memo()
        assert blob == _serial_blob(cells)

    def test_uneven_pool_sweep_builds_at_most_four_applications(self):
        """One budget x three seeds x five policies on two workers: the
        two whole applications build once each and the cut third at most
        once per worker -- 4, or 3 when one worker takes every chunk of
        the third -- where cutting every application built 6."""
        cells = make_cells(budgets=((2, 1),), seeds=(3, 4, 5),
                           policies=FIG8_POLICIES)
        with SweepEngine(jobs=2, use_cache=False) as engine:
            blob = json.dumps(engine.run(cells))
            assert 3 <= engine.stats.applications_built <= 4
            assert engine.stats.frames_sent == 5
        clear_build_memo()
        assert blob == _serial_blob(cells)

    def test_engine_payload_surfaces_transport_counters(self):
        engine = SweepEngine(jobs=1, use_cache=False, backend="serial")
        engine.run(make_cells(budgets=((1, 1),), seeds=(0,)))
        payload = engine.stats.engine_payload()
        for key in ("builds_saved", "frames_sent", "worker_restarts"):
            assert key in payload


def _children():
    """Pids of this process's live ``multiprocessing`` children (reaping
    any that have exited)."""
    return {child.pid for child in multiprocessing.active_children()}


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _serial_blob(cells):
    return json.dumps(SweepEngine(use_cache=False, backend="serial").run(cells))


class TestPoolLifecycle:
    """One executor per engine: its workers serve every run, ``close()``
    (or dropping the engine) ends them, and the per-run stats stay per
    run."""

    @pytest.fixture
    def pid_cells(self, monkeypatch):
        """Cells whose records name the process that ran them (patched in
        before the engine's first run, so its forked workers inherit it)."""
        monkeypatch.setattr(
            engine_module, "execute_cell",
            lambda cell: {"pid": os.getpid(), "seed": cell.seed},
        )
        return make_cells(seeds=(0, 1, 2))

    def test_runs_share_the_worker_pids(self, pid_cells):
        before = _children()
        engine = SweepEngine(jobs=2, use_cache=False)
        first = engine.run(pid_cells)
        workers = _children() - before
        assert len(workers) == 2
        second = engine.run(pid_cells[::-1])
        assert _children() - before == workers
        served = {record["pid"] for record in first + second}
        assert served <= workers and os.getpid() not in served
        engine.close()
        assert _children() == before
        engine.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            engine.run(pid_cells)

    def test_dropped_engine_releases_its_workers(self, pid_cells):
        before = _children()
        engine = SweepEngine(jobs=2, use_cache=False)
        engine.run(pid_cells)
        assert _children() - before
        del engine
        gc.collect()
        assert _children() == before

    def test_with_block_closes_the_engine(self, pid_cells):
        before = _children()
        with SweepEngine(jobs=2, use_cache=False) as engine:
            engine.run(pid_cells)
            assert _children() - before
        assert _children() == before
        with pytest.raises(ReproError, match="closed"):
            engine.run(pid_cells)

    def test_stats_are_per_run(self):
        cells = make_cells()
        with SweepEngine(jobs=2, use_cache=False) as engine:
            engine.run(cells)
            first = engine.stats.engine_payload()
            engine.run(cells)
            second = engine.stats.engine_payload()
        assert first["frames_sent"] == second["frames_sent"] > 0
        assert second["executed"] == len(cells)
        # The warm workers build at most what the first run built.
        assert second["libraries_built"] <= first["libraries_built"]

    def test_pool_sized_to_the_run_that_forks_it(self):
        """A run with fewer batches than ``jobs`` forks only what it can
        use; a later, wider run replaces the pool with a larger one."""
        narrow = make_cells(budgets=((1, 1),), seeds=(0,))
        before = _children()
        with SweepEngine(jobs=3, use_cache=False) as engine:
            engine.run(narrow)
            assert engine.stats.frames_sent == 2
            small = _children() - before
            assert len(small) == 2
            engine.run(make_cells())
            large = _children() - before
            assert len(large) == 3 and not (large & small)
            engine.run(narrow)
            assert _children() - before == large
        assert _children() == before

    def test_run_all_shares_one_engine(self, monkeypatch):
        """``run_all`` hands every simulating experiment (all but Fig. 1
        and the search-space count) the same engine and closes it on
        return."""
        from repro.experiments import runner

        class Rendered:
            def render(self):
                return ""

        handed = []

        def stub(**kwargs):
            handed.append(kwargs.get("engine"))
            return Rendered()

        for name in runner.__dict__:
            if name.startswith("run_") and name != "run_all":
                monkeypatch.setattr(runner, name, stub)
        runner.run_all(fast=True, stream=io.StringIO(), jobs=2)
        engines = [engine for engine in handed if engine is not None]
        assert len(engines) == 12
        assert all(engine is engines[0] for engine in engines)
        with pytest.raises(ReproError, match="closed"):
            engines[0].run(make_cells())

    def test_warm_workers_serve_a_new_grid_byte_identically(self):
        first = make_cells()
        second = make_cells(budgets=((2, 1), (2, 2)), seeds=(1, 2),
                            policies=("rispp", "mrts"))
        with SweepEngine(jobs=2, use_cache=False) as engine:
            assert json.dumps(engine.run(first)) == _serial_blob(first)
            assert json.dumps(engine.run(second)) == _serial_blob(second)


class TestBrokenPool:
    """A pool a worker died in is never reused."""

    def test_worker_killed_between_runs(self):
        cells = make_cells()
        before = _children()
        with SweepEngine(jobs=2, use_cache=False) as engine:
            engine.run(cells)
            workers = _children() - before
            os.kill(min(workers), signal.SIGKILL)
            # The pool notices the death on its own and ends the other
            # worker too; once both are gone it refuses new work.
            _wait_until(lambda: not (_children() & workers))
            again = engine.run(cells)
            replacements = _children() - before
            assert len(replacements) == 2 and not (replacements & workers)
        assert json.dumps(again) == _serial_blob(cells)
        assert _children() == before

    def test_worker_killed_just_before_a_run(self):
        """No wait for the pool to notice the death: the run that follows
        it is retried on a fresh pool and still matches serial."""
        cells = make_cells()
        before = _children()
        with SweepEngine(jobs=2, use_cache=False) as engine:
            engine.run(cells)
            workers = _children() - before
            os.kill(min(workers), signal.SIGKILL)
            again = engine.run(cells)
            assert not ((_children() - before) & workers)
        assert json.dumps(again) == _serial_blob(cells)
        assert _children() == before

    def test_worker_killed_during_a_run(self, monkeypatch):
        cells = make_cells()
        doomed = make_cells(seeds=(13,))
        parent = os.getpid()
        execute_cell = engine_module.execute_cell

        def dying(cell):
            if cell.seed == 13 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute_cell(cell)

        monkeypatch.setattr(engine_module, "execute_cell", dying)
        before = _children()
        with SweepEngine(jobs=2, use_cache=False) as engine:
            engine.run(cells)
            workers = _children() - before
            with pytest.raises(BrokenProcessPool):
                engine.run(doomed)
            assert not (_children() & workers)
            after = engine.run(cells)
            assert not ((_children() - before) & workers)
        assert json.dumps(after) == _serial_blob(cells)
        assert _children() == before


def _wait_for_workers(handle, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    while len(handle.service._live) < count:
        assert time.monotonic() < deadline, "workers never joined"
        time.sleep(0.01)


class TestDistributedRetry:
    """Worker death on the daemon: requeue while the restart budget
    lasts, fail loudly once it is spent."""

    def test_dead_worker_batch_requeued_and_rerun(self):
        """A worker crashing mid-run must cost a restart, not correctness."""
        cells = make_cells()
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        handle = start_service_thread(worker_specs=[{"fail_after": 0}, {}])
        try:
            # Both workers join before the job is planned, so the doomed
            # one is guaranteed a batch to drop.
            _wait_for_workers(handle, 2)
            with ServiceClient(handle.coordinator) as client:
                records, counters = client.run_job(
                    [cell.payload() for cell in cells]
                )
        finally:
            assert handle.stop()
        assert records == serial
        assert counters["worker_restarts"] >= 1

    def test_last_worker_crash_waits_for_its_replacement(self):
        """The default budget (one restart per worker) spent on the only
        worker's replacement must not fail the job while that
        replacement is still starting."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        handle = start_service_thread(worker_specs=[{"fail_after": 0}])
        outcome = {}

        def submit():
            try:
                with ServiceClient(handle.coordinator) as client:
                    outcome["result"] = client.run_job(
                        [cell.payload() for cell in cells]
                    )
            except ReproError as error:
                outcome["error"] = error

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        submitter.join(timeout=60)
        try:
            assert not submitter.is_alive(), "job hung"
            assert "error" not in outcome, outcome.get("error")
            records, counters = outcome["result"]
            assert records == serial
            assert counters["worker_restarts"] >= 1
        finally:
            assert handle.stop()

    def test_restart_budget_exhaustion_fails_loudly(self):
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        handle = start_service_thread(
            worker_specs=[{"fail_after": 0}], max_restarts=0
        )
        outcome = {}

        def submit():
            try:
                with ServiceClient(handle.coordinator) as client:
                    outcome["result"] = client.run_job(
                        [cell.payload() for cell in cells]
                    )
            except ReproError as error:
                outcome["error"] = error

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        submitter.join(timeout=60)
        try:
            assert not submitter.is_alive(), "job hung on a dead fleet"
            assert "restart budget" in str(outcome.get("error"))
        finally:
            assert handle.stop()


class TestCoordinatorOnlyMode:
    def test_zero_workers_requires_an_address(self):
        with pytest.raises(ReproError, match="external workers"):
            resolve_backend("service", workers=0)
        with pytest.raises(ReproError, match="external workers"):
            SweepEngine(backend="service", workers=0, use_cache=False).run(
                make_cells(budgets=((1, 1),), seeds=(0,))
            )
        with pytest.raises(ReproError, match="workers must be >= 0"):
            SweepEngine(backend="service", workers=-1)
        # With an address the daemon is someone else's: nothing to spawn.
        assert resolve_backend(
            "service", workers=0, coordinator="127.0.0.1:7341"
        ).coordinator == "127.0.0.1:7341"

    def test_external_worker_joins_and_serves(self):
        """A ``workers=0`` daemon spawns nothing locally; a worker dialing
        its address serves the whole sweep."""
        cells = make_cells(budgets=((1, 1),), seeds=(0,))
        serial = json.loads(json.dumps(execute_batch(cells)[0]))
        clear_build_memo()
        from repro.experiments.backends.worker import worker_loop

        handle = start_service_thread(workers=0)
        outcome = {}
        worker = threading.Thread(
            target=lambda: outcome.setdefault(
                "exit", worker_loop(handle.address)
            )
        )
        worker.start()
        try:
            records = SweepEngine(
                backend="service",
                use_cache=False,
                workers=0,
                coordinator=handle.coordinator,
            ).run(cells)
        finally:
            assert handle.stop()
            worker.join(timeout=60)
        assert records == serial
        assert outcome["exit"] == 0


class TestWorkerCli:
    def test_bad_coordinator_address_is_a_usage_error(self, capsys):
        from repro.experiments.backends.worker import main

        assert main(["--coordinator", "nonsense"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_repro_worker_subcommand_wired(self, capsys):
        from repro.cli import main

        assert main(["worker", "--coordinator", "nonsense"]) == 2
        assert "host:port" in capsys.readouterr().err
