"""The always-on sweep daemon: many clients, one shared worker fleet.

:class:`SweepService` is the repo's one socket coordinator.  It binds
once, spawns (and accepts) synchronous socket workers, and then serves
**jobs** -- each a list of sweep-cell payloads submitted by a client over
the same length-prefixed frame protocol the workers speak
(:mod:`repro.service.protocol`).  Per connection:

* workers (``python -m repro worker``, local or dialing in from other
  hosts) handshake and then exchange batch/result/error frames;
* clients identify themselves with ``"role": "client"`` in the ``hello``
  frame, then send ``job`` frames and receive streamed
  ``cell_result_block`` frames as cells complete plus a terminal
  ``job_done`` (or ``job_failed``) -- the daemon never buffers O(cells)
  records per job;
* both sides may use ``cache_get`` / ``cache_put`` to read and populate
  the shared content-addressed store (:mod:`repro.service.store`).

Scheduling: cell batches from all runnable jobs are arbitrated by the
deficit-round-robin :class:`~repro.service.scheduler.FairScheduler`
across submitters, then dispatched onto whichever worker is idle.
Batches are planned with the engine's ``plan_batches`` (one library
each, made of whole library x application units where those fit the
fleet), so worker-side construction memos keep amortizing across
*jobs*, not just within one sweep.  Unless the job names a ``chunk``,
consecutive planned batches then merge while the merged batch holds at
most ``min(quantum, ceil(misses / workers))`` cells: a batch may span
libraries, and a job's few new cells go out in few round trips, each no
larger than what one DRR visit serves.  A batch frame carries the
fingerprint of every library it spans, and the worker checks each.

Cross-job dedup: a job whose cell key is already in flight for another
job subscribes to that key instead of re-dispatching it, and every
computed record lands in the shared store, so resubmissions are served
without simulation.  A batch whose worker rejects it (library
fingerprint mismatch) fails every job subscribed to its keys; batches of
a failed job that were already scheduled run to completion -- their
records still feed the store and any cross-job subscribers, which keeps
the failure path simple and the store monotone.

Failure handling: a worker lost mid-batch has its batch requeued at the
*front* of its job (deterministic reassignment), ``worker_restarts`` is
counted on that job, and a local replacement is spawned while the
restart budget lasts.  A daemon that spawns local workers fails its
jobs with ``job_failed`` instead of waiting once no worker is live, no
spawned one is still starting, and the budget is spent; a
coordinator-only daemon (``workers=0``) keeps waiting for external
workers to dial in.

Graceful drain: SIGTERM/SIGINT (or :meth:`request_drain`) stops intake --
new jobs are rejected with a ``reject`` frame -- finishes every accepted
job, closes the store, shuts the workers down, and exits.

Every blocking operation (cell parsing, key hashing, store I/O) runs in
``asyncio.to_thread``; the event loop itself never touches a file or
sleeps, which the ``blocking-call-in-async`` lint rule enforces.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import signal
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments import engine as engine_module
from repro.experiments.backends.base import (
    library_fingerprints,
    merge_counters,
    new_counters,
    plan_batches,
)
from repro.service import wire
from repro.service.frames import (
    BATCH,
    CACHE_GET,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_OK,
    CACHE_PUT,
    CELL_RESULT_BLOCK,
    ERROR,
    GOODBYE,
    HELLO,
    JOB,
    JOB_ACCEPTED,
    JOB_DONE,
    JOB_FAILED,
    REJECT,
    RESULT,
    SHUTDOWN,
    WELCOME,
)
from repro.service.protocol import (
    HANDSHAKE_TIMEOUT,
    PROTOCOL_VERSION,
    read_frame,
    result_records,
    write_frame,
)
from repro.service.scheduler import FairScheduler
from repro.service.store import RecordStore
from repro.util.validation import ReproError


def _fill_batches(batches: List[List[int]], cap: int) -> List[List[int]]:
    """Merge consecutive ``batches`` while the merged batch holds at most
    ``cap`` cells; a batch already larger than ``cap`` stays as it is."""
    merged: List[List[int]] = []
    for batch in batches:
        if merged and len(merged[-1]) + len(batch) <= cap:
            merged[-1] = merged[-1] + batch
        else:
            merged.append(batch)
    return merged


class _Peer:
    """Daemon-side view of one connection (worker or client)."""

    __slots__ = ("peer_id", "role", "reader", "writer", "token", "closed")

    def __init__(self, peer_id: int, role: str, reader, writer):
        self.peer_id = peer_id
        self.role = role
        self.reader = reader
        self.writer = writer
        self.token: Optional[int] = None  #: worker: outstanding batch token
        self.closed = False


class _JobState:
    """One accepted job: its peer, key bookkeeping and counters."""

    __slots__ = (
        "job_id", "peer", "submitter", "priority",
        "indices_by_key", "unresolved", "counters", "failed",
        "pending_rows",
    )

    def __init__(self, job_id: int, peer: _Peer, submitter: str, priority: int):
        self.job_id = job_id
        self.peer = peer
        self.submitter = submitter
        self.priority = priority
        #: cache key -> input cell indices mapped to it (duplicates share)
        self.indices_by_key: Dict[str, List[int]] = {}
        self.unresolved: Set[str] = set()
        self.counters = new_counters()
        self.failed = False
        #: (index, record) rows coalesced toward the next
        #: cell_result_block flush
        self.pending_rows: List[Tuple[int, Dict[str, object]]] = []


class _BatchState:
    """One dispatched (or dispatchable) batch frame and its keys."""

    __slots__ = ("token", "job_id", "keys", "frame")

    def __init__(self, token: int, job_id: int, keys: List[str], frame: Dict):
        self.token = token
        self.job_id = job_id
        self.keys = keys
        self.frame = frame


class SweepService:
    """The long-lived asyncio sweep daemon (``repro serve``).

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`address` once started).
    workers:
        Local synchronous worker processes to spawn (external workers
        that dial in join the same fleet).  ``0`` is coordinator-only.
    cache_dir:
        Root of the network-served record store (``None`` disables the
        shared cache; jobs are still deduplicated in flight).
    quantum:
        Deficit-round-robin refill per scheduler visit, in cells.
    max_restarts:
        Replacement workers spawned over the daemon's lifetime after
        worker deaths (default: the worker count).
    worker_specs:
        Tests only -- kwargs per spawned local worker (e.g.
        ``{"fail_after": 0}`` to crash it on its first batch).
    """

    DEFAULT_WORKERS = 2

    #: Page cache of the daemon's store, in KiB.  A job reads only its own
    #: few keys and a result writes only its batch's rows, so SQLite's
    #: default 2 MB cache seldom holds the next page read.
    STORE_CACHE_KIB = 256

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        cache_dir=None,
        quantum: int = 4,
        max_restarts: Optional[int] = None,
        worker_specs: Optional[Sequence[Dict[str, object]]] = None,
    ):
        if workers is None:
            workers = self.DEFAULT_WORKERS
        if workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers}")
        self.host = host
        self.port = port
        self.n_workers = len(worker_specs) if worker_specs else workers
        self.worker_specs = list(worker_specs) if worker_specs else None
        self.max_restarts = (
            max_restarts if max_restarts is not None else self.n_workers
        )
        self.store = (
            RecordStore(cache_dir, cache_kib=self.STORE_CACHE_KIB)
            if cache_dir is not None else None
        )
        self.scheduler = FairScheduler(quantum=quantum)
        self.address: Optional[Tuple[str, int]] = None
        self.jobs_accepted = 0
        self.jobs_finished = 0
        self.jobs_failed = 0

        self._jobs: Dict[int, _JobState] = {}
        self._batches: Dict[int, _BatchState] = {}
        #: in-flight cache key -> job ids awaiting it (cross-job dedup)
        self._computing: Dict[str, List[int]] = {}
        self._idle: Deque[_Peer] = deque()
        self._live: Dict[int, _Peer] = {}
        self._fingerprints: Set[str] = set()
        self._next_peer = 0
        self._next_job = 0
        self._next_token = 0
        self._restarts_used = 0
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: spawned local worker processes that have not exited yet
        self._processes: List[multiprocessing.Process] = []
        #: fleet-loss checks scheduled from process-exit callbacks
        self._exit_checks: Set[asyncio.Task] = set()
        self._started = threading.Event()

    # ------------------------------------------------------------ lifecycle
    async def run(self) -> None:
        """Serve until drained (SIGTERM/SIGINT or :meth:`request_drain`)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._install_signal_handlers()
        for spec in self.worker_specs or [{} for _ in range(self.n_workers)]:
            self._spawn_worker(spec)
        self._started.set()
        try:
            await self._stopped.wait()
        finally:
            await self._shutdown()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (thread-embedded daemon) or an event
                # loop without signal support: drain via request_drain().
                return

    def request_drain(self) -> None:
        """Stop intake; finish accepted jobs; then shut down.

        Safe to call from a signal handler (it only flips flags and sets
        an event).  New ``job`` frames are answered with ``reject``.
        """
        self._draining = True
        if not self._jobs and self._stopped is not None:
            self._stopped.set()

    def _check_drained(self) -> None:
        if self._draining and not self._jobs and self._stopped is not None:
            self._stopped.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for peer in sorted(self._live.values(), key=lambda p: p.peer_id):
            try:
                await write_frame(peer.writer, {"type": SHUTDOWN})
                peer.writer.close()
            except (OSError, ConnectionError):
                pass
        self._live.clear()
        self._idle.clear()
        if self.store is not None:
            await asyncio.to_thread(self.store.close)
        loop = asyncio.get_running_loop()
        processes, self._processes = self._processes, []
        for process in processes:
            loop.remove_reader(process.sentinel)
        await asyncio.to_thread(self._join_workers, processes)

    def _spawn_worker(self, spec: Dict[str, object]) -> None:
        from repro.experiments.backends import worker as worker_module

        process = multiprocessing.Process(
            target=worker_module.worker_loop,
            args=(tuple(self.address),),
            kwargs=dict(spec),
            daemon=True,
        )
        process.start()
        self._processes.append(process)
        asyncio.get_running_loop().add_reader(
            process.sentinel, self._on_process_exit, process
        )

    def _on_process_exit(self, process: multiprocessing.Process) -> None:
        # A crashed worker's socket can close before its process ends, so
        # the fleet-loss check runs again once the process is gone.
        asyncio.get_running_loop().remove_reader(process.sentinel)
        process.join(timeout=0)  # reap it; the ready sentinel means no wait
        self._processes.remove(process)
        if self._fleet_dead():
            task = asyncio.ensure_future(self._fail_all_jobs())
            self._exit_checks.add(task)
            task.add_done_callback(self._exit_checks.discard)

    def _fleet_dead(self) -> bool:
        """True when a daemon that spawns its own workers has none live,
        none still starting or exiting, and no restart budget left.

        A coordinator-only daemon (``workers=0``) never gives up: its
        workers are external and may redial.
        """
        return (
            self.n_workers > 0
            and not self._live
            and not self._processes
            and self._restarts_used >= self.max_restarts
        )

    @staticmethod
    def _join_workers(processes: List[multiprocessing.Process]) -> None:
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)

    # ---------------------------------------------------------- connections
    async def _on_connection(self, reader, writer) -> None:
        try:
            hello = await asyncio.wait_for(
                read_frame(reader), timeout=HANDSHAKE_TIMEOUT
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError, ValueError, ReproError):
            writer.close()
            return
        if (
            hello.get("type") != HELLO
            or hello.get("schema") != engine_module.ENGINE_SCHEMA
            or hello.get("protocol") != PROTOCOL_VERSION
        ):
            try:
                await write_frame(
                    writer,
                    {
                        "type": REJECT,
                        "reason": (
                            f"schema/protocol mismatch: service has "
                            f"schema={engine_module.ENGINE_SCHEMA} "
                            f"protocol={PROTOCOL_VERSION}, peer sent "
                            f"schema={hello.get('schema')} "
                            f"protocol={hello.get('protocol')}"
                        ),
                    },
                )
            except (OSError, ConnectionError):
                pass
            writer.close()
            return
        role = "client" if hello.get("role") == "client" else "worker"
        try:
            await write_frame(
                writer,
                {
                    "type": WELCOME,
                    "schema": engine_module.ENGINE_SCHEMA,
                    "protocol": PROTOCOL_VERSION,
                    "fingerprints": sorted(self._fingerprints),
                },
            )
        except (OSError, ConnectionError):
            writer.close()
            return
        peer = _Peer(self._next_peer, role, reader, writer)
        self._next_peer += 1
        if role == "worker":
            if self._draining:
                try:
                    await write_frame(writer, {"type": SHUTDOWN})
                except (OSError, ConnectionError):
                    pass
                writer.close()
                return
            self._live[peer.peer_id] = peer
            self._idle.append(peer)
            await self._dispatch()
            await self._worker_reader(peer)
        else:
            await self._client_reader(peer)

    async def _worker_reader(self, peer: _Peer) -> None:
        clean = False
        try:
            while True:
                frame = await read_frame(peer.reader)
                ftype = frame.get("type")
                if ftype == RESULT:
                    await self._on_result(peer, frame)
                elif ftype == ERROR:
                    await self._on_worker_error(peer, frame)
                elif ftype == CACHE_GET:
                    await self._on_cache_get(peer, frame)
                elif ftype == CACHE_PUT:
                    await self._on_cache_put(peer, frame)
                elif ftype == GOODBYE:
                    clean = True
                    return
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ValueError, ReproError):
            pass
        finally:
            await self._on_worker_lost(peer, clean=clean)

    async def _client_reader(self, peer: _Peer) -> None:
        try:
            while True:
                frame = await read_frame(peer.reader)
                ftype = frame.get("type")
                if ftype == JOB:
                    await self._on_job(peer, frame)
                elif ftype == CACHE_GET:
                    await self._on_cache_get(peer, frame)
                elif ftype == CACHE_PUT:
                    await self._on_cache_put(peer, frame)
                elif ftype == GOODBYE:
                    return
                else:
                    await write_frame(
                        peer.writer,
                        {
                            "type": ERROR,
                            "message": f"unexpected frame type {ftype!r}",
                        },
                    )
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ValueError, ReproError):
            pass
        finally:
            peer.closed = True
            try:
                peer.writer.close()
            except (OSError, ConnectionError):
                pass

    # ------------------------------------------------------------ job intake
    def _prepare_job(self, payloads):
        """Heavy intake work, off the event loop: parse cells, hash keys
        (compiling the library fingerprint on first sight), read store hits.

        Duplicate payloads within one job parse and hash once: repeat
        submissions of one grid are the service's common case, and the
        per-cell content hash would otherwise dominate intake.  The memo
        token is the decoded document's ``repr`` -- identical wire
        documents decode to identical reprs, and a miss (e.g. differing
        key order) only costs the redundant hash it would have paid
        anyway."""
        cells = []
        keys = []
        memo: Dict[str, Tuple[object, str]] = {}
        for payload in payloads:
            token = repr(payload)
            entry = memo.get(token)
            if entry is None:
                cell = engine_module.SweepCell.from_payload(payload)
                entry = memo[token] = (cell, engine_module.cell_key(cell))
            cells.append(entry[0])
            keys.append(entry[1])
        hits: Dict[str, Dict[str, object]] = {}
        if self.store is not None:
            hits = self.store.get_many(list(dict.fromkeys(keys)))
        return cells, keys, hits

    async def _on_job(self, peer: _Peer, frame: Dict) -> None:
        if self._draining:
            await write_frame(
                peer.writer,
                {
                    "type": REJECT,
                    "reason": "service is draining and accepts no new jobs",
                },
            )
            return
        payloads = frame.get("cells") or []
        job_id = self._next_job
        self._next_job += 1
        submitter = str(frame.get("submitter") or f"peer-{peer.peer_id}")
        priority = int(frame.get("priority", 0))
        job = _JobState(job_id, peer, submitter, priority)
        self._jobs[job_id] = job
        self.jobs_accepted += 1
        try:
            await write_frame(
                peer.writer,
                {"type": JOB_ACCEPTED, "job": job_id, "cells": len(payloads)},
            )
        except (OSError, ConnectionError):
            # Client vanished right after submitting: drop the job before
            # it acquires keys/batches, or drain could wait on it forever.
            peer.closed = True
            del self._jobs[job_id]
            self._check_drained()
            return
        try:
            cells, keys, hits = await asyncio.to_thread(
                self._prepare_job, payloads
            )
        except (ReproError, KeyError, TypeError, ValueError) as error:
            await self._fail_job(job, f"malformed job: {error}")
            return

        for index, key in enumerate(keys):
            job.indices_by_key.setdefault(key, []).append(index)

        # Unique keys in first-appearance order: store hits stream now,
        # in-flight keys subscribe, the rest become this job's batches.
        miss_cells: List[engine_module.SweepCell] = []
        miss_keys: List[str] = []
        seen: Set[str] = set()
        for cell, key in zip(cells, keys):
            if key in seen:
                continue
            seen.add(key)
            if key in hits:
                job.counters["remote_cache_hits"] += len(job.indices_by_key[key])
                await self._send_cell_results(job, key, hits[key])
            elif key in self._computing:
                job.counters["remote_cache_hits"] += len(job.indices_by_key[key])
                self._computing[key].append(job_id)
                job.unresolved.add(key)
            else:
                miss_cells.append(cell)
                miss_keys.append(key)

        if miss_cells:
            chunk = frame.get("chunk")
            # Plan for the whole local fleet even while some of it is
            # still connecting (more when external workers joined): the
            # batch plan, and with it frames_sent, must not depend on which
            # workers happened to connect before this job arrived.
            parts = max(1, len(self._live), self.n_workers)
            batches = plan_batches(
                miss_cells,
                int(chunk) if chunk else None,
                parts=parts,
            )
            if not chunk:
                batches = _fill_batches(batches, min(
                    self.scheduler.quantum,
                    math.ceil(len(miss_cells) / parts),
                ))
            entries: List[Tuple[int, int]] = []
            for batch in batches:
                token = self._next_token
                self._next_token += 1
                fingerprints = library_fingerprints([miss_cells[i] for i in batch])
                self._fingerprints.update(fingerprints)
                batch_keys = [miss_keys[i] for i in batch]
                batch_frame = {
                    "type": BATCH,
                    "batch": token,
                    "fingerprints": fingerprints,
                    "cells": [miss_cells[i].payload() for i in batch],
                }
                self._batches[token] = _BatchState(
                    token, job_id, batch_keys, batch_frame
                )
                entries.append((token, len(batch)))
            # setdefault+append, not assignment: the classification loop
            # above awaits, so a concurrent job may have registered the
            # same key meanwhile -- merge subscribers, never clobber them.
            for key in miss_keys:
                self._computing.setdefault(key, []).append(job_id)
                job.unresolved.add(key)
            self.scheduler.submit(job_id, submitter, priority, entries)
            job.counters["frames_sent"] += len(entries)
        # Intake boundary: store hits coalesced above leave now even when
        # the job still has in-flight keys ahead of it.
        await self._flush_job_blocks(job)
        await self._maybe_finish_job(job)
        if self._fleet_dead():
            await self._fail_all_jobs()
        await self._dispatch()

    # -------------------------------------------------------------- dispatch
    async def _dispatch(self) -> None:
        while self._idle and self.scheduler.has_work():
            peer = self._idle.popleft()
            if peer.peer_id not in self._live or peer.token is not None:
                continue
            token = self.scheduler.next_batch()
            if token is None:
                self._idle.appendleft(peer)
                return
            state = self._batches.get(token)
            if state is None:
                self.scheduler.complete(token)
                self._idle.appendleft(peer)
                continue
            peer.token = token
            try:
                await write_frame(peer.writer, state.frame)
            except (OSError, ConnectionError):
                await self._on_worker_lost(peer, clean=False)

    # --------------------------------------------------------- worker events
    async def _on_result(self, peer: _Peer, frame: Dict) -> None:
        token = frame.get("batch")
        peer.token = None
        self._idle.append(peer)
        state = self._batches.pop(token, None)
        if state is not None:
            self.scheduler.complete(token)
            try:
                records = result_records(frame)
                problem = (
                    None if len(records) == len(state.keys)
                    else f"returned {len(records)} records for a "
                    f"{len(state.keys)}-cell batch"
                )
            except ReproError as error:
                problem = f"sent an unreadable result: {error}"
            if problem is not None:
                # A short, long or unreadable record list would leave
                # the batch's keys unresolved forever; fail loudly.
                await self._fail_batch_jobs(
                    state, f"worker {peer.peer_id} {problem}"
                )
                await self._dispatch()
                return
            job = self._jobs.get(state.job_id)
            if job is not None and not job.failed:
                merge_counters(job.counters, frame.get("built", {}))
            if self.store is not None:
                await asyncio.to_thread(
                    self.store.put_many,
                    zip(state.keys, state.frame["cells"], records),
                )
            for key, record in zip(state.keys, records):
                await self._resolve_key(key, record)
            # Batch boundary: whatever the resolved keys coalesced for
            # still-running jobs goes out now, one block per job.
            await self._flush_all_blocks()
        await self._dispatch()

    async def _resolve_key(self, key: str, record: Dict) -> None:
        for job_id in self._computing.pop(key, []):
            job = self._jobs.get(job_id)
            if job is None:
                continue
            job.unresolved.discard(key)
            if not job.failed:
                await self._send_cell_results(job, key, record)
            await self._maybe_finish_job(job)

    async def _send_cell_results(self, job: _JobState, key: str, record) -> None:
        """Coalesce a resolved key's rows toward one columnar
        ``cell_result_block``; flushed at the size threshold here, at
        batch boundaries, and always before ``job_done``/``job_failed``."""
        if job.peer.closed:
            return
        for index in job.indices_by_key.get(key, ()):
            job.pending_rows.append((index, record))
        if len(job.pending_rows) >= wire.COALESCE_FLUSH_ROWS:
            await self._flush_job_blocks(job)

    async def _flush_job_blocks(self, job: _JobState) -> None:
        """Send one ``cell_result_block`` with every coalesced row."""
        rows = job.pending_rows
        if not rows:
            return
        job.pending_rows = []
        if job.peer.closed:
            return
        frame = {
            "type": CELL_RESULT_BLOCK,
            "job": job.job_id,
            "block": wire.encode_record_block(rows),
            "rows": len(rows),
        }
        try:
            await write_frame(job.peer.writer, frame)
        except (OSError, ConnectionError):
            job.peer.closed = True

    async def _flush_all_blocks(self) -> None:
        for job in list(self._jobs.values()):
            await self._flush_job_blocks(job)

    async def _maybe_finish_job(self, job: _JobState) -> None:
        if job.failed or job.unresolved or job.job_id not in self._jobs:
            return
        # Ordering: every coalesced row must precede the terminal frame.
        await self._flush_job_blocks(job)
        job.counters["jobs_completed"] += 1
        self.jobs_finished += 1
        if not job.peer.closed:
            try:
                await write_frame(
                    job.peer.writer,
                    {
                        "type": JOB_DONE,
                        "job": job.job_id,
                        "counters": {
                            name: int(value)
                            for name, value in sorted(job.counters.items())
                        },
                    },
                )
            except (OSError, ConnectionError):
                job.peer.closed = True
        del self._jobs[job.job_id]
        self._check_drained()

    async def _fail_job(self, job: _JobState, message: str) -> None:
        if job.failed or job.job_id not in self._jobs:
            return
        await self._flush_job_blocks(job)
        job.failed = True
        self.jobs_failed += 1
        if not job.peer.closed:
            try:
                await write_frame(
                    job.peer.writer,
                    {
                        "type": JOB_FAILED,
                        "job": job.job_id,
                        "message": message,
                    },
                )
            except (OSError, ConnectionError):
                job.peer.closed = True
        del self._jobs[job.job_id]
        self._check_drained()

    async def _on_worker_error(self, peer: _Peer, frame: Dict) -> None:
        token = frame.get("batch")
        peer.token = None
        self._idle.append(peer)
        state = self._batches.pop(token, None)
        if state is not None:
            self.scheduler.complete(token)
            message = str(frame.get("message", "worker rejected the batch"))
            await self._fail_batch_jobs(
                state, f"worker {peer.peer_id}: {message}"
            )
        await self._dispatch()

    async def _fail_batch_jobs(self, state: _BatchState, message: str) -> None:
        """Fail every job subscribed to any of a dead batch's keys."""
        for key in state.keys:
            for job_id in self._computing.pop(key, []):
                job = self._jobs.get(job_id)
                if job is not None:
                    await self._fail_job(job, message)

    async def _on_worker_lost(self, peer: _Peer, clean: bool) -> None:
        if peer.peer_id not in self._live:
            return
        del self._live[peer.peer_id]
        peer.closed = True
        try:
            peer.writer.close()
        except (OSError, ConnectionError):
            pass
        token = peer.token
        peer.token = None
        if token is not None and token in self._batches:
            # Deterministic reassignment: the interrupted batch goes back
            # to the front of its job, so the next free worker re-runs it.
            self.scheduler.requeue(token)
            job = self._jobs.get(self._batches[token].job_id)
            if job is not None:
                job.counters["worker_restarts"] += 1
            if (
                not clean
                and not self._draining
                and self._restarts_used < self.max_restarts
            ):
                self._restarts_used += 1
                self._spawn_worker({})
        if self._fleet_dead():
            # Nothing is left to run a queued batch, and nothing will be
            # spawned: fail loudly instead of waiting forever.
            await self._fail_all_jobs()
        await self._dispatch()

    async def _fail_all_jobs(self) -> None:
        message = (
            "sweep service lost every local worker and the restart "
            f"budget ({self.max_restarts}) is spent"
        )
        for job in list(self._jobs.values()):
            await self._fail_job(job, message)

    # ----------------------------------------------------------- cache frames
    async def _on_cache_get(self, peer: _Peer, frame: Dict) -> None:
        key = str(frame.get("key") or "")
        record = None
        if self.store is not None and key:
            record = await asyncio.to_thread(self.store.get, key)
        if record is None:
            await write_frame(peer.writer, {"type": CACHE_MISS, "key": key})
        else:
            await write_frame(
                peer.writer,
                {"type": CACHE_HIT, "key": key, "record": record},
            )

    async def _on_cache_put(self, peer: _Peer, frame: Dict) -> None:
        key = str(frame.get("key") or "")
        if self.store is None:
            await write_frame(
                peer.writer,
                {"type": ERROR, "message": "service runs without a cache dir"},
            )
            return
        try:
            await asyncio.to_thread(
                self.store.verified_put,
                str(frame.get("namespace") or ""),
                key,
                frame.get("cell") or {},
                frame.get("record") or {},
            )
        except (ReproError, KeyError, TypeError, ValueError) as error:
            await write_frame(
                peer.writer, {"type": ERROR, "message": str(error)}
            )
            return
        await write_frame(peer.writer, {"type": CACHE_OK, "key": key})


# ------------------------------------------------------- thread embedding


class ServiceHandle:
    """A :class:`SweepService` running on a background thread's loop.

    Tests, benches and the self-hosting ``service`` backend use this to
    stand up an ephemeral daemon in-process; production deployments run
    ``repro serve`` in the foreground instead.
    """

    def __init__(self, service: SweepService, thread: threading.Thread, loop):
        self.service = service
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.address

    @property
    def coordinator(self) -> str:
        host, port = self.service.address
        return f"{host}:{port}"

    def request_drain(self) -> None:
        self._loop.call_soon_threadsafe(self.service.request_drain)

    def stop(self, timeout: float = 60.0) -> bool:
        """Drain and join; ``True`` when the daemon exited in time."""
        self.request_drain()
        self._thread.join(timeout)
        return not self._thread.is_alive()


def start_service_thread(
    startup_timeout: float = 30.0, **kwargs
) -> ServiceHandle:
    """Run a :class:`SweepService` on a dedicated thread; returns once the
    daemon is bound and its :attr:`~SweepService.address` is readable."""
    service = SweepService(**kwargs)
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.run())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, daemon=True, name="repro-service")
    thread.start()
    if not service._started.wait(startup_timeout):
        raise ReproError(
            f"sweep service failed to start within {startup_timeout}s"
        )
    return ServiceHandle(service, thread, loop)


__all__ = ["ServiceHandle", "SweepService", "start_service_thread"]
