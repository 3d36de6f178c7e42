"""Synchronous client for the always-on sweep service.

:class:`ServiceClient` speaks the same length-prefixed frames as the
socket workers (:mod:`repro.service.protocol`), over a plain blocking
socket (the asyncio transport lives only in the daemon).  It identifies
itself with ``"role": "client"`` in the ``hello`` frame, submits jobs,
and consumes the streamed ``cell_result_block`` frames -- reassembling
records by input index, so the daemon's completion order (which varies
with worker timing) never leaks into the result: a service sweep is
byte-identical to a serial one.

One client drives one job at a time (:meth:`run_job` blocks until
``job_done``/``job_failed``); concurrency comes from opening more
clients, which is exactly what the ``service`` executor backend and the
bench harness do.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments import engine as engine_module
from repro.service import wire
from repro.service.frames import (
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
    WELCOME,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    dial,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.util.validation import ReproError

CONNECT_TIMEOUT = 30.0


class ServiceClient:
    """A blocking connection to a running ``repro serve`` daemon.

    Usable as a context manager; :meth:`close` sends ``goodbye`` so the
    daemon retires the connection cleanly.

    Transport byte counters accumulate in :attr:`wire_stats` and each
    :meth:`run_job` folds its delta into the returned counters.
    """

    def __init__(
        self,
        coordinator: Union[str, Tuple[str, int]],
        submitter: Optional[str] = None,
    ):
        if isinstance(coordinator, str):
            address = parse_address(coordinator)
        else:
            address = (coordinator[0], int(coordinator[1]))
        self.submitter = submitter
        self.wire_stats = wire.WireStats()
        try:
            self._conn = dial(address, CONNECT_TIMEOUT)
        except OSError as error:
            raise ReproError(
                f"cannot reach sweep service at {address[0]}:{address[1]}: "
                f"{error}"
            )
        send_frame(
            self._conn,
            {
                "type": HELLO,
                "role": "client",
                "schema": engine_module.ENGINE_SCHEMA,
                "protocol": PROTOCOL_VERSION,
            },
            stats=self.wire_stats,
        )
        welcome = recv_frame(self._conn, self.wire_stats)
        if welcome.get("type") == REJECT:
            self._conn.close()
            raise ReproError(
                f"service rejected the connection: {welcome.get('reason')}"
            )
        if welcome.get("type") != WELCOME:
            self._conn.close()
            raise ReproError(
                f"expected welcome frame, got {welcome.get('type')!r}"
            )
        self.fingerprints = list(welcome.get("fingerprints", []))

    # --------------------------------------------------------------- jobs
    def run_job(
        self,
        payloads: Sequence[Mapping[str, object]],
        priority: int = 0,
        chunk: Optional[int] = None,
        on_record=None,
    ) -> Tuple[Optional[List[Dict[str, object]]], Dict[str, int]]:
        """Submit cell payloads; block until the job finishes.

        Returns ``(records, counters)`` with ``records[i]`` the record of
        ``payloads[i]`` regardless of the order cells completed in.  The
        ``job`` frame is the one frame the client writes: it then only
        reads, and acknowledges no block.
        Raises :class:`ReproError` if the service rejects the job (drain)
        or reports ``job_failed``.

        With ``on_record`` given the client *streams*: each record is
        handed to ``on_record(index, record)`` in ascending index order
        (out-of-order arrivals are held back, bounded by the daemon's
        in-flight window) and ``records`` comes back as ``None`` -- no
        O(cells) list is built, which is what lets a service sweep spill
        straight into a :class:`~repro.results.store.ResultWriter`.
        """
        job_frame: Dict[str, object] = {
            "type": JOB,
            "cells": [dict(payload) for payload in payloads],
            "priority": int(priority),
        }
        if self.submitter is not None:
            job_frame["submitter"] = self.submitter
        if chunk is not None:
            job_frame["chunk"] = int(chunk)
        wire_before = self.wire_stats.snapshot()
        send_frame(self._conn, job_frame, stats=self.wire_stats)
        records: Optional[List[Optional[Dict[str, object]]]] = None
        if on_record is None:
            records = [None] * len(payloads)
        # Streaming bookkeeping: which indices arrived (duplicates are
        # dropped), plus an index-ordered hold-back for early arrivals.
        received = bytearray(len(payloads))
        arrived = 0
        held: Dict[int, Dict[str, object]] = {}
        next_emit = 0
        job_id = None

        def accept(index: int, record) -> None:
            nonlocal arrived, next_emit
            if not (0 <= index < len(payloads)) or received[index]:
                return
            received[index] = 1
            arrived += 1
            if records is not None:
                records[index] = record
            else:
                held[index] = record
                while next_emit in held:
                    on_record(next_emit, held.pop(next_emit))
                    next_emit += 1

        while True:
            frame = recv_frame(self._conn, self.wire_stats)
            ftype = frame.get("type")
            if ftype == REJECT:
                raise ReproError(
                    f"service rejected the job: {frame.get('reason')}"
                )
            if ftype == JOB_ACCEPTED:
                job_id = frame.get("job")
            elif ftype == CELL_RESULT_BLOCK:
                rows = wire.decode_record_block(frame.get("block") or {})
                self.wire_stats.add(
                    "frames_coalesced", max(0, len(rows) - 1)
                )
                for index, record in rows:
                    accept(int(index), record)
            elif ftype == JOB_DONE:
                if arrived < len(payloads):
                    missing = [
                        i for i, flag in enumerate(received) if not flag
                    ]
                    raise ReproError(
                        f"job {job_id} finished but {len(missing)} cells "
                        f"never arrived (first missing index {missing[0]})"
                    )
                # Interned names: a caller that keeps every job's
                # counters holds one copy of each name, not one per job.
                counters = {
                    sys.intern(str(name)): int(value)
                    for name, value in dict(
                        frame.get("counters", {})
                    ).items()
                }
                # Fold this job's transport delta into its counters so
                # the engine's EngineStats surface the wire traffic.
                wire_after = self.wire_stats.snapshot()
                for name, value in wire_after.items():
                    delta = value - wire_before[name]
                    counters[name] = counters.get(name, 0) + delta
                return (
                    list(records) if records is not None else None,
                    counters,
                )
            elif ftype == JOB_FAILED:
                raise ReproError(
                    f"job {job_id} failed on the service: "
                    f"{frame.get('message')}"
                )
            elif ftype == ERROR:
                raise ReproError(f"service error: {frame.get('message')}")
            else:
                raise ReproError(
                    f"unexpected frame type {ftype!r} while awaiting job"
                )

    # -------------------------------------------------------------- cache
    def cache_get(self, key: str) -> Optional[Dict[str, object]]:
        """Fetch one record from the service store (``None`` on miss)."""
        send_frame(
            self._conn, {"type": CACHE_GET, "key": key},
            stats=self.wire_stats,
        )
        frame = recv_frame(self._conn, self.wire_stats)
        ftype = frame.get("type")
        if ftype == CACHE_HIT:
            record = frame.get("record")
            return record if isinstance(record, dict) else None
        if ftype == CACHE_MISS:
            return None
        raise ReproError(
            f"unexpected cache_get reply {ftype!r}: {frame.get('message')}"
        )

    def cache_put(
        self,
        namespace: str,
        key: str,
        cell_payload: Mapping[str, object],
        record: Mapping[str, object],
    ) -> None:
        """Publish one record; the daemon re-verifies namespace and key."""
        send_frame(
            self._conn,
            {
                "type": CACHE_PUT,
                "namespace": namespace,
                "key": key,
                "cell": dict(cell_payload),
                "record": dict(record),
            },
            stats=self.wire_stats,
        )
        frame = recv_frame(self._conn, self.wire_stats)
        if frame.get("type") != CACHE_OK:
            raise ReproError(
                f"cache_put refused: {frame.get('message', frame.get('type'))}"
            )

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        try:
            send_frame(
                self._conn, {"type": GOODBYE}, stats=self.wire_stats
            )
        except OSError:
            pass
        try:
            self._conn.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["ServiceClient"]
