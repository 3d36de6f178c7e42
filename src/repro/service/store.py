"""The network-served content-addressed record store.

The daemon serves one ``.repro_cache``-compatible store to every client
and worker: same shard layout (``<key[:2]>/<key>.json``), same envelope
(``{"schema", "key", "cell", "record"}``), same sidecar ``index.json``
maintained incrementally through the engine's ``_index_apply``.  A
directory written by the daemon is therefore a valid local cell cache
and vice versa.

Namespace rules: the store is content-addressed -- a record's key is
``cell_key(cell)``, whose hash already covers the cell payload *and* the
structural library fingerprint -- so the fingerprint "namespace" carried
by ``cache_put`` frames is a *verification* tag, not a directory level.
:meth:`RecordStore.verified_put` recomputes both the fingerprint and the
key from the submitted cell and refuses mismatches, so a client with a
divergent workload checkout cannot poison the shared store.  Reads need
no namespace check: a divergent client derives different keys and
simply misses.

All methods are synchronous (they do file I/O); the asyncio daemon calls
them through ``asyncio.to_thread`` so the event loop never blocks --
which is exactly what the ``blocking-call-in-async`` lint rule enforces
over the service code.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.experiments import engine as engine_module
from repro.util.validation import ReproError


class RecordStore:
    """Synchronous record store over one cache directory.

    Index updates accumulate in memory and are published by
    :meth:`flush_index` (the daemon flushes after every completed job and
    on drain), keeping the sidecar incremental without a write per cell.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)
        self._pending_index: Dict[str, List[float]] = {}
        self.reads = 0
        self.hits = 0
        self.writes = 0

    # -------------------------------------------------------------- layout
    def _record_path(self, key: str) -> str:
        # A plain string: pathlib interns every component it parses, and a
        # fresh record file name per cell keeps growing the interpreter's
        # interned-string table in a long-running daemon.
        return os.path.join(self._root, key[:2], key + ".json")

    def _stat_entry(self, key: str) -> Optional[List[float]]:
        try:
            stat = os.stat(self._record_path(key))
        except OSError:
            return None
        return [stat.st_size, stat.st_mtime]

    # ---------------------------------------------------------------- read
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key``, or ``None``.

        A hit counts as use: the record's mtime is touched so LRU eviction
        (``repro cache``) keeps records the fleet actually reaches for.
        """
        self.reads += 1
        path = self._record_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            envelope.get("schema") != engine_module.ENGINE_SCHEMA
            or envelope.get("key") != key
        ):
            return None
        record = envelope.get("record")
        if not isinstance(record, dict):
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        entry = self._stat_entry(key)
        if entry is not None:
            self._pending_index[key] = entry
        self.hits += 1
        return record

    # --------------------------------------------------------------- write
    def put(
        self,
        key: str,
        cell_payload: Mapping[str, object],
        record: Mapping[str, object],
    ) -> None:
        """Atomically publish one record (tmp file + ``os.replace``)."""
        path = self._record_path(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        envelope = {
            "schema": engine_module.ENGINE_SCHEMA,
            "key": key,
            "cell": dict(cell_payload),
            "record": dict(record),
        }
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        entry = self._stat_entry(key)
        if entry is not None:
            self._pending_index[key] = entry

    def verified_put(
        self,
        namespace: str,
        key: str,
        cell_payload: Mapping[str, object],
        record: Mapping[str, object],
    ) -> None:
        """:meth:`put` gated by recomputing the content address.

        ``namespace`` must equal the library fingerprint this host derives
        from the submitted cell, and ``key`` must equal ``cell_key(cell)``
        -- otherwise the writer's workload code has diverged and the write
        is refused (raises :class:`ReproError`).
        """
        cell = engine_module.SweepCell.from_payload(cell_payload)
        fingerprint = engine_module.library_fingerprint(
            cell.workload, cell.budget, cell.workload_params, cell.budget_params
        )
        if namespace != fingerprint:
            raise ReproError(
                f"cache_put namespace mismatch: peer sent "
                f"{str(namespace)[:12]}..., this host derives "
                f"{fingerprint[:12]}... -- workload code has diverged"
            )
        expected = engine_module.cell_key(cell)
        if key != expected:
            raise ReproError(
                f"cache_put key mismatch: peer sent {str(key)[:12]}..., "
                f"this host derives {expected[:12]}..."
            )
        self.put(key, cell_payload, record)

    # --------------------------------------------------------------- index
    def flush_index(self) -> int:
        """Fold accumulated entries into the sidecar ``index.json``.

        Returns how many entries were published.  Uses the engine's
        ``_index_apply`` so the daemon's cache dir stays interchangeable
        with a locally-maintained ``.repro_cache``.
        """
        if not self._pending_index:
            return 0
        updates = dict(self._pending_index)
        self._pending_index.clear()
        engine_module._index_apply(self.root, updates)
        return len(updates)

    def counters(self) -> Dict[str, int]:
        return {"reads": self.reads, "hits": self.hits, "writes": self.writes}


__all__ = ["RecordStore"]
