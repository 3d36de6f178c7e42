"""The content-addressed cell record store: one SQLite file per cache dir.

Every cached sweep cell -- whether the local :class:`SweepEngine` computed
it into ``.repro_cache`` or the ``repro serve`` daemon computed it for a
client -- is one row of ``<cache_dir>/cells.sqlite``:

``key``
    ``cell_key(cell)``, the primary key;
``schema``
    the ``ENGINE_SCHEMA`` the row was written under;
``cell`` / ``record``
    the cell payload and its record as canonical JSON (``sort_keys``);
``size``
    bytes of the two JSON texts (what ``cache_stats`` sums);
``used``
    a use generation: every write and every run's hits take the next
    one, so ``ORDER BY used, key`` is least-recently-used first.  It is a
    counter kept in the table, not a clock.

The daemon and the engine open the same class on the same file, so a
daemon's cache dir is a valid local cache and vice versa.  Files of
other layouts in the directory (such as ``<key[:2]>/<key>.json`` trees)
are never read.

Namespace rules: the store is content-addressed -- a record's key is
``cell_key(cell)``, whose hash already covers the cell payload *and* the
structural library fingerprint -- so the fingerprint "namespace" carried
by ``cache_put`` frames is a *verification* tag, not a key prefix.
:meth:`RecordStore.verified_put` recomputes both the fingerprint and the
key from the submitted cell and refuses mismatches, so a client with a
divergent workload checkout cannot poison the shared store.  Reads need
no namespace check: a divergent client derives different keys and
simply misses.

Rows are never trusted blindly: a row of another schema or with a
record that does not parse to an object reads as a miss (the engine then
re-executes the cell and overwrites it), and a file that is not a
readable SQLite database is set aside and replaced by an empty store.

All methods are synchronous and serialised by one lock, so the asyncio
daemon may call them from any ``asyncio.to_thread`` worker -- and must,
which the ``blocking-call-in-async`` lint rule enforces over the service
code.  The connection is opened on first use and belongs to the process
that opened it: a forked child opens its own and never touches (or
closes) its parent's.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from contextlib import closing, contextmanager
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
    TypeVar, Union,
)

from repro.experiments import engine as engine_module
from repro.util.validation import ReproError

#: The store's file name inside a cache dir.
STORE_NAME = "cells.sqlite"

#: Seconds a connection waits out another connection's lock.
OPEN_TIMEOUT = 60.0

#: Keys per ``WHERE key IN (...)`` statement, under SQLite's historical
#: limit of 999 bound parameters per statement.
BATCH_KEYS = 900

_SCHEMA_SQL = (
    "CREATE TABLE IF NOT EXISTS cells ("
    "key TEXT PRIMARY KEY, schema INTEGER NOT NULL, cell TEXT NOT NULL, "
    "record TEXT NOT NULL, size INTEGER NOT NULL, used INTEGER NOT NULL"
    ") WITHOUT ROWID",
    "CREATE INDEX IF NOT EXISTS cells_by_use ON cells (used)",
)

_T = TypeVar("_T")


def _chunks(keys: Sequence[str]) -> Iterator[Sequence[str]]:
    for start in range(0, len(keys), BATCH_KEYS):
        yield keys[start:start + BATCH_KEYS]


def _marks(chunk: Sequence[str]) -> str:
    return ",".join("?" * len(chunk))


def _encode(value: Mapping[str, object]) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class RecordStore:
    """Synchronous cell store over one cache directory's ``cells.sqlite``."""

    def __init__(self, root: Union[str, Path], cache_kib: Optional[int] = None):
        self.root = Path(root)
        self.path = self.root / STORE_NAME
        #: page-cache bound of the connection, in KiB (``None``: SQLite's
        #: default of 2,000)
        self.cache_kib = cache_kib
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        #: connections a forked child inherited: its parent's to use and
        #: close, so the child keeps them referenced and never closes them
        self._inherited: List[sqlite3.Connection] = []
        self.reads = 0
        self.hits = 0
        self.writes = 0
        self.selects = 0       #: SELECT batches issued by get_many
        self.transactions = 0  #: write transactions committed

    # ---------------------------------------------------------- connection
    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path),
                timeout=OPEN_TIMEOUT,
                isolation_level=None,
                check_same_thread=False,
            )
            try:
                self._set_up(conn)
                if self.cache_kib is not None:
                    conn.execute(f"PRAGMA cache_size=-{int(self.cache_kib)}")
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    @staticmethod
    def _set_up(conn: sqlite3.Connection) -> None:
        """Switch a new connection to WAL and create the table.

        Switching a fresh file to WAL fails at once with "database is
        locked" while another connection holds a write lock on it: SQLite
        skips the busy handler there, so the connection's ``timeout`` does
        not apply.  Retry with bounded backoff, sleeping at most that same
        timeout in total.
        """
        slept = 0.0
        delay = 0.001
        while True:
            try:
                # NORMAL: commits append to the WAL without an fsync; only
                # checkpoints sync.  A crash loses at most the newest rows.
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA journal_mode=WAL")
                for statement in _SCHEMA_SQL:
                    conn.execute(statement)
                return
            except sqlite3.OperationalError as error:
                if "database is locked" not in str(error) or slept + delay > OPEN_TIMEOUT:
                    raise
            time.sleep(delay)
            slept += delay
            delay = min(2 * delay, 0.1)

    def _run(self, work: Callable[[sqlite3.Connection], _T]) -> _T:
        """``work(connection)`` under the lock; on a corrupt file, set it
        aside and run ``work`` once more against a fresh, empty store."""
        if self._pid != os.getpid():
            # First use in a forked child; the child is single-threaded here.
            if self._conn is not None:
                self._inherited.append(self._conn)
            self._conn, self._pid, self._lock = None, os.getpid(), threading.Lock()
        with self._lock:
            try:
                return work(self._connection())
            except sqlite3.DatabaseError as error:
                # Subclasses are busy timeouts, I/O and constraint errors:
                # real failures.  The base class is SQLITE_NOTADB/CORRUPT.
                if type(error) is not sqlite3.DatabaseError:
                    raise
                self._set_aside(error)
            return work(self._connection())

    def _set_aside(self, error: sqlite3.DatabaseError) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        aside = self.path.with_name(STORE_NAME + ".corrupt")
        # FileNotFoundError: another process set the file aside first.
        try:
            os.replace(self.path, aside)
        except FileNotFoundError:
            pass
        # The WAL and shared-memory files belong to the bad file; the
        # fresh store must not replay them.
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except FileNotFoundError:
                pass
        warnings.warn(
            f"cell store {self.path} is unreadable ({error}); moved it to "
            f"{aside.name} and started an empty store",
            RuntimeWarning,
        )

    @contextmanager
    def _transaction(self, conn: sqlite3.Connection) -> Iterator[int]:
        """One write transaction; yields the use generation its writes take."""
        conn.execute("BEGIN IMMEDIATE")
        try:
            (generation,) = conn.execute(
                "SELECT COALESCE(MAX(used), 0) + 1 FROM cells"
            ).fetchone()
            yield generation
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        self.transactions += 1

    def close(self) -> None:
        """Close this process's connection (reopened on next use); one a
        forked child inherited stays open for its parent."""
        if self._pid != os.getpid():
            return
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # ---------------------------------------------------------------- read
    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """The valid stored records among ``keys`` (distinct), in ``keys``
        order; every other key is a miss.

        One ``SELECT`` per :data:`BATCH_KEYS` keys, then one transaction
        that marks every hit as used, so LRU eviction keeps the records
        sweeps actually reach for.  Records come back exactly as stored:
        canonical (sorted keys, lists), ready to deliver.
        """
        keys = list(keys)

        def work(conn: sqlite3.Connection) -> Dict[str, Dict[str, object]]:
            found: Dict[str, Dict[str, object]] = {}
            for chunk in _chunks(keys):
                rows = conn.execute(
                    "SELECT key, schema, record FROM cells "
                    f"WHERE key IN ({_marks(chunk)})",
                    chunk,
                ).fetchall()
                self.selects += 1
                for key, schema, text in rows:
                    if schema != engine_module.ENGINE_SCHEMA:
                        continue
                    try:
                        record = json.loads(text)
                    except (TypeError, ValueError):
                        continue
                    if isinstance(record, dict):
                        found[key] = record
            if found:
                hit_keys = list(found)
                with self._transaction(conn) as generation:
                    for chunk in _chunks(hit_keys):
                        conn.execute(
                            f"UPDATE cells SET used = ? WHERE key IN ({_marks(chunk)})",
                            [generation, *chunk],
                        )
            self.reads += len(keys)
            self.hits += len(found)
            return found

        found = self._run(work)
        return {key: found[key] for key in keys if key in found}

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key``, or ``None`` (a hit counts as use)."""
        return self.get_many([key]).get(key)

    # --------------------------------------------------------------- write
    def put_many(
        self,
        items: Iterable[Tuple[str, Mapping[str, object], Mapping[str, object]]],
    ) -> None:
        """Publish ``(key, cell_payload, record)`` rows in one transaction.

        Readers see all of them or none; an existing row under a key is
        replaced.
        """
        # Encode before taking the lock: an unserialisable record raises
        # here and leaves the store untouched.
        rows = []
        for key, cell_payload, record in items:
            cell_text, record_text = _encode(cell_payload), _encode(record)
            rows.append((key, cell_text, record_text, len(cell_text) + len(record_text)))
        if not rows:
            return

        def work(conn: sqlite3.Connection) -> None:
            with self._transaction(conn) as generation:
                conn.executemany(
                    "INSERT OR REPLACE INTO cells "
                    "(key, schema, cell, record, size, used) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    [
                        (key, engine_module.ENGINE_SCHEMA, cell, record, size, generation)
                        for key, cell, record, size in rows
                    ],
                )
            self.writes += len(rows)

        self._run(work)

    def put(
        self,
        key: str,
        cell_payload: Mapping[str, object],
        record: Mapping[str, object],
    ) -> None:
        """Publish one record (its own transaction)."""
        self.put_many([(key, cell_payload, record)])

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

    # --------------------------------------------------------- maintenance
    def stats(self) -> Dict[str, int]:
        """``{"records", "total_bytes"}`` (an absent store is empty)."""
        if not self.path.exists():
            return {"records": 0, "total_bytes": 0}
        records, total = self._run(
            lambda conn: conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM cells"
            ).fetchone()
        )
        return {"records": records, "total_bytes": total}

    def evict(self, max_bytes: int) -> Dict[str, int]:
        """Delete least-recently-used rows (``ORDER BY used, key``) until
        at most ``max_bytes`` remain; ``{"evicted", "freed_bytes"}``."""
        if max_bytes < 0:
            raise ReproError(f"max_bytes must be >= 0, got {max_bytes}")
        if not self.path.exists():
            return {"evicted": 0, "freed_bytes": 0}

        def work(conn: sqlite3.Connection) -> Dict[str, int]:
            with self._transaction(conn):
                (excess,) = conn.execute(
                    "SELECT COALESCE(SUM(size), 0) - ? FROM cells", (max_bytes,)
                ).fetchone()
                victims: List[str] = []
                freed = 0
                if excess > 0:
                    with closing(conn.execute(
                        "SELECT key, size FROM cells ORDER BY used, key"
                    )) as oldest_first:
                        for key, size in oldest_first:
                            victims.append(key)
                            freed += size
                            if freed >= excess:
                                break
                for chunk in _chunks(victims):
                    conn.execute(
                        f"DELETE FROM cells WHERE key IN ({_marks(chunk)})", chunk
                    )
            return {"evicted": len(victims), "freed_bytes": freed}

        return self._run(work)

    def clear(self) -> int:
        """Delete every row; returns how many there were."""
        if not self.path.exists():
            return 0

        def work(conn: sqlite3.Connection) -> int:
            with self._transaction(conn):
                (count,) = conn.execute("SELECT COUNT(*) FROM cells").fetchone()
                conn.execute("DELETE FROM cells")
            return count

        return self._run(work)

    def counters(self) -> Dict[str, int]:
        return {
            "reads": self.reads,
            "hits": self.hits,
            "writes": self.writes,
            "selects": self.selects,
            "transactions": self.transactions,
        }


__all__ = ["BATCH_KEYS", "RecordStore", "STORE_NAME"]
