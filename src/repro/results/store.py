"""Append-only result store of JSON rows: streaming writer, streaming reader.

On-disk layout (everything atomic-rename published)::

    <root>/                          # e.g. .repro_results/
        index.json                   # advisory sidecar: {sweep: [rows, bytes]}
        <sweep>/                     # one directory per stored sweep
            shard-000000.json        # one canonical JSON row per line
            shard-000001.json        #   (schema.encode_row)
            manifest.json            # written last == commit point

The manifest is the commit point: a crash mid-write leaves shards
without a manifest, and :class:`ResultReader` either refuses the sweep
(default) or rebuilds a manifest from the surviving intact shards
(``recover=True``), mirroring how the ``.repro_cache`` treats corrupt
records as misses rather than trusting them.  Each manifest entry holds
the sha256 of its shard's bytes, which the reader checks before it
parses a row.

:class:`ResultWriter` encodes each row as it arrives and holds at most
``shard_rows`` encoded lines; every full buffer is spilled, which is what
keeps sweep-side memory O(1) in cell count.  :class:`ResultReader` reads
one shard at a time for the same reason, and its fold/group-fold helpers
never build a row list.
"""

import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.results.schema import (
    RESULTS_SCHEMA,
    Row,
    canonical_json,
    decode_rows,
    encode_row,
)
from repro.util.validation import ReproError

#: ``kind`` tag of the manifest document.
MANIFEST_KIND = "repro-results-manifest"

#: Default store root, next to ``.repro_cache`` (git-ignored).
DEFAULT_STORE_DIR = ".repro_results"

#: Default rows buffered per shard before spilling to disk.
DEFAULT_SHARD_ROWS = 512

#: Version stamp of the advisory root index document.
STORE_INDEX_SCHEMA = 1


class ResultStoreError(ReproError):
    """A result store operation failed (corrupt, missing, or mismatched)."""


def _write_atomic(path: str, data: bytes) -> int:
    """Publish ``data`` at ``path`` via mkstemp + rename; return its size."""
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp creates the file 0600; a published file is readable by
        # every user who can list its directory.
        os.chmod(tmp_path, 0o644)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(data)


def _shard_entry(name: str, rows: int, data: bytes) -> Dict[str, object]:
    """The manifest entry of a shard holding ``rows`` rows as ``data``."""
    return {
        "name": name,
        "rows": rows,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


# ------------------------------------------------------- advisory index


def _index_path(root: str) -> str:
    return os.path.join(root, "index.json")


def _load_store_index(root: str) -> Dict[str, List[int]]:
    try:
        with open(_index_path(root), "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("schema") != STORE_INDEX_SCHEMA:
        return {}
    entries = data.get("sweeps")
    return entries if isinstance(entries, dict) else {}


def _index_record(root: str, sweep: str, rows: int, size: int) -> None:
    """Fold one finished sweep into the advisory root index (best effort)."""
    entries = _load_store_index(root)
    entries[sweep] = [rows, size]
    try:
        _write_atomic(
            _index_path(root),
            canonical_json(
                {"schema": STORE_INDEX_SCHEMA, "sweeps": entries}
            ).encode("utf-8"),
        )
    except OSError:
        pass  # advisory only: a reader falls back to scanning


def list_sweeps(root: str) -> List[str]:
    """Names of committed sweeps under ``root`` (manifest present), sorted."""
    if not os.path.isdir(root):
        return []
    found = []
    for name in sorted(os.listdir(root)):
        if os.path.isfile(os.path.join(root, name, "manifest.json")):
            found.append(name)
    return found


# --------------------------------------------------------------- writer


class ResultWriter(object):
    """Streams ``(index, cell, record)`` rows into JSON-row shards.

    Usage (also a context manager; ``close`` commits, an exception path
    leaves an uncommitted sweep the reader will reject)::

        writer = ResultWriter(".repro_results")
        for index, cell, record in rows:
            writer.append(index, cell, record)
        path = writer.close(engine_stats={...})

    ``sweep`` names the sub-directory; ``None`` auto-allocates a unique
    ``sweep-*`` name (safe under concurrent writers sharing one root).
    """

    def __init__(
        self,
        root: str,
        sweep: Optional[str] = None,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if shard_rows < 1:
            raise ResultStoreError(f"shard_rows must be >= 1, got {shard_rows}")
        os.makedirs(root, exist_ok=True)
        self.root = root
        if sweep is None:
            path = tempfile.mkdtemp(prefix="sweep-", dir=root)
            os.chmod(path, 0o755)
            sweep = os.path.basename(path)
        else:
            os.makedirs(os.path.join(root, sweep), exist_ok=True)
        self.sweep = sweep
        self.path = os.path.join(root, sweep)
        self.shard_rows = shard_rows
        self.meta = dict(meta) if meta else {}
        self.rows = 0
        self._lines: List[str] = []
        self._shards: List[Dict[str, object]] = []
        self._closed = False

    # -- streaming sink ------------------------------------------------

    def append(self, index: int, cell: Dict[str, object], record: Dict[str, object]) -> None:
        """Append one evaluated cell; spills a shard when the buffer fills."""
        self._add(encode_row(index, canonical_json(cell), record))

    def sink(self, index: int, cell: object, record: Dict[str, object]) -> None:
        """`SweepEngine.run_streamed` sink: accepts a SweepCell (its cached
        ``payload_text`` goes into the row as is) or a payload dict."""
        text = canonical_json(cell) if isinstance(cell, dict) else cell.payload_text
        self._add(encode_row(index, text, record))

    def _add(self, line: str) -> None:
        if self._closed:
            raise ResultStoreError("append() on a closed ResultWriter")
        self._lines.append(line)
        self.rows += 1
        if len(self._lines) >= self.shard_rows:
            self._flush()

    def _flush(self) -> None:
        if not self._lines:
            return
        data = "".join(self._lines).encode("ascii")
        name = f"shard-{len(self._shards):06d}.json"
        _write_atomic(os.path.join(self.path, name), data)
        self._shards.append(_shard_entry(name, len(self._lines), data))
        self._lines = []

    # -- commit --------------------------------------------------------

    def close(self, engine_stats: Optional[Dict[str, object]] = None) -> str:
        """Flush, write the manifest (the commit point), return sweep path."""
        if self._closed:
            return self.path
        self._flush()
        manifest = {
            "kind": MANIFEST_KIND,
            "schema": RESULTS_SCHEMA,
            "sweep": self.sweep,
            "rows": self.rows,
            "shard_rows": self.shard_rows,
            "shards": self._shards,
            "meta": self.meta,
            "engine_stats": engine_stats or {},
        }
        size = _write_atomic(
            os.path.join(self.path, "manifest.json"),
            canonical_json(manifest).encode("utf-8"),
        )
        size += sum(entry["bytes"] for entry in self._shards)
        _index_record(self.root, self.sweep, self.rows, size)
        self._closed = True
        return self.path

    def __enter__(self) -> "ResultWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


# --------------------------------------------------------------- reader


class ResultReader(object):
    """Streams rows back out of a committed sweep, one shard at a time.

    ``path`` is a sweep directory (``<root>/<sweep>``).  Without a
    manifest the sweep is uncommitted and rejected; ``recover=True``
    instead rebuilds a best-effort manifest from every intact shard
    (corrupt or truncated shards are skipped, never trusted), which is
    the crash-mid-write recovery path.
    """

    def __init__(self, path: str, recover: bool = False) -> None:
        self.path = path
        self.recovered_from: List[str] = []
        manifest_path = os.path.join(path, "manifest.json")
        manifest = self._load_json(manifest_path)
        if manifest is None:
            if not recover:
                raise ResultStoreError(
                    f"no committed manifest at {manifest_path} "
                    "(uncommitted sweep; pass recover=True to salvage shards)"
                )
            manifest = self._recover()
        self._validate(manifest)
        self.manifest = manifest

    @staticmethod
    def _load_json(path: str) -> Optional[Dict[str, object]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _validate(self, manifest: Dict[str, object]) -> None:
        if manifest.get("kind") != MANIFEST_KIND:
            raise ResultStoreError(
                f"{self.path}: not a results manifest "
                f"(kind={manifest.get('kind')!r})"
            )
        if manifest.get("schema") != RESULTS_SCHEMA:
            raise ResultStoreError(
                f"{self.path}: manifest schema {manifest.get('schema')!r} "
                f"does not match reader schema {RESULTS_SCHEMA} "
                "(regenerate the sweep or upgrade the reader)"
            )

    def _recover(self) -> Dict[str, object]:
        """Rebuild a manifest from intact shards of an uncommitted sweep."""
        shards = []
        if not os.path.isdir(self.path):
            raise ResultStoreError(f"no such sweep directory: {self.path}")
        for name in sorted(os.listdir(self.path)):
            if not (name.startswith("shard-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.path, name), "rb") as handle:
                    data = handle.read()
                rows = sum(1 for _ in decode_rows(data, fields=()))
            except (OSError, ValueError):
                self.recovered_from.append(f"skipped corrupt shard {name}")
                continue
            shards.append(_shard_entry(name, rows, data))
            self.recovered_from.append(f"recovered shard {name}")
        return {
            "kind": MANIFEST_KIND,
            "schema": RESULTS_SCHEMA,
            "sweep": os.path.basename(self.path),
            "rows": sum(entry["rows"] for entry in shards),
            "shard_rows": 0,
            "shards": shards,
            "meta": {"recovered": True},
            "engine_stats": {},
        }

    # -- manifest accessors --------------------------------------------

    @property
    def rows(self) -> int:
        """Total committed row count."""
        return self.manifest["rows"]

    @property
    def engine_stats(self) -> Dict[str, object]:
        """The ``EngineStats.engine_payload()`` stored at commit time."""
        return self.manifest.get("engine_stats", {})

    # -- streaming access ----------------------------------------------

    def iter_rows(
        self, fields: Optional[Sequence[str]] = None
    ) -> Iterator[Row]:
        """Yield ``(index, cell, record)`` rows in stored order.

        Each shard's sha256 is checked before any of its rows is parsed.
        ``fields`` projects the records: only those record keys are kept,
        which keeps the rows of a wide sweep small while they are folded.
        """
        for entry in self.manifest["shards"]:
            shard_path = os.path.join(self.path, entry["name"])
            try:
                with open(shard_path, "rb") as handle:
                    data = handle.read()
            except OSError:
                raise ResultStoreError(f"unreadable shard {shard_path}")
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                raise ResultStoreError(
                    f"checksum mismatch on {shard_path} "
                    "(shard modified after commit?)"
                )
            yield from decode_rows(data, fields=fields)

    def iter_column(self, name: str) -> Iterator[object]:
        """Yield one record key's value per row (rows lacking it skip)."""
        for _, _, record in self.iter_rows(fields=(name,)):
            if name in record:
                yield record[name]

    # -- streamed aggregation ------------------------------------------

    def fold(self, fn: Callable, init: object, fields: Optional[Sequence[str]] = None) -> object:
        """``functools.reduce`` over rows without materialising them."""
        acc = init
        for row in self.iter_rows(fields=fields):
            acc = fn(acc, row)
        return acc

    def group_fold(
        self,
        key: Callable[[Row], object],
        fn: Callable,
        init: Callable[[], object],
        fields: Optional[Sequence[str]] = None,
    ) -> Dict:
        """Streamed group-by: fold each row into its group's accumulator.

        Memory is O(groups), never O(rows) — the KPI layer's workhorse.
        """
        groups: Dict = {}
        for row in self.iter_rows(fields=fields):
            group = key(row)
            if group not in groups:
                groups[group] = init()
            groups[group] = fn(groups[group], row)
        return groups

    # -- convenience ---------------------------------------------------

    def records_by_index(self) -> Dict[int, Dict[str, object]]:
        """Materialise ``{sweep index: record}`` (tests and small sweeps)."""
        return {index: record for index, _, record in self.iter_rows()}


def store_stats(root: str) -> Dict[str, object]:
    """Summarise a store root from its advisory index (rescans if stale)."""
    sweeps = list_sweeps(root)
    index = _load_store_index(root)
    source = "index" if sorted(index) == sweeps else "scan"
    entries = {}
    total_rows = 0
    total_bytes = 0
    for sweep in sweeps:
        if source == "index":
            rows, size = index[sweep]
        else:
            reader = ResultReader(os.path.join(root, sweep))
            rows = reader.rows
            size = sum(e["bytes"] for e in reader.manifest["shards"])
            size += os.path.getsize(os.path.join(root, sweep, "manifest.json"))
        entries[sweep] = {"rows": rows, "bytes": size}
        total_rows += rows
        total_bytes += size
    return {
        "root": root,
        "source": source,
        "sweeps": entries,
        "total_rows": total_rows,
        "total_bytes": total_bytes,
    }


__all__ = [
    "DEFAULT_SHARD_ROWS",
    "DEFAULT_STORE_DIR",
    "ResultReader",
    "ResultStoreError",
    "ResultWriter",
    "STORE_INDEX_SCHEMA",
    "list_sweeps",
    "store_stats",
]
