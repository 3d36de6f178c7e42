"""Columnar shard encoding for the result store.

A *row* is one evaluated sweep cell: ``(index, cell, record)`` where
``index`` is the cell's position in the submitted sweep, ``cell`` is the
canonical :meth:`SweepCell.payload` dict and ``record`` is the canonical
record produced by ``execute_cell``.  A *shard* packs a bounded run of
rows column-wise:

* every scalar column is a packed :mod:`array` (``q`` for int64, ``d``
  for float64) transported as base64;
* string columns intern their values into a first-appearance table and
  store ``I`` (uint32) indices into it;
* anything non-scalar (budget lists, param pair-lists, nested metrics)
  is canonical-JSON encoded and interned like a string, so repeated
  structures cost one table entry;
* columns with absent values carry a presence bitmap (bit ``i`` set when
  row ``i`` has the value) so sparse record keys stay cheap.

The encoding is lossless by construction: ``decode_rows(encode_shard(R))
== R`` for any list of canonical rows, which is what lets the store act
as a pure transport layer under the byte-identity gates.
"""

import base64
import hashlib
import json
import sys
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Version stamp of the shard/manifest format.  Bump on any change to the
#: column encoding or the manifest layout; readers reject other versions.
RESULTS_SCHEMA = 1

#: ``kind`` tags of the two on-disk JSON documents.
SHARD_KIND = "repro-results-shard"
MANIFEST_KIND = "repro-results-manifest"

#: Column roles: sweep position, cell description, execution record.
ROLES = ("meta", "cell", "record")

#: Every key :meth:`SweepCell.payload` can emit.  The lint invariant
#: ``results-schema-coverage`` checks this tuple against the engine
#: source, so a new payload field breaks the build until the store
#: learns about it.
CELL_FIELDS = (
    "budget",
    "budget_params",
    "co_tasks",
    "contention",
    "metrics",
    "policy",
    "policy_params",
    "seed",
    "workload",
    "workload_params",
)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class _Missing(object):
    """Sentinel for "this row has no value in this column"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


#: Singleton absence marker used between encode/decode helpers.
MISSING = _Missing()


def canonical_json(value: object) -> str:
    """The repo-wide canonical JSON form (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------- primitives


def _pack_array(typecode: str, values: Sequence) -> str:
    arr = array(typecode, values)
    if sys.byteorder == "big":  # normalise to little-endian on disk
        arr.byteswap()
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _unpack_array(typecode: str, blob: str) -> array:
    arr = array(typecode)
    arr.frombytes(base64.b64decode(blob.encode("ascii")))
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _pack_bitmap(present: Sequence[bool]) -> str:
    bits = bytearray((len(present) + 7) // 8)
    for i, flag in enumerate(present):
        if flag:
            bits[i >> 3] |= 1 << (i & 7)
    return base64.b64encode(bytes(bits)).decode("ascii")


def _unpack_bitmap(blob: str, rows: int) -> List[bool]:
    bits = base64.b64decode(blob.encode("ascii"))
    return [bool(bits[i >> 3] & (1 << (i & 7))) for i in range(rows)]


def _classify(values: Iterable[object]) -> str:
    """Pick the narrowest column kind that represents every value exactly.

    ``bool`` is deliberately kicked to ``json`` (it is an ``int``
    subclass, and packing it into ``q`` would decode as ``0``/``1``), as
    are ints outside the int64 range.
    """
    kind = None
    for value in values:
        if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
            candidate = "int"
        elif type(value) is float:
            candidate = "float"
        elif type(value) is str:
            candidate = "str"
        else:
            candidate = "json"
        if kind is None:
            kind = candidate
        elif kind != candidate:
            return "json"
    return kind or "json"


# ------------------------------------------------------- column codecs


def _encode_column(role: str, name: str, cells: List[object]) -> Dict[str, object]:
    """Encode one column (``cells`` has one slot per row, MISSING allowed)."""
    present = [cell is not MISSING for cell in cells]
    values = [cell for cell in cells if cell is not MISSING]
    kind = _classify(values)
    column: Dict[str, object] = {"role": role, "name": name, "kind": kind}
    if kind == "int":
        column["data"] = _pack_array("q", values)
    elif kind == "float":
        column["data"] = _pack_array("d", values)
    else:
        if kind == "json":
            values = [canonical_json(value) for value in values]
        table: List[str] = []
        slots: Dict[str, int] = {}
        indices = []
        for value in values:
            slot = slots.get(value)
            if slot is None:
                slot = slots[value] = len(table)
                table.append(value)
            indices.append(slot)
        column["table"] = table
        column["data"] = _pack_array("I", indices)
    if not all(present):
        column["present"] = _pack_bitmap(present)
    return column


def _interned_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    return {sys.intern(key): value for key, value in pairs}


def _decode_column(column: Dict[str, object], rows: int) -> List[object]:
    """Decode one column back to a per-row list (MISSING where absent)."""
    kind = column["kind"]
    if kind == "int":
        values: List[object] = list(_unpack_array("q", column["data"]))
    elif kind == "float":
        values = list(_unpack_array("d", column["data"]))
    elif kind in ("str", "json"):
        table = column["table"]
        if kind == "str":
            table = [sys.intern(value) for value in table]
        values = [table[slot] for slot in _unpack_array("I", column["data"])]
        if kind == "json":
            values = [
                json.loads(value, object_pairs_hook=_interned_keys)
                for value in values
            ]
    else:
        raise ValueError(f"unknown column kind {kind!r}")
    if "present" in column:
        present = _unpack_bitmap(column["present"], rows)
        it = iter(values)
        return [next(it) if flag else MISSING for flag in present]
    if len(values) != rows:
        raise ValueError(
            f"column {column.get('name')!r} has {len(values)} values "
            f"for {rows} rows and no presence bitmap"
        )
    return values


# ------------------------------------------------------- shard encoding


Row = Tuple[int, Dict[str, object], Dict[str, object]]


def encode_shard(rows: Sequence[Row]) -> Dict[str, object]:
    """Encode rows into a shard document (no I/O; caller persists it)."""
    n = len(rows)
    indices: List[object] = []
    cell_cols: Dict[str, List[object]] = {}
    record_cols: Dict[str, List[object]] = {}
    for position, (index, cell, record) in enumerate(rows):
        indices.append(index)
        for name, value in cell.items():
            column = cell_cols.get(name)
            if column is None:
                if name not in CELL_FIELDS:
                    raise ValueError(
                        f"cell payload field {name!r} not in CELL_FIELDS"
                    )
                column = cell_cols[name] = [MISSING] * n
            column[position] = value
        for name, value in record.items():
            column = record_cols.get(name)
            if column is None:
                column = record_cols[name] = [MISSING] * n
            column[position] = value
    columns = [_encode_column("meta", "index", indices)]
    for name in sorted(cell_cols):
        columns.append(_encode_column("cell", name, cell_cols[name]))
    for name in sorted(record_cols):
        columns.append(_encode_column("record", name, record_cols[name]))
    return {
        "kind": SHARD_KIND,
        "schema": RESULTS_SCHEMA,
        "rows": len(rows),
        "columns": columns,
    }


def shard_checksum(shard: Dict[str, object]) -> str:
    """sha256 over the canonical JSON of a shard document."""
    return hashlib.sha256(canonical_json(shard).encode("utf-8")).hexdigest()


def decode_rows(
    shard: Dict[str, object],
    fields: Optional[Sequence[str]] = None,
) -> List[Row]:
    """Decode a shard document back into ``(index, cell, record)`` rows.

    ``fields`` projects the *record* columns: only record keys named
    there are decoded (cell and meta columns always decode).  ``None``
    decodes everything.
    """
    if shard.get("kind") != SHARD_KIND:
        raise ValueError(f"not a results shard: kind={shard.get('kind')!r}")
    if shard.get("schema") != RESULTS_SCHEMA:
        raise ValueError(
            f"shard schema {shard.get('schema')!r} != {RESULTS_SCHEMA}"
        )
    rows = shard["rows"]
    wanted = None if fields is None else set(fields)
    indices: List[object] = []
    decoded: List[Tuple[str, str, List[object]]] = []
    for column in shard["columns"]:
        role, name = column["role"], column["name"]
        if role == "meta" and name == "index":
            indices = _decode_column(column, rows)
            continue
        if role == "record" and wanted is not None and name not in wanted:
            continue
        # Decoded records hold no copies of repeated strings: column names,
        # string values and the keys of JSON objects are interned, so rows
        # from every shard share them.
        decoded.append((role, sys.intern(name), _decode_column(column, rows)))
    if len(indices) != rows:
        raise ValueError("shard is missing its index column")
    out: List[Row] = []
    for position in range(rows):
        cell: Dict[str, object] = {}
        record: Dict[str, object] = {}
        for role, name, values in decoded:
            value = values[position]
            if value is MISSING:
                continue
            (cell if role == "cell" else record)[name] = value
        out.append((indices[position], cell, record))
    return out


def column_names(shard: Dict[str, object]) -> Dict[str, List[str]]:
    """Map of role -> sorted column names present in a shard document."""
    names: Dict[str, List[str]] = {role: [] for role in ROLES}
    for column in shard["columns"]:
        names[column["role"]].append(column["name"])
    return {role: sorted(found) for role, found in sorted(names.items())}


__all__ = [
    "CELL_FIELDS",
    "MANIFEST_KIND",
    "MISSING",
    "RESULTS_SCHEMA",
    "ROLES",
    "Row",
    "SHARD_KIND",
    "canonical_json",
    "column_names",
    "decode_rows",
    "encode_shard",
    "shard_checksum",
]
