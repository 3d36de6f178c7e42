"""Canonical JSON rows: the result store's shard format.

A *row* is one evaluated sweep cell: ``(index, cell, record)`` where
``index`` is the cell's position in the submitted sweep, ``cell`` is the
canonical :meth:`SweepCell.payload` dict and ``record`` is the canonical
record produced by ``execute_cell``.  A *shard* is a bounded run of rows,
one ``canonical_json([index, cell, record])`` line each, every line ended
by ``\\n``.  Canonical JSON escapes every non-ASCII character and every
control character, so a shard is ASCII and a newline only ever ends a row.

The format is lossless for any JSON value: a decoded row has the
canonical JSON of the row that was encoded, which is what lets the store
act as a pure transport layer under the byte-identity gates.
"""

import json
from json.scanner import make_scanner
from typing import Dict, Iterator, Optional, Sequence, Tuple

#: Version stamp of the shard/manifest format.  Bump on any change to the
#: row encoding or the manifest layout; readers reject other versions.
RESULTS_SCHEMA = 2

Row = Tuple[int, Dict[str, object], Dict[str, object]]

#: One encoder for every call: ``json.dumps`` with keyword arguments
#: builds a fresh ``JSONEncoder`` per call, the same text at a higher cost.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The C scanner under ``json.loads``, called at a row's offset so each
#: row parses in place, with no split of the shard into line strings.
_SCAN = make_scanner(json.JSONDecoder())


def canonical_json(value: object) -> str:
    """The repo-wide canonical JSON form (sorted keys, no whitespace)."""
    return _ENCODER.encode(value)


def encode_row(index: int, cell_text: str, record: Dict[str, object]) -> str:
    """One row's shard line: ``canonical_json([index, cell, record])`` and
    ``\\n``, built around ``cell_text``, the cell payload's canonical JSON
    (a ``SweepCell``'s cached ``payload_text``, or ``canonical_json`` of a
    payload dict)."""
    return f"[{index},{cell_text},{_ENCODER.encode(record)}]\n"


def decode_rows(data: bytes, fields: Optional[Sequence[str]] = None) -> Iterator[Row]:
    """Yield the ``(index, cell, record)`` rows of shard bytes, in order.

    Raises ``ValueError`` at the first line that is not one
    ``[int, dict, dict]`` triple ended by ``\\n`` (rows before it have
    been yielded by then: check the shard's sha256, or drain the
    generator, before trusting any row).  ``fields`` projects the
    *record*: only record keys named there are kept (``None`` keeps all).
    """
    text = data.decode("ascii")
    wanted = None if fields is None else sorted(set(fields))
    position, size = 0, len(text)
    while position < size:
        try:
            row, end = _SCAN(text, position)
        except (StopIteration, ValueError) as error:
            raise ValueError(f"malformed row at byte {position}: {error!r}") from None
        if text[end:end + 1] != "\n":
            raise ValueError(f"the row at byte {position} does not end its line")
        if not (
            type(row) is list
            and len(row) == 3
            and type(row[0]) is int
            and type(row[1]) is dict
            and type(row[2]) is dict
        ):
            raise ValueError(
                f"row at byte {position} is not an [index, cell, record] triple"
            )
        index, cell, record = row
        if wanted is not None:
            record = {key: record[key] for key in wanted if key in record}
        yield index, cell, record
        position = end + 1


__all__ = [
    "RESULTS_SCHEMA",
    "Row",
    "canonical_json",
    "decode_rows",
    "encode_row",
]
