"""Binary wire codec for the socket transports.

Every frame on a socket is a 4-byte big-endian length prefix followed
by one payload in this module's envelope:

* ``encode_binary_frame`` wraps a frame document in a two-byte envelope
  (``WIRE_MAGIC`` + flags) and, when the adaptive heuristic says the
  payload is compressible, deflates it with :mod:`zlib`;
* ``decode_blob`` accepts only that envelope: a payload without the
  magic byte (a plain-JSON frame from a protocol-1 peer) is refused;
* ``encode_record_block`` / ``decode_record_block`` carry ``(index,
  record)`` pairs as plain ``[index, record]`` rows, which the deflate
  compresses; the decode interns keys and short strings, so records
  kept from many blocks share them.

The codec is deterministic end to end -- canonical JSON, zlib at a fixed
level, the sampled-ratio heuristic keyed only on payload bytes -- which
is what lets the transport sit under the byte-identity determinism
gates unchanged.  TCP (and deflate's adler32) guards the bytes in transit.
"""

import json
import struct
import sys
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.results.schema import canonical_json
from repro.util.validation import ReproError

#: Hard ceiling on a single frame payload.
#: 64 MiB of canonical JSON is far beyond any sane batch; anything
#: larger indicates a corrupt or hostile stream.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First payload byte of every frame.  0xC0 can never start a JSON text
#: (it is not even a valid UTF-8 lead byte for a two-byte sequence that
#: JSON would produce unescaped), so a plain-JSON frame is told apart by
#: its first byte.
WIRE_MAGIC = 0xC0

#: Envelope flag bit: payload body is zlib-deflated.
FLAG_ZLIB = 0x01

#: Fixed deflate level -- determinism requires one level everywhere.
COMPRESS_LEVEL = 6

#: Payloads below this size are never worth a deflate round-trip.
COMPRESS_MIN_BYTES = 512

#: The heuristic probes at most this prefix of the payload.
COMPRESS_SAMPLE_BYTES = 4096

#: Sampled ratio (probe / sample) above which the payload is judged
#: incompressible and shipped raw.
COMPRESS_SAMPLE_RATIO = 0.9

#: Daemon-side block coalescing: buffered (index, record) rows beyond
#: this flush as a cell_result_block even before the batch boundary.
COALESCE_FLUSH_ROWS = 4096

#: Decoded string values up to this length are interned (policy and
#: workload names, budget labels); longer ones are left as parsed.
INTERN_MAX_CHARS = 64


class WireStats:
    """Transport counters of one blocking endpoint (a
    :class:`~repro.service.client.ServiceClient` connection, which one
    thread drives at a time)."""

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "frames_coalesced",
        "blocks_compressed",
    )

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_coalesced = 0
        self.blocks_compressed = 0

    def add(self, name: str, amount: int) -> None:
        setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def maybe_compress(payload: bytes) -> Tuple[int, bytes]:
    """Adaptively deflate ``payload``; returns ``(flags, body)``.

    A cheap probe deflates a bounded sample at the lowest level; only
    when the sampled ratio clears :data:`COMPRESS_SAMPLE_RATIO` is the
    full payload compressed, and even then the raw bytes win ties.
    Everything here is a pure function of ``payload``, keeping the
    stream deterministic.
    """
    if len(payload) < COMPRESS_MIN_BYTES:
        return 0, payload
    sample = payload[:COMPRESS_SAMPLE_BYTES]
    probe = zlib.compress(sample, 1)
    if len(probe) > len(sample) * COMPRESS_SAMPLE_RATIO:
        return 0, payload
    packed = zlib.compress(payload, COMPRESS_LEVEL)
    if len(packed) >= len(payload):
        return 0, payload
    return FLAG_ZLIB, packed


def encode_binary_blob(frame: Dict[str, object]) -> bytes:
    """Envelope + (possibly deflated) canonical JSON, without the
    length prefix."""
    payload = canonical_json(frame).encode("utf-8")
    flags, body = maybe_compress(payload)
    return bytes((WIRE_MAGIC, flags)) + body


def encode_binary_frame(frame: Dict[str, object]) -> bytes:
    """Full wire bytes (length prefix included) for a binary frame."""
    blob = encode_binary_blob(frame)
    if len(blob) > MAX_FRAME_BYTES:
        raise ReproError(
            f"frame of {len(blob)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return struct.pack(">I", len(blob)) + blob


def decode_blob(blob: bytes, stats: Optional[WireStats] = None) -> Dict:
    """Decode one frame payload: check the envelope, inflate if flagged,
    parse the JSON object."""
    if blob[:1] != bytes((WIRE_MAGIC,)):
        raise ReproError(
            "frame payload lacks the binary envelope: wire protocol v2 "
            "requires it on every frame"
        )
    if len(blob) < 2:
        raise ReproError("binary frame shorter than its envelope")
    flags = blob[1]
    body = blob[2:]
    if flags & FLAG_ZLIB:
        if stats is not None:
            stats.add("blocks_compressed", 1)
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise ReproError(f"corrupt deflated frame: {exc}") from exc
        if len(body) > MAX_FRAME_BYTES:
            raise ReproError(
                f"inflated frame of {len(body)} bytes exceeds limit "
                f"{MAX_FRAME_BYTES}"
            )
    frame = json.loads(body.decode("utf-8"))
    if not isinstance(frame, dict):
        raise ReproError("frame payload is not a JSON object")
    return frame


def encode_record_block(
    indexed_records: Sequence[Tuple[int, Dict[str, object]]],
) -> Dict[str, object]:
    """Pack ``(index, record)`` pairs into a block of plain rows; the
    indices recover the sweep positions on the far side."""
    return {"rows": [[index, record] for index, record in indexed_records]}


def _interned(value: object) -> object:
    """``value`` with every dict key and every short string interned."""
    kind = type(value)
    if kind is dict:
        return {sys.intern(key): _interned(item) for key, item in value.items()}
    if kind is list:
        return [_interned(item) for item in value]
    if kind is str and len(value) <= INTERN_MAX_CHARS:
        return sys.intern(value)
    return value


def decode_record_block(block: object) -> List[Tuple[int, Dict[str, object]]]:
    """Inverse of :func:`encode_record_block`; :class:`ReproError` for a
    block without ``rows`` or a row that is not an ``[int, dict]`` pair."""
    rows = block.get("rows") if isinstance(block, dict) else None
    if not isinstance(rows, list):
        raise ReproError("record block carries no rows")
    for row in rows:
        if not (type(row) is list and len(row) == 2
                and type(row[0]) is int and type(row[1]) is dict):
            raise ReproError(
                f"record block row is not an [index, record] pair: {row!r:.80}"
            )
    return [(index, _interned(record)) for index, record in rows]


__all__ = [
    "COALESCE_FLUSH_ROWS",
    "COMPRESS_LEVEL",
    "COMPRESS_MIN_BYTES",
    "COMPRESS_SAMPLE_BYTES",
    "COMPRESS_SAMPLE_RATIO",
    "FLAG_ZLIB",
    "INTERN_MAX_CHARS",
    "MAX_FRAME_BYTES",
    "WIRE_MAGIC",
    "WireStats",
    "decode_blob",
    "decode_record_block",
    "encode_binary_blob",
    "encode_binary_frame",
    "encode_record_block",
    "maybe_compress",
]
