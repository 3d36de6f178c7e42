"""Binary columnar wire codec for the socket transports.

Every frame on a socket is a 4-byte big-endian length prefix followed
by one payload in this module's envelope:

* ``encode_binary_frame`` wraps a frame document in a two-byte envelope
  (``WIRE_MAGIC`` + flags) and, when the adaptive heuristic says the
  payload is compressible, deflates it with :mod:`zlib`;
* ``decode_blob`` accepts only that envelope: a payload without the
  magic byte (a plain-JSON frame from a protocol-1 peer) is refused;
* ``encode_record_block`` / ``decode_record_block`` pack a run of
  ``(index, record)`` pairs column-wise through the result store's
  shard codec (:mod:`repro.results.schema`): interned strings, packed
  int64/float64 arrays, presence bitmaps, and a checksum verified on
  decode.

The codec is deterministic end to end: zlib at a fixed level, the
sampled-ratio heuristic keyed only on payload bytes, and the shard
codec's lossless round-trip -- which is what lets the transport sit
under the byte-identity determinism gates unchanged.
"""

import json
import select
import socket
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.results.schema import (
    canonical_json,
    decode_rows,
    encode_shard,
    shard_checksum,
)
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

#: Coalescing flush threshold: buffered result bytes beyond this are
#: flushed even mid-batch so peers see progress on huge sweeps.
COALESCE_FLUSH_BYTES = 256 * 1024

#: Daemon-side block coalescing: buffered (index, record) rows beyond
#: this flush as a cell_result_block even before the batch boundary.
COALESCE_FLUSH_ROWS = 4096


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
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "frames_coalesced": self.frames_coalesced,
            "blocks_compressed": self.blocks_compressed,
        }


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
    """Pack ``(index, record)`` pairs into a checksummed columnar block.

    Reuses the result store's shard codec with an empty cell dict per
    row -- the wire only needs to move records; indices recover the
    sweep positions on the far side.
    """
    shard = encode_shard([(index, {}, record) for index, record in indexed_records])
    return {"shard": shard, "checksum": shard_checksum(shard)}


def decode_record_block(
    block: Dict[str, object],
) -> List[Tuple[int, Dict[str, object]]]:
    """Inverse of :func:`encode_record_block`; verifies the checksum."""
    shard = block.get("shard")
    if not isinstance(shard, dict):
        raise ReproError("record block is missing its shard document")
    expected = block.get("checksum")
    if expected is not None and shard_checksum(shard) != expected:
        raise ReproError("record block checksum mismatch")
    return [(index, record) for index, _cell, record in decode_rows(shard)]


def data_ready(sock: socket.socket, timeout: float = 0.0) -> bool:
    """True when ``sock`` has bytes waiting (non-blocking peek).

    The worker's coalescing sender uses this Nagle-style: when the
    socket already holds the next frame there may be more output to
    batch with, so the flush waits until the inbound side goes idle.
    """
    ready, _, _ = select.select([sock], [], [], timeout)
    return bool(ready)


class FrameSender:
    """Coalescing frame sender for the blocking socket endpoints.

    Encoded frames queue until :meth:`flush` joins them into a single
    ``sendall`` -- one syscall and one TCP push for a run of result
    frames instead of one each.  Queue order is send order, so callers
    route *every* outbound frame through the sender (control frames
    included, followed by an explicit flush) to keep the stream ordered.
    """

    __slots__ = ("_sock", "_pending", "_pending_bytes", "_stats")

    def __init__(
        self, sock: socket.socket, stats: Optional[WireStats] = None
    ) -> None:
        self._sock = sock
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self._stats = stats

    @property
    def pending(self) -> int:
        """Number of queued-but-unsent frames."""
        return len(self._pending)

    def queue(self, wire_bytes: bytes) -> None:
        """Queue one fully-encoded frame; auto-flush past the threshold."""
        self._pending.append(wire_bytes)
        self._pending_bytes += len(wire_bytes)
        if self._pending_bytes >= COALESCE_FLUSH_BYTES:
            self.flush()

    def flush(self) -> None:
        """Write every queued frame in one ``sendall``."""
        if not self._pending:
            return
        coalesced = len(self._pending) - 1
        blob = b"".join(self._pending)
        self._pending = []
        self._pending_bytes = 0
        self._sock.sendall(blob)
        if self._stats is not None:
            self._stats.add("bytes_sent", len(blob))
            if coalesced:
                self._stats.add("frames_coalesced", coalesced)


__all__ = [
    "COALESCE_FLUSH_BYTES",
    "COALESCE_FLUSH_ROWS",
    "COMPRESS_LEVEL",
    "COMPRESS_MIN_BYTES",
    "COMPRESS_SAMPLE_BYTES",
    "COMPRESS_SAMPLE_RATIO",
    "FLAG_ZLIB",
    "FrameSender",
    "MAX_FRAME_BYTES",
    "WIRE_MAGIC",
    "WireStats",
    "data_ready",
    "decode_blob",
    "decode_record_block",
    "encode_binary_blob",
    "encode_binary_frame",
    "encode_record_block",
    "maybe_compress",
]
