"""The length-prefixed frame codec, on both socket transports.

Every frame is a 4-byte big-endian length followed by one payload in
the binary envelope of :mod:`repro.service.wire` (magic + flags +
optionally-deflated canonical JSON) -- the handshake included.  Two
transports share it:

* :func:`send_frame` / :func:`recv_frame` on a blocking socket, used by
  the socket workers (``python -m repro worker``) and
  :class:`~repro.service.client.ServiceClient`;
* :func:`read_frame` / :func:`write_frame` on an
  ``asyncio.StreamReader/Writer``, used by the
  :class:`~repro.service.daemon.SweepService` daemon.

Both reach the codec through the ``wire`` module attribute, so a
tracer that patches :mod:`repro.service.wire` sees every frame.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Optional, Tuple

from repro.service import wire
from repro.util.validation import ReproError

#: Bump when the frame vocabulary or encoding changes incompatibly; the
#: handshake rejects a peer that sends any other value.  Version 2 put the
#: binary envelope on every frame; version 3 drops the client's per-block
#: ``wire_ack`` and has a ``batch`` carry one library fingerprint per
#: library it spans (a version-2 worker would check only the first);
#: version 4 sends record blocks as plain rows, not columnar shards.
PROTOCOL_VERSION = 4

#: Hard per-frame ceiling -- a corrupt length prefix must not allocate
#: GBs.  Defined by the wire codec.
MAX_FRAME_BYTES = wire.MAX_FRAME_BYTES

#: Handshake / connect socket timeout (seconds).  Liveness only: no value
#: derived from it ever reaches a record.
HANDSHAKE_TIMEOUT = 30.0


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ReproError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES} limit"
        )


# ------------------------------------------------------- blocking sockets


def dial(address: Tuple[str, int], timeout: float) -> socket.socket:
    """Connect a blocking socket to ``address`` (``OSError`` when that
    fails) and leave it without a timeout, for frames that may wait on a
    long job.

    ``TCP_NODELAY`` is set: every frame is one ``sendall`` that its peer
    waits for, so Nagle's algorithm could only hold a small frame back
    until the peer's delayed ACK of the previous one, 40 ms on Linux.
    """
    sock = socket.create_connection(tuple(address), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return sock


def send_frame(
    sock: socket.socket,
    obj,
    stats: Optional[wire.WireStats] = None,
) -> None:
    """Write one frame (blocking)."""
    blob = wire.encode_binary_frame(obj)
    sock.sendall(blob)
    if stats is not None:
        stats.add("bytes_sent", len(blob))
        if blob[5] & wire.FLAG_ZLIB:
            stats.add("blocks_compressed", 1)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 65536))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, stats: Optional[wire.WireStats] = None
):
    """Read one frame (blocking)."""
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    _check_length(length)
    blob = _recv_exact(sock, length)
    if stats is not None:
        stats.add("bytes_received", 4 + length)
    return wire.decode_blob(blob, stats)


def parse_address(address: Optional[str]) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; ``None`` means ephemeral loopback."""
    if address is None:
        return ("127.0.0.1", 0)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"coordinator address {address!r} must look like host:port"
        )
    try:
        return (host, int(port))
    except ValueError:
        raise ReproError(f"coordinator port {port!r} is not an integer")


# ------------------------------------------------------------ asyncio


async def read_frame(reader: asyncio.StreamReader):
    """Read one frame from a stream.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes
    mid-frame and :class:`~repro.util.validation.ReproError` on a length
    prefix beyond :data:`MAX_FRAME_BYTES` (a corrupt prefix must not
    allocate gigabytes) or a payload outside the binary envelope.
    """
    header = await reader.readexactly(4)
    (length,) = struct.unpack(">I", header)
    _check_length(length)
    return wire.decode_blob(await reader.readexactly(length))


async def write_frame(writer: asyncio.StreamWriter, obj) -> None:
    """Write one frame and drain.

    The whole frame goes through a single ``writer.write`` call, so
    concurrent tasks writing to the same peer never interleave partial
    frames -- per-connection locks are unnecessary.
    """
    writer.write(wire.encode_binary_frame(obj))
    await writer.drain()


__all__ = [
    "HANDSHAKE_TIMEOUT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "dial",
    "parse_address",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
]
