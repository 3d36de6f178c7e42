"""The binary columnar wire codec.

The codec's promise is lossless determinism: any frame or record batch
must round-trip byte-exactly through the envelope (with or without the
adaptive deflate), a payload outside the envelope must be refused, a
result block must stay far smaller than the JSON of its records, and a
worker drain must never drop the result of the batch it was running.  Property tests drive the round-trip claims over adversarial
record shapes (mixed column kinds, unicode, ints beyond int64, absent
keys); the tail-flush claim runs against the real worker loop on
loopback.
"""

import hashlib
import json
import socket
import struct
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import engine as engine_module
from repro.experiments.backends.worker import worker_loop
from repro.experiments.engine import SweepCell, clear_build_memo
from repro.service import wire
from repro.service.frames import (
    BATCH, CELL_RESULT_BLOCK, GOODBYE, RESULT, SHUTDOWN, WELCOME,
)
from repro.service.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.util.validation import ReproError
from tests.fig8_grid import fig8_cells

FAST = {"frames": 2, "scale": 0.4}

#: Minimum factor by which one enveloped ``cell_result_block`` must be
#: smaller than the canonical JSON of the same records.
WIRE_BYTES_THRESHOLD = 3.0

#: The bytes pin tiles the grid's records this many times, so the
#: block's fixed envelope and column headers do not dominate.
WIRE_TILE = 200


def wire_bytes(records):
    """Bytes of ``records`` as one enveloped ``cell_result_block`` frame
    against their canonical JSON -- a pure function of the records."""
    frame = {
        "type": CELL_RESULT_BLOCK,
        "job": 0,
        "block": wire.encode_record_block(list(enumerate(records))),
        "rows": len(records),
    }
    return {
        "json_bytes": len(wire.canonical_json(list(records)).encode("utf-8")),
        "block_bytes": len(wire.encode_binary_frame(frame)),
    }


def small_cells():
    """Four small-but-real cells (1 budget x 2 seeds x 2 policies)."""
    return [
        SweepCell.make((1, 1), seed, policy, workload_params=FAST)
        for seed in (0, 1)
        for policy in ("risc", "mrts")
    ]


@pytest.fixture
def fresh_memo():
    """Empty construction memos around tests that execute real cells
    (not autouse: the codec property tests never build anything, and a
    function-scoped autouse fixture trips hypothesis's health check)."""
    clear_build_memo()
    yield
    clear_build_memo()


# ------------------------------------------------------ value strategies

# Values a canonical record can carry: scalars of every column kind the
# shard codec distinguishes, plus nested JSON structure, plus ints wide
# enough to overflow the packed int64 column.
_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_values = st.recursive(
    _scalars | st.none(),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)
_records = st.dictionaries(st.text(min_size=1, max_size=16), _values, max_size=8)
_indexed = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40), _records),
    max_size=12,
)
_frames = st.dictionaries(st.text(min_size=1, max_size=16), _values, max_size=8)


# ------------------------------------------------------ record blocks


class TestRecordBlock:
    @settings(max_examples=60, deadline=None)
    @given(_indexed)
    def test_round_trip_exact(self, indexed):
        block = wire.encode_record_block(indexed)
        assert wire.decode_record_block(block) == indexed

    @settings(max_examples=30, deadline=None)
    @given(_indexed)
    def test_round_trip_survives_json_transport(self, indexed):
        # Blocks travel inside a JSON frame document: a full serialise /
        # parse of the block must not perturb the decoded rows.
        block = json.loads(json.dumps(wire.encode_record_block(indexed)))
        assert wire.decode_record_block(block) == indexed

    def test_empty_batch(self):
        assert wire.decode_record_block(wire.encode_record_block([])) == []

    def test_unicode_ids_and_big_ints(self):
        rows = [
            (0, {"id": "séquence-☃", "n": 2**80}),
            (1, {"id": "плитка", "n": -(2**80)}),
            (7, {"id": "簡体字", "n": 0}),
        ]
        block = wire.encode_record_block(rows)
        assert wire.decode_record_block(block) == rows

    def test_checksum_mismatch_raises(self):
        block = wire.encode_record_block([(0, {"a": 1})])
        block["checksum"] = "0" * 64
        with pytest.raises(ReproError, match="checksum"):
            wire.decode_record_block(block)

    def test_missing_shard_raises(self):
        with pytest.raises(ReproError, match="shard"):
            wire.decode_record_block({"checksum": "x"})

    def test_block_beats_json_by_bytes_threshold(self, fresh_memo):
        # The wire's bytes gate as a deterministic pin: the quick fig8
        # grid, tiled, as one enveloped cell_result_block against the
        # canonical JSON of the same records.
        cells = fig8_cells(("risc", "mrts"), frames=3)
        records, _built = engine_module.execute_batch(cells)
        sizes = wire_bytes(records * WIRE_TILE)
        assert sizes == wire_bytes(records * WIRE_TILE)
        assert (
            sizes["json_bytes"] >= WIRE_BYTES_THRESHOLD * sizes["block_bytes"]
        )


# ------------------------------------------------------ binary envelope


class TestBinaryFrame:
    @settings(max_examples=60, deadline=None)
    @given(_frames)
    def test_round_trip_exact(self, frame):
        blob = wire.encode_binary_frame(frame)
        (length,) = struct.unpack(">I", blob[:4])
        assert length == len(blob) - 4
        assert wire.decode_blob(blob[4:]) == frame

    def test_compressible_frame_rides_deflated(self):
        frame = {"type": "x", "payload": "abcdef" * 4000}
        blob = wire.encode_binary_blob(frame)
        assert blob[0] == wire.WIRE_MAGIC
        assert blob[1] & wire.FLAG_ZLIB
        assert len(blob) < len(wire.canonical_json(frame))
        assert wire.decode_blob(blob) == frame

    def test_plain_json_payload_rejected(self):
        # One wire: a plain-JSON payload (a protocol-1 peer) is refused
        # with an error naming the v2 requirement, never parsed.
        blob = wire.canonical_json({"type": "hello", "schema": 3}).encode()
        with pytest.raises(ReproError, match="v2"):
            wire.decode_blob(blob)

    def test_truncated_envelope_raises(self):
        with pytest.raises(ReproError, match="envelope"):
            wire.decode_blob(bytes((wire.WIRE_MAGIC,)))

    def test_corrupt_deflate_raises(self):
        blob = bytes((wire.WIRE_MAGIC, wire.FLAG_ZLIB)) + b"not-deflate"
        with pytest.raises(ReproError, match="corrupt"):
            wire.decode_blob(blob)

    def test_non_object_payload_raises(self):
        with pytest.raises(ReproError, match="object"):
            wire.decode_blob(bytes((wire.WIRE_MAGIC, 0)) + b"[1,2,3]")

    def test_oversized_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ReproError, match="exceeds"):
            wire.encode_binary_frame({"pad": hashlib.sha256(b"x").hexdigest()})

    def test_decode_counts_compressed_blocks(self):
        stats = wire.WireStats()
        blob = wire.encode_binary_blob({"pad": "abcdef" * 4000})
        wire.decode_blob(blob, stats)
        assert stats.snapshot()["blocks_compressed"] == 1


class TestAdaptiveCompression:
    def test_small_payloads_ship_raw(self):
        payload = b"x" * (wire.COMPRESS_MIN_BYTES - 1)
        assert wire.maybe_compress(payload) == (0, payload)

    def test_incompressible_payloads_ship_raw(self):
        # Concatenated digests: statistically incompressible, but fully
        # deterministic so the test never flakes.
        payload = b"".join(
            hashlib.sha256(bytes([i])).digest() for i in range(256)
        )
        flags, body = wire.maybe_compress(payload)
        assert flags == 0
        assert body is payload

    def test_compressible_payloads_deflate_round_trip(self):
        payload = b"abcdef" * 10000
        flags, body = wire.maybe_compress(payload)
        assert flags == wire.FLAG_ZLIB
        assert len(body) < len(payload)
        assert zlib.decompress(body) == payload

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=8192))
    def test_deterministic_and_lossless(self, payload):
        first = wire.maybe_compress(payload)
        assert wire.maybe_compress(payload) == first
        flags, body = first
        restored = zlib.decompress(body) if flags & wire.FLAG_ZLIB else body
        assert restored == payload


# -------------------------------------------------- worker drain flush


class TestWorkerTailFlush:
    def test_queued_result_precedes_goodbye_on_shutdown(self, fresh_memo):
        """A SHUTDOWN arriving while the worker still runs its last batch
        must be answered after that batch's result, never drop it."""
        cells = small_cells()[:1]
        expected, _built = engine_module.execute_batch(cells)
        fingerprint = engine_module.library_fingerprint(
            cells[0].workload, cells[0].budget,
            cells[0].workload_params, cells[0].budget_params,
        )
        clear_build_memo()

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = listener.getsockname()
        outcome = {}

        def serve_worker():
            outcome["exit"] = worker_loop(address)

        thread = threading.Thread(target=serve_worker)
        thread.start()
        conn, _ = listener.accept()
        try:
            hello = recv_frame(conn)
            assert hello["protocol"] == PROTOCOL_VERSION
            send_frame(
                conn,
                {
                    "type": WELCOME,
                    "schema": engine_module.ENGINE_SCHEMA,
                    "protocol": PROTOCOL_VERSION,
                    "fingerprints": [],
                },
            )
            # Batch and shutdown land back-to-back in one write: by the
            # time the worker finishes the batch the socket already holds
            # the SHUTDOWN.
            conn.sendall(
                wire.encode_binary_frame(
                    {"type": BATCH, "batch": 0,
                     "fingerprints": [fingerprint],
                     "cells": [cells[0].payload()]}
                )
                + wire.encode_binary_frame({"type": SHUTDOWN})
            )
            result = recv_frame(conn)
            assert result["type"] == RESULT
            rows = wire.decode_record_block(result["block"])
            assert [record for _i, record in rows] == expected
            assert recv_frame(conn)["type"] == GOODBYE
        finally:
            conn.close()
            listener.close()
            thread.join(timeout=30)
        assert outcome["exit"] == 0
