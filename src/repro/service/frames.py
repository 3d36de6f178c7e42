"""The frame-type registry: one source of truth for the wire vocabulary.

Every length-prefixed frame this repo puts on a socket carries a
``"type"`` field.  This module names each type string exactly once and
declares, per directed channel between the three protocol endpoints
(the socket worker, the service daemon and the service client), which
endpoint sends what.  Three consumers import it:

* the runtime dispatch code in
  :mod:`repro.experiments.backends.worker`,
  :mod:`repro.service.daemon` and :mod:`repro.service.client`;
* the static frame-protocol conformance checker
  (:mod:`repro.analysis.deep.conformance`), which verifies that the
  frames each endpoint actually constructs and dispatches on agree with
  the :data:`CHANNELS` table below -- a handler deleted on one side of
  the wire turns the ``repro analyze`` gate red;
* the protocol table in ``docs/service.md``, which documents the same
  vocabulary (and is checked against this module by the docs test).

Changing the wire protocol therefore means editing this file; the
checker then forces every endpoint to catch up before CI goes green.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

# --------------------------------------------------------- the vocabulary

#: Handshake: first frame on every connection, either direction's opener.
HELLO = "hello"
#: Handshake accepted; carries schema/protocol and known fingerprints.
WELCOME = "welcome"
#: Handshake or job refused; carries a human-readable ``reason``.
REJECT = "reject"

#: Daemon -> worker: one batch of sweep-cell payloads, with the
#: fingerprint of each library the batch spans.
BATCH = "batch"
#: Worker -> daemon: the records of one finished batch, as a block.
RESULT = "result"
#: Either direction: something went wrong with one frame/batch.
ERROR = "error"
#: Daemon -> worker: stop serving and exit cleanly.
SHUTDOWN = "shutdown"
#: Worker/client -> daemon: clean goodbye before closing.
GOODBYE = "goodbye"

#: Client -> daemon: submit a job (a list of sweep-cell payloads).
JOB = "job"
#: Daemon -> client: the job was accepted; carries its id.
JOB_ACCEPTED = "job_accepted"
#: Daemon -> client: a coalesced run of finished cells as one columnar
#: block (``repro.service.wire``), streamed as they resolve.
CELL_RESULT_BLOCK = "cell_result_block"
#: Daemon -> client: every cell of the job resolved; carries counters.
JOB_DONE = "job_done"
#: Daemon -> client: the job cannot finish; carries a message.
JOB_FAILED = "job_failed"

#: Either -> daemon: look one record up in the shared store.
CACHE_GET = "cache_get"
#: Daemon -> asker: the record (``cache_get`` succeeded).
CACHE_HIT = "cache_hit"
#: Daemon -> asker: no such record.
CACHE_MISS = "cache_miss"
#: Either -> daemon: publish one record into the shared store.
CACHE_PUT = "cache_put"
#: Daemon -> asker: the record was verified and stored.
CACHE_OK = "cache_ok"

#: Every frame type any endpoint may put on the wire.
FRAME_TYPES = frozenset(
    {
        HELLO, WELCOME, REJECT,
        BATCH, RESULT, ERROR, SHUTDOWN, GOODBYE,
        JOB, JOB_ACCEPTED, CELL_RESULT_BLOCK, JOB_DONE, JOB_FAILED,
        CACHE_GET, CACHE_HIT, CACHE_MISS, CACHE_PUT, CACHE_OK,
    }
)

# ------------------------------------------------------------- the table


@dataclass(frozen=True)
class Channel:
    """One directed edge of the protocol: ``sender`` sends ``sends`` to
    ``receiver``, who must dispatch on every one of them."""

    sender: str
    receiver: str
    sends: frozenset

    @property
    def name(self) -> str:
        return f"{self.sender}->{self.receiver}"


#: Endpoint name -> source file suffixes implementing it.  The
#: conformance checker extracts sent/handled frame types from exactly
#: these modules; anything else touching the codec is a transport shim.
ENDPOINT_PATHS: Dict[str, Tuple[str, ...]] = {
    "worker": ("experiments/backends/worker.py",),
    "daemon": ("service/daemon.py",),
    "client": (
        "service/client.py",
        "experiments/backends/service.py",
    ),
}

#: The complete directed protocol.  A frame type an endpoint constructs
#: but that no channel declares -- or a declared type the peer does not
#: dispatch on -- is a conformance finding.
CHANNELS: Tuple[Channel, ...] = (
    Channel(
        "daemon", "worker",
        frozenset({WELCOME, REJECT, BATCH, SHUTDOWN}),
    ),
    Channel(
        "worker", "daemon",
        frozenset({HELLO, RESULT, ERROR, GOODBYE}),
    ),
    Channel(
        "daemon", "client",
        frozenset({
            WELCOME, REJECT, JOB_ACCEPTED, CELL_RESULT_BLOCK, JOB_DONE,
            JOB_FAILED, CACHE_HIT, CACHE_MISS, CACHE_OK, ERROR,
        }),
    ),
    Channel(
        "client", "daemon",
        frozenset({HELLO, JOB, CACHE_GET, CACHE_PUT, GOODBYE}),
    ),
)

#: Request -> acceptable terminal responses, travelling the reverse
#: direction of the channel that carried the request.
PAIRINGS: Dict[str, Tuple[str, ...]] = {
    HELLO: (WELCOME, REJECT),
    BATCH: (RESULT, ERROR),
    JOB: (JOB_ACCEPTED, REJECT),
    CACHE_GET: (CACHE_HIT, CACHE_MISS),
    CACHE_PUT: (CACHE_OK, ERROR),
}


def declared_outgoing(endpoint: str) -> frozenset:
    """Union of frame types ``endpoint`` sends on any channel."""
    types = set()
    for channel in CHANNELS:
        if channel.sender == endpoint:
            types |= channel.sends
    return frozenset(types)


def declared_incoming(endpoint: str) -> frozenset:
    """Union of frame types any peer sends to ``endpoint``."""
    types = set()
    for channel in CHANNELS:
        if channel.receiver == endpoint:
            types |= channel.sends
    return frozenset(types)


__all__ = [
    "BATCH",
    "CACHE_GET",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_OK",
    "CACHE_PUT",
    "CELL_RESULT_BLOCK",
    "CHANNELS",
    "Channel",
    "ENDPOINT_PATHS",
    "ERROR",
    "FRAME_TYPES",
    "GOODBYE",
    "HELLO",
    "JOB",
    "JOB_ACCEPTED",
    "JOB_DONE",
    "JOB_FAILED",
    "PAIRINGS",
    "REJECT",
    "RESULT",
    "SHUTDOWN",
    "WELCOME",
    "declared_incoming",
    "declared_outgoing",
]
