"""The socket worker loop (and its ``python -m`` entry point).

A worker dials the ``repro serve`` daemon, handshakes (its
:data:`ENGINE_SCHEMA` and protocol version must match, or it is
rejected), then serves batch frames until told to shut down.  A batch
may span libraries and carries the daemon's fingerprint of each; every
one is recomputed locally and compared -- a worker whose checkout builds
a structurally different ISE library answers with an error frame instead
of returning records minted from divergent code.

Run a remote worker against a daemon listening on a routable address
(``repro serve --host 0.0.0.0``) with::

    python -m repro worker --coordinator HOST:PORT --reconnect

With ``--reconnect`` the worker survives daemon restarts: lost connections are redialed
on a capped exponential backoff schedule (:func:`reconnect_delays`) that
is deliberately jitter-free -- the fleet is small and a deterministic
schedule is unit-testable, which this repo values over thundering-herd
insurance.

Batch execution funnels through :func:`repro.experiments.engine
.execute_batch`, so worker-side construction memoisation (one application
per seed, one compiled library per budget) and the byte-identity to the
serial backend both come for free.
"""

from __future__ import annotations

import os
import sys
import time
from typing import List, Optional, Tuple

from repro.experiments import engine as engine_module
from repro.experiments.backends.base import library_fingerprints
from repro.service import wire
from repro.service.frames import (
    BATCH,
    ERROR,
    GOODBYE,
    HELLO,
    REJECT,
    RESULT,
    SHUTDOWN,
    WELCOME,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    dial,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.util.validation import ReproError

#: Seconds to wait for the coordinator to accept the dial.
CONNECT_TIMEOUT = 30.0

#: Reconnect backoff: first retry delay and the cap it doubles toward.
RECONNECT_BASE = 0.1
RECONNECT_CAP = 5.0

#: Consecutive failed dials tolerated before ``--reconnect`` gives up.
DEFAULT_MAX_ATTEMPTS = 8


def reconnect_delays(
    attempts: int,
    base: float = RECONNECT_BASE,
    cap: float = RECONNECT_CAP,
) -> List[float]:
    """The deterministic backoff schedule: ``base * 2**n`` capped at
    ``cap``, one delay per failed dial attempt.  No jitter on purpose --
    the schedule is part of the worker's observable contract."""
    return [min(cap, base * (2 ** n)) for n in range(attempts)]


def worker_loop(
    address: Tuple[str, int],
    fail_after: Optional[int] = None,
) -> int:
    """Serve batches from the coordinator at ``address`` until shutdown.

    ``fail_after`` is a test hook: after serving that many batches the
    worker exits hard (no result frame) on its next batch, simulating a
    crashed host so the coordinator's requeue/restart path can be
    exercised deterministically.

    Result records travel as one columnar block per batch, sent as soon
    as the batch is done: the daemon keeps one batch per worker, so
    nothing else could share the write.

    Returns a process exit code: ``0`` clean shutdown, ``1`` the
    coordinator was unreachable, ``2`` the handshake was rejected, ``3``
    the connection was lost *after* a successful handshake (the case
    ``--reconnect`` retries immediately, since the coordinator clearly
    existed a moment ago).
    """
    welcomed = False
    try:
        sock = dial(address, CONNECT_TIMEOUT)
    except OSError as error:
        print(
            f"error: cannot reach coordinator at "
            f"{address[0]}:{address[1]}: {error}",
            file=sys.stderr,
        )
        return 1
    try:
        send_frame(
            sock,
            {
                "type": HELLO,
                "schema": engine_module.ENGINE_SCHEMA,
                "protocol": PROTOCOL_VERSION,
            },
        )
        welcome = recv_frame(sock)
        if welcome.get("type") == REJECT:
            print(
                f"worker rejected: {welcome.get('reason')}", file=sys.stderr
            )
            return 2
        if welcome.get("type") != WELCOME:
            print(
                f"worker expected a welcome frame, got: {welcome}",
                file=sys.stderr,
            )
            return 2
        welcomed = True
        served = 0
        while True:
            frame = recv_frame(sock)
            ftype = frame.get("type")
            if ftype == SHUTDOWN:
                try:
                    send_frame(sock, {"type": GOODBYE})
                except OSError:
                    pass
                return 0
            if ftype != BATCH:
                send_frame(
                    sock,
                    {
                        "type": ERROR,
                        "batch": frame.get("batch"),
                        "message": f"unexpected frame type {ftype!r}",
                    },
                )
                continue
            if fail_after is not None and served >= fail_after:
                # Simulated crash: die before replying (test hook).
                os._exit(17)
            cells = [
                engine_module.SweepCell.from_payload(payload)
                for payload in frame["cells"]
            ]
            expected = frame.get("fingerprints")
            ours = library_fingerprints(cells)
            if expected != ours:
                send_frame(
                    sock,
                    {
                        "type": ERROR,
                        "batch": frame["batch"],
                        "message": (
                            f"library fingerprint mismatch: coordinator "
                            f"expects {expected}, this worker builds {ours} "
                            "-- workload code has diverged between hosts"
                        ),
                    },
                )
                continue
            records, built = engine_module.execute_batch(cells)
            served += 1
            send_frame(
                sock,
                {
                    "type": RESULT,
                    "batch": frame["batch"],
                    "built": built,
                    "block": wire.encode_record_block(list(enumerate(records))),
                },
            )
    except (ConnectionError, OSError):
        return 3 if welcomed else 1
    finally:
        try:
            sock.close()
        except OSError:
            pass


def run_worker(
    address: Tuple[str, int],
    reconnect: bool = False,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    fail_after: Optional[int] = None,
) -> int:
    """:func:`worker_loop`, optionally wrapped in the reconnect policy.

    With ``reconnect`` enabled, a connection lost after a successful
    handshake (exit code ``3``) resets the attempt counter and redials
    after the base delay; an unreachable coordinator (code ``1``) walks
    the :func:`reconnect_delays` schedule and gives up -- returning
    ``1`` -- once ``max_attempts`` consecutive dials have failed.  Clean
    shutdown (``0``) and handshake rejection (``2``) never retry: the
    first is the coordinator's explicit goodbye, the second will not
    improve without a code change on one side.
    """
    if not reconnect:
        return worker_loop(address, fail_after=fail_after)
    delays = reconnect_delays(max_attempts)
    failures = 0
    while True:
        code = worker_loop(address, fail_after=fail_after)
        if code in (0, 2):
            return code
        if code == 3:
            # The coordinator existed: treat the redial as a fresh start.
            failures = 0
            time.sleep(RECONNECT_BASE)
            continue
        if failures >= len(delays):
            # The initial dial plus one per walked backoff delay.
            print(
                f"error: giving up after {failures + 1} failed dial attempts",
                file=sys.stderr,
            )
            return 1
        time.sleep(delays[failures])
        failures += 1


def main(argv=None) -> int:
    """CLI entry point for cross-host workers."""
    import argparse

    parser = argparse.ArgumentParser(
        description="repro sweep worker: dial a repro serve daemon and "
        "serve cell batches"
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        help="daemon address as host:port",
    )
    parser.add_argument(
        "--reconnect",
        action="store_true",
        help="redial a lost coordinator on a capped exponential "
        "backoff schedule instead of exiting",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="consecutive failed dials tolerated before --reconnect "
        "gives up (default %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        address = parse_address(args.coordinator)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return run_worker(
        address, reconnect=args.reconnect, max_attempts=args.max_attempts
    )


if __name__ == "__main__":
    sys.exit(main())
