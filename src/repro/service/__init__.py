"""The always-on sweep service: an asyncio daemon serving many clients.

This package is the repo's one socket coordinator: a long-lived daemon
(``repro serve``) that accepts many concurrent sweep jobs from many
clients over the same length-prefixed frame protocol its synchronous
socket workers speak.  ``--backend service`` without ``--coordinator``
self-hosts one for a single sweep.  Its modules:

* :mod:`repro.service.frames` -- the frame-type registry: every wire
  frame type named once, plus the per-channel protocol table the
  conformance checker (``repro analyze``) verifies the endpoints
  against;
* :mod:`repro.service.protocol` -- the frame codec on blocking sockets
  and on ``asyncio.StreamReader/Writer`` (one wire format, two
  transports), plus the protocol version and address parsing;
* :mod:`repro.service.wire` -- the binary encoding (envelope +
  adaptive zlib + plain-row record blocks);
* :mod:`repro.service.scheduler` -- deficit-round-robin fair scheduling
  of cell batches across submitters (pure data structure, no sockets);
* :mod:`repro.service.store` -- the network-served content-addressed
  record store (same on-disk layout as ``.repro_cache``);
* :mod:`repro.service.daemon` -- the :class:`SweepService` event loop,
  graceful SIGTERM drain, and the thread-embedding test/bench helper;
* :mod:`repro.service.client` -- the synchronous client the
  ``service`` executor backend and the CLI use.

``docs/service.md`` documents the frame vocabulary, the scheduler
semantics and the cache namespace rules.

The exports resolve lazily (PEP 562): the frame registry must stay
importable from the socket endpoints without dragging the daemon -- and
its transitive engine imports -- into every process that only needs the
type constants.
"""

from typing import List

#: Export name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "FairScheduler": "repro.service.scheduler",
    "RecordStore": "repro.service.store",
    "ServiceClient": "repro.service.client",
    "ServiceHandle": "repro.service.daemon",
    "SweepService": "repro.service.daemon",
    "read_frame": "repro.service.protocol",
    "start_service_thread": "repro.service.daemon",
    "write_frame": "repro.service.protocol",
}

__all__ = sorted(_EXPORTS) + ["frames", "wire"]


def __getattr__(name: str):
    import importlib

    if name in ("frames", "wire"):
        # import_module, not a from-import: the latter re-enters this
        # __getattr__ before the submodule lands in sys.modules.
        module = importlib.import_module(f"repro.service.{name}")
        globals()[name] = module
        return module
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(target), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
