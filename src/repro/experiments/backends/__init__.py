"""Registered executor backends for :class:`~repro.experiments.engine
.SweepEngine`.

Three ship with the repo -- all byte-identical by construction (every
one funnels cells through ``execute_cell``):

* ``serial`` -- the calling process, in input order (the reference).
* ``pool`` -- batches over a local ``ProcessPoolExecutor``.
* ``service`` -- the sweep becomes one job on the always-on ``repro
  serve`` daemon (shared fleet of socket workers that can span hosts,
  fair scheduling, network-served record store); without
  ``--coordinator`` it self-hosts an ephemeral daemon.

``docs/sweeps.md`` has the selection matrix.  Register additional
backends with :func:`register_backend`; their ``run(cells)`` signature
must prefix-extend the serial backend's (lint-enforced).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.experiments.backends.base import ExecutorBackend, plan_batches
from repro.experiments.backends.pool import PoolBackend
from repro.experiments.backends.serial import SerialBackend
from repro.experiments.backends.service import ServiceBackend
from repro.util.validation import ReproError

#: Every registered backend, by the name used in the engine and the CLI.
BACKENDS: Dict[str, Callable[..., ExecutorBackend]] = {}


def register_backend(name: str, factory: Callable[..., ExecutorBackend]) -> None:
    """Register an executor backend factory.

    The factory is called with the engine's fan-out knobs
    (``jobs``/``chunk_size``/``workers``/``coordinator``) and must return
    an :class:`ExecutorBackend`.
    """
    BACKENDS[name] = factory


def backend_names() -> List[str]:
    """Sorted names of every registered backend (CLI choices)."""
    return sorted(BACKENDS)


def resolve_backend(
    name: Optional[str] = None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
    coordinator: Optional[str] = None,
) -> ExecutorBackend:
    """Instantiate a backend by name.

    ``None`` auto-selects: ``pool`` when ``jobs > 1``, else ``serial`` --
    exactly the engine's pre-backend behaviour.
    """
    if name is None:
        name = "pool" if jobs > 1 else "serial"
    if name not in BACKENDS:
        raise ReproError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        )
    return BACKENDS[name](
        jobs=jobs, chunk_size=chunk_size, workers=workers,
        coordinator=coordinator,
    )


register_backend("serial", SerialBackend)
register_backend("pool", PoolBackend)
register_backend("service", ServiceBackend)


__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "PoolBackend",
    "SerialBackend",
    "ServiceBackend",
    "backend_names",
    "plan_batches",
    "register_backend",
    "resolve_backend",
]
