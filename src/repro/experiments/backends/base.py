"""Executor-backend interface and the shared batch planner.

A backend answers one question for :class:`~repro.experiments.engine
.SweepEngine`: given the cells that missed the cache, produce their
records.  Every backend funnels each cell through
:func:`repro.experiments.engine.execute_cell` (directly or inside a
worker process), which is the whole determinism argument -- the backend
only chooses *where* a cell runs, never *how*.

Batches are the dispatch unit: :func:`plan_batches` groups cells that
share a library fingerprint key and chunks each group, so one IPC frame
carries work a worker can serve from a single compiled library (and a
single application build per seed in the group).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import SweepCell

#: Counter names every backend reports (merged into ``EngineStats``).
COUNTER_NAMES: Tuple[str, ...] = (
    "applications_built",
    "applications_saved",
    "libraries_built",
    "libraries_saved",
    "frames_sent",
    "worker_restarts",
    "remote_cache_hits",
    "jobs_completed",
    "bytes_sent",
    "bytes_received",
    "frames_coalesced",
    "blocks_compressed",
)


def new_counters() -> Dict[str, int]:
    return {name: 0 for name in COUNTER_NAMES}


def merge_counters(into: Dict[str, int], delta: Dict[str, int]) -> None:
    for name in COUNTER_NAMES:
        into[name] += int(delta.get(name, 0))


def group_key(cell: SweepCell) -> Tuple:
    """The library-memo key of a cell: cells sharing it reuse one compiled
    library (and its fingerprint), so they belong in the same batch."""
    return (cell.workload, cell.workload_params, cell.budget, cell.budget_params)


def plan_batches(
    cells: Sequence[SweepCell],
    chunk_size: Optional[int] = None,
    parts: int = 1,
) -> List[List[int]]:
    """Partition ``cells`` into dispatchable batches of indices.

    Cells are grouped by :func:`group_key` in first-appearance order, then
    each group is chunked -- to ``chunk_size`` cells when given, otherwise
    to roughly four batches per worker (``parts``) so stragglers do not
    serialise the tail.  Batches never span groups: one frame, one library.
    """
    groups: Dict[Tuple, List[int]] = {}
    order: List[Tuple] = []
    for index, cell in enumerate(cells):
        key = group_key(cell)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    if chunk_size is None:
        chunk = max(1, math.ceil(len(cells) / max(1, parts * 4)))
    else:
        chunk = max(1, chunk_size)
    batches: List[List[int]] = []
    for key in order:
        indices = groups[key]
        for lo in range(0, len(indices), chunk):
            batches.append(indices[lo:lo + chunk])
    return batches


class ExecutorBackend:
    """Base class of the registered executor backends.

    Subclasses implement :meth:`run`; its signature must keep the serial
    backend's arguments as a prefix (enforced by the
    ``backend-run-signature`` lint invariant), so the engine can route any
    cell list through any registered backend unchanged.
    """

    name = "base"

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        workers: Optional[int] = None,
        coordinator: Optional[str] = None,
    ):
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.workers = workers
        self.coordinator = coordinator
        self.counters = new_counters()

    def run(self, cells, on_record=None):
        """Execute ``cells``; returns one record per cell, in input order.

        With ``on_record`` given, the backend *streams* instead:
        ``on_record(index, record)`` is called exactly once per cell
        (``index`` into ``cells``), and ``run`` returns ``None`` so no
        O(cells) record list is ever built.  Delivery order is
        backend-defined but deterministic -- callers key on the index,
        never on arrival order.  Backends whose transport completes out
        of order hold finished batches back and release them in dispatch
        order, bounding the hold-back by in-flight batches.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the backend keeps between runs (the pool's
        worker processes); nothing by default."""


__all__ = [
    "COUNTER_NAMES",
    "ExecutorBackend",
    "group_key",
    "merge_counters",
    "new_counters",
    "plan_batches",
]
