"""Executor-backend interface and the shared batch planner.

A backend answers one question for :class:`~repro.experiments.engine
.SweepEngine`: given the cells that missed the cache, produce their
records.  Every backend funnels each cell through
:func:`repro.experiments.engine.execute_cell` (directly or inside a
worker process), which is the whole determinism argument -- the backend
only chooses *where* a cell runs, never *how*.

Batches are the dispatch unit, planned by :func:`plan_batches`.  Its
planning unit is a library x application pair: the cells that share one
compiled ISE library (:func:`group_key`) and one application seed.  When
whole units spread evenly over the workers, every batch is made of whole
units, so each worker builds only the applications it serves; otherwise
only the units that do not fit whole are cut into chunks.  Either way a
batch never spans libraries: one IPC frame, one compiled library.  (The
``repro serve`` daemon merges consecutive batches up to its DRR quantum
afterwards; the process pool sends them as planned.)
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import engine as engine_module
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


def library_fingerprints(cells: Sequence[SweepCell]) -> List[str]:
    """The fingerprint of each library ``cells`` use, in first-use order:
    what a ``batch`` frame carries and what its worker checks."""
    return [
        engine_module.library_fingerprint(workload, budget, params, budget_params)
        for workload, params, budget, budget_params
        in dict.fromkeys(map(group_key, cells))
    ]


def plan_batches(
    cells: Sequence[SweepCell],
    chunk_size: Optional[int] = None,
    parts: int = 1,
) -> List[List[int]]:
    """Partition ``cells`` into dispatchable batches of indices.

    Cells are grouped by :func:`group_key` (their library) in
    first-appearance order, and within a library by application seed: a
    library x application *unit* is what a worker builds once.  Batches
    never span libraries: one frame, one library.

    Without ``chunk_size``, the chunk is about four batches per worker
    (``ceil(cells / (4 * parts))``) and whole units go out uncut where
    they fit the ``parts`` workers.  When whole units spread evenly --
    ``ceil(units / parts) * largest unit <= ceil(cells / parts)`` --
    every unit is whole.  Otherwise the first ``parts * w`` units are,
    with ``w`` whole units per worker: as many as each worker has units
    for and room for at the largest unit's size.  A library's
    consecutive whole units merge while the batch stays within the
    chunk, so a library that fits one chunk still goes out as one batch.
    The remaining units, and every unit when ``chunk_size`` is given, are
    cut into chunks of that size in order, cutting through applications
    so stragglers do not serialise the tail.
    """
    parts = max(1, parts)
    groups: Dict[Tuple, Dict[int, List[int]]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(group_key(cell), {}).setdefault(cell.seed, []).append(index)
    whole = 0
    if chunk_size is None:
        chunk = math.ceil(len(cells) / (parts * 4))
        units = [len(unit) for apps in groups.values() for unit in apps.values()]
        room = math.ceil(len(cells) / parts)
        largest = max(units, default=1)
        if math.ceil(len(units) / parts) * largest <= room:
            whole = len(units)
        else:
            whole = parts * min(len(units) // parts, room // largest)
    else:
        chunk = max(1, chunk_size)
    batches: List[List[int]] = []
    for apps in groups.values():
        batch: List[int] = []
        cut: List[int] = []
        for unit in apps.values():
            if whole <= 0:
                cut += unit
                continue
            whole -= 1
            if batch and len(batch) + len(unit) > chunk:
                batches.append(sorted(batch))
                batch = []
            batch += unit
        # Sorted, so a library sent whole lists its cells in the order
        # the chunked plan would.
        if batch:
            batches.append(sorted(batch))
        cut.sort()
        for lo in range(0, len(cut), chunk):
            batches.append(cut[lo:lo + chunk])
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
    "library_fingerprints",
    "merge_counters",
    "new_counters",
    "plan_batches",
]
