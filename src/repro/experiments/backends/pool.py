"""The process-pool backend: batches over a local ProcessPoolExecutor.

Each mapped item is one :func:`~repro.experiments.engine.execute_batch`
call, so a worker builds the batch's library once and serves the whole
chunk from its memo.  ``pool.map`` preserves submission order, which keeps
the reassembled records in input order regardless of completion order.

The executor lives as long as the backend: it forks on the first run
that fans out, with as many workers as that run has batches (at most
``jobs``), and serves every later run, so the workers' application and
library memos stay warm from one sweep to the next.  A later run that
plans more batches than the pool has workers replaces it with a larger
one.  :meth:`close` (called by :meth:`SweepEngine.close
<repro.experiments.engine.SweepEngine.close>`) shuts it down.  A pool a
worker died in is never reused: it is shut down and the next run (or
retry) forks a new one.  A death in a pool forked for the current run
fails that run with ``BrokenProcessPool``.  A pool carried over from an
earlier run may instead have lost the worker while idle -- the executor
can notice that only after the run's batches are queued -- so its
undelivered batches are re-dispatched once on a fresh pool; a cell that
kills its worker breaks that pool too and fails the run.
"""

from __future__ import annotations

from repro.experiments import engine as engine_module
from repro.experiments.backends.base import (
    ExecutorBackend,
    merge_counters,
    plan_batches,
)


class PoolBackend(ExecutorBackend):
    """Fans batches out over ``jobs`` local worker processes."""

    name = "pool"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._executor = None
        self._size = 0

    def run(self, cells, on_record=None):
        cells = list(cells)
        if not cells:
            return [] if on_record is None else None
        workers = max(1, min(self.jobs, len(cells)))
        if workers == 1 or len(cells) == 1:
            records, built = engine_module.execute_batch(cells)
            merge_counters(self.counters, built)
            if on_record is None:
                return records
            for index, record in enumerate(records):
                on_record(index, record)
            return None
        # Imported on the first fan-out, not at module top: importing
        # multiprocessing costs ~30 ms, which an engine that never fans
        # out (or has not yet) should not pay at construction.
        from concurrent.futures.process import BrokenProcessPool

        batches = plan_batches(cells, self.chunk_size, parts=workers)
        payloads = [[cells[i] for i in batch] for batch in batches]
        records = None if on_record else [None] * len(cells)
        todo = list(zip(batches, payloads))
        while True:
            pool, reused = self._pool(len(todo))
            self.counters["frames_sent"] += len(todo)
            merged = 0
            try:
                # ``map`` yields outcomes in submission order; consuming
                # it lazily keeps at most the executor's internal buffer
                # of finished batches alive instead of a full result list.
                outcomes = pool.map(
                    engine_module.execute_batch, [payload for _, payload in todo]
                )
                for (batch, _), (batch_records, built) in zip(todo, outcomes):
                    merge_counters(self.counters, built)
                    for index, record in zip(batch, batch_records):
                        if records is None:
                            on_record(index, record)
                        else:
                            records[index] = record
                    merged += 1
                return records
            except BrokenProcessPool:
                # The dead pool is dropped so no later run reuses it.
                self.close()
                if not reused:
                    raise
                # The pool predates this run, so the worker may have died
                # while it sat idle, and the executor need not have noticed
                # before this run's batches went out.  The undelivered
                # batches go once more to a fresh pool, which fails the
                # run if it breaks too.
                todo = todo[merged:]

    def _pool(self, batches):
        """``(executor, reused)`` for a run of ``batches`` batches.

        The live executor when it has a worker per batch (up to ``jobs``);
        otherwise a new one of that size, forked on first use.
        """
        from concurrent.futures import ProcessPoolExecutor

        size = min(self.jobs, batches)
        if self._executor is not None and self._size >= size:
            return self._executor, True
        self.close()
        self._executor = ProcessPoolExecutor(max_workers=size)
        self._size = size
        return self._executor, False

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


__all__ = ["PoolBackend"]
