"""Deficit-round-robin fair scheduling of cell batches across submitters.

The daemon dispatches batches from *all* runnable jobs onto one shared
worker fleet.  Without arbitration one large sweep would starve every
later submitter; this scheduler transposes the QoS-based function
allocation of Ullmann et al. (hardware slots arbitrated by per-function
priority) onto worker slots: each *submitter* owns a deficit counter that
is refilled by ``quantum * priority`` once per round-robin visit, and a
batch is served only when the submitter's deficit covers its cost (cell
count).  Over time each submitter receives worker slots proportional to
its priority, independent of job sizes or arrival order.

The class is a pure data structure -- no sockets, no clocks, no
randomness -- so its behaviour is exactly unit-testable:

* batches of one job are served strictly in submission order (and a
  :meth:`requeue` puts an interrupted batch back at the *front*, which is
  the daemon's deterministic-reassignment contract);
* within one submitter, higher-priority jobs are drained first
  (ties broken by arrival order);
* across submitters, service alternates deficit-round-robin in first
  activation order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple


class _Job:
    """Scheduler-side view of one submitted job."""

    __slots__ = ("job_id", "submitter", "priority", "arrival", "batches")

    def __init__(self, job_id: int, submitter: str, priority: int, arrival: int):
        self.job_id = job_id
        self.submitter = submitter
        self.priority = priority
        self.arrival = arrival
        #: pending (token, cost) batches, in dispatch order
        self.batches: Deque[Tuple[int, int]] = deque()


class FairScheduler:
    """Deficit round robin over submitters, priority order within each.

    ``quantum`` is the deficit refill a priority-1 submitter earns per
    round-robin visit, in batch-cost units (cells).  A submitter's
    effective refill is ``quantum * max(1, priority of its best pending
    job)``, so priorities shape both intra-submitter order and the
    cross-submitter bandwidth share.
    """

    def __init__(self, quantum: int = 4):
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.quantum = quantum
        self._ring: Deque[str] = deque()          #: submitters, activation order
        self._deficit: Dict[str, int] = {}
        self._jobs: Dict[int, _Job] = {}
        self._by_submitter: Dict[str, List[int]] = {}
        self._token_job: Dict[int, int] = {}      #: outstanding token -> job
        self._token_cost: Dict[int, int] = {}
        self._arrivals = 0
        #: submitter currently mid-visit (already earned this visit's refill)
        self._current: Optional[str] = None

    # ----------------------------------------------------------- submission
    def submit(
        self,
        job_id: int,
        submitter: str,
        priority: int,
        batches: Sequence[Tuple[int, int]],
    ) -> None:
        """Register a job's ``(token, cost)`` batches for dispatch.

        Tokens must be globally unique (the daemon mints monotonically
        increasing ints, because worker ``result`` frames echo them).
        """
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already submitted")
        job = _Job(job_id, submitter, int(priority), self._arrivals)
        self._arrivals += 1
        job.batches.extend((int(token), max(1, int(cost))) for token, cost in batches)
        self._jobs[job_id] = job
        for token, cost in job.batches:
            self._token_job[token] = job_id
            self._token_cost[token] = cost
        queue = self._by_submitter.setdefault(submitter, [])
        queue.append(job_id)
        # Highest priority first; arrival order breaks ties.
        queue.sort(key=lambda jid: (-self._jobs[jid].priority, self._jobs[jid].arrival))
        if submitter not in self._deficit:
            self._deficit[submitter] = 0
            self._ring.append(submitter)

    # ------------------------------------------------------------- dispatch
    def _best_job(self, submitter: str) -> Optional[_Job]:
        for job_id in self._by_submitter.get(submitter, ()):
            job = self._jobs[job_id]
            if job.batches:
                return job
        return None

    def next_batch(self) -> Optional[int]:
        """The token of the next batch to dispatch, or ``None`` when idle.

        Implements textbook DRR: arriving at the head submitter starts a
        *visit*, which earns exactly one refill; batches are then served
        while the deficit covers their cost, and when it no longer does
        the visit ends and the ring rotates.  The one-refill-per-visit
        bookkeeping (``_current``) is what gives every other submitter its
        turn -- refilling whenever the head runs short would let the first
        submitter starve the ring.  A submitter whose jobs are all drained
        leaves the ring with its deficit zeroed (no stale credit when it
        returns).
        """
        while self._ring:
            submitter = self._ring[0]
            job = self._best_job(submitter)
            if job is None:
                self._ring.popleft()
                self._deficit[submitter] = 0
                if self._current == submitter:
                    self._current = None
                if not self._by_submitter.get(submitter):
                    self._deficit.pop(submitter, None)
                    self._by_submitter.pop(submitter, None)
                continue
            token, cost = job.batches[0]
            if self._deficit[submitter] < cost and self._current != submitter:
                # Fresh visit: grant the single refill it is entitled to.
                self._current = submitter
                self._deficit[submitter] += self.quantum * max(1, job.priority)
            if self._deficit[submitter] >= cost:
                self._current = submitter
                self._deficit[submitter] -= cost
                job.batches.popleft()
                return token
            # Visit over (refill already granted, still unaffordable --
            # the credit carries to the next visit, so every full cycle
            # grows the deficit and the loop terminates).
            self._current = None
            self._ring.rotate(-1)
        return None

    def requeue(self, token: int) -> None:
        """Put an interrupted batch back at the *front* of its job.

        Deterministic reassignment: the next dispatch for this job serves
        exactly the failed batch again.  The cost is refunded to the
        submitter.
        """
        job_id = self._token_job.get(token)
        if job_id is None:
            return
        job = self._jobs[job_id]
        cost = self._token_cost[token]
        job.batches.appendleft((token, cost))
        self._deficit[job.submitter] = self._deficit.get(job.submitter, 0) + cost
        queue = self._by_submitter.setdefault(job.submitter, [])
        if job_id not in queue:
            queue.append(job_id)
            queue.sort(
                key=lambda jid: (
                    -self._jobs[jid].priority, self._jobs[jid].arrival
                )
            )
        # Re-enter the ring whenever absent -- a submitter whose batches
        # were all in flight was popped by next_batch() while keeping its
        # _deficit entry, so gating re-entry on the entry's absence would
        # leave the requeued batch undispatchable forever.
        if job.submitter not in self._ring:
            self._ring.append(job.submitter)

    def complete(self, token: int) -> None:
        """Forget a served batch; retires its job once fully drained."""
        job_id = self._token_job.pop(token, None)
        self._token_cost.pop(token, None)
        if job_id is None:
            return
        job = self._jobs.get(job_id)
        if job is None:
            return
        outstanding = any(
            jid == job_id for jid in self._token_job.values()
        )
        if not job.batches and not outstanding:
            del self._jobs[job_id]
            queue = self._by_submitter.get(job.submitter)
            if queue and job_id in queue:
                queue.remove(job_id)
            if not queue:
                # Last job of this submitter: retire it from the ring so
                # observers see only submitters with live jobs (and no
                # stale deficit survives to its next activation).
                self._by_submitter.pop(job.submitter, None)
                self._deficit.pop(job.submitter, None)
                if job.submitter in self._ring:
                    self._ring.remove(job.submitter)
                if self._current == job.submitter:
                    self._current = None

    # ------------------------------------------------------------ observers
    def pending_batches(self) -> int:
        return sum(len(job.batches) for job in self._jobs.values())

    def has_work(self) -> bool:
        return any(job.batches for job in self._jobs.values())

    def submitters(self) -> List[str]:
        return list(self._ring)


__all__ = ["FairScheduler"]
