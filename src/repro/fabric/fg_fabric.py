"""The fine-grained reconfigurable fabric (embedded FPGA).

The FG fabric consists of Partially Reconfigurable Containers (PRCs).  A
data path is brought in by streaming a partial bitstream through a *single
sequential* configuration port -- this serialisation is the reason FG
reconfiguration dominates the cost function of fine-grained run-time
systems (Section 1 of the paper).

The port is modelled as an explicit transfer queue.  A transfer that has
not yet started streaming can be *cancelled* (the run-time system changes
its mind before the port reaches it); the queue then reflows and every
later transfer completes earlier.  A transfer that is already streaming is
committed -- partial bitstreams cannot be aborted mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.validation import ValidationError, check_non_negative


@dataclass
class PortTransfer:
    """One bitstream transfer on the sequential configuration port."""

    token: int
    cycles: int
    start: int
    done: int


@dataclass
class FGFabric:
    """State of the FG fabric: PRC count and the bitstream port queue.

    Parameters
    ----------
    n_prcs:
        Number of Partially Reconfigurable Containers.
    """

    n_prcs: int
    _queue: List[PortTransfer] = field(default_factory=list, repr=False)
    _next_token: int = field(default=0, repr=False)
    cancelled_transfers: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_non_negative("FGFabric.n_prcs", self.n_prcs)

    @property
    def port_available_at(self) -> int:
        """Earliest cycle at which the bitstream port is free."""
        return self._queue[-1].done if self._queue else 0

    # ---------------------------------------------------------- scheduling
    def schedule_reconfig(self, now: int, cycles: int) -> Tuple[int, int, int]:
        """Enqueue a ``cycles``-long bitstream transfer.

        Returns ``(start, done, token)``; the token identifies the transfer
        for cancellation.  Transfers queue behind whatever the port is
        already streaming.
        """
        check_non_negative("now", now)
        check_non_negative("cycles", cycles)
        return self.schedule_trusted(now, cycles)

    def schedule_trusted(self, now: int, cycles: int) -> Tuple[int, int, int]:
        """:meth:`schedule_reconfig` without re-validating, for callers
        whose times are valid by construction (the reconfiguration
        controller: the simulation clock and a validated implementation's
        reconfiguration cycles)."""
        # Finished transfers can never be cancelled or reflowed: prune them
        # so the queue stays small over long runs.  (An empty queue reports
        # port_available_at = 0; the max() below handles that.)
        if self._queue and self._queue[0].done <= now:
            self._queue = [t for t in self._queue if t.done > now]
        start = max(now, self.port_available_at)
        done = start + cycles
        token = self._next_token
        self._next_token += 1
        self._queue.append(PortTransfer(token=token, cycles=cycles, start=start, done=done))
        return start, done, token

    def transfer(self, token: int) -> Optional[PortTransfer]:
        """The queued transfer with ``token``, or None if gone/finished."""
        for entry in self._queue:
            if entry.token == token:
                return entry
        return None

    def is_cancellable(self, token: int, now: int) -> bool:
        """Whether the transfer has not started streaming yet."""
        entry = self.transfer(token)
        return entry is not None and entry.start > now

    def cancel(self, token: int, now: int) -> Optional[Dict[int, Tuple[int, int]]]:
        """Cancel a pending transfer and reflow the queue.

        Returns ``{token: (new_start, new_done)}`` for every transfer whose
        schedule improved, or ``None`` if the transfer already started (or
        does not exist) -- committed transfers cannot be aborted.
        """
        entry = self.transfer(token)
        if entry is None or entry.start <= now:
            return None
        self._queue.remove(entry)
        self.cancelled_transfers += 1
        # Reflow: pending transfers (start > now) repack behind the last
        # committed transfer / the current time.
        updates: Dict[int, Tuple[int, int]] = {}
        available = now
        for queued in self._queue:
            if queued.start <= now:
                available = max(available, queued.done)
        for queued in sorted(self._queue, key=lambda t: t.start):
            if queued.start <= now:
                continue
            new_start = max(now, available)
            new_done = new_start + queued.cycles
            if (new_start, new_done) != (queued.start, queued.done):
                queued.start, queued.done = new_start, new_done
                updates[queued.token] = (new_start, new_done)
            available = queued.done
        return updates

    def preview_reconfigs(self, now: int, cycle_list: List[int]) -> List[int]:
        """Completion times if the transfers in ``cycle_list`` were enqueued
        now.  Does not modify the queue -- used by the profit function to
        predict ``recT`` for candidate ISEs without committing to them.
        """
        available = max(now, self.port_available_at)
        done_times = []
        for cycles in cycle_list:
            available += cycles
            done_times.append(available)
        return done_times

    def reset_port(self, now: int = 0) -> None:
        """Drop all port state (simulation reset)."""
        self._queue.clear()
        self.cancelled_transfers = 0


__all__ = ["FGFabric", "PortTransfer"]
