"""Host speed probe: a fixed pure-Python reference kernel timed between
operations, so run-to-run drift of a shared host divides out.

On a VM that shares its cores with other tenants, the same work runs up to
twice as slow for seconds to minutes at a time, with no steal time and CPU time
tracking wall time: the cores themselves are slower.  No statistic taken
over one run removes that drift.  So after every operation (outside its
timed region) a workload samples the host: it times three short slices of
:func:`reference_kernel` in the same thread, with that thread's CPU clock,
which neither a wait for the interpreter lock nor a descheduling can
inflate, and keeps their median.

A slice's time over :data:`NOMINAL_SLICE_S` is the host's *slowness* at
that moment.  An operation's latency divided by the slowness of the samples
nearest to it in time is its latency on a host of nominal speed; the
end-to-end metrics are computed from those.  The kernel and the constant
are part of the benchmark's definition: changing either moves every
metric, so neither may change between the two commits being compared.
Nothing here imports ``repro``, so no change to the program moves the
reference.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import threading
import time
from bisect import bisect_left
from typing import List, Sequence, Tuple

#: Rounds of the reference kernel in one slice.
SLICE_ROUNDS = 9

#: Slices in one sample, which records their median: the first slice after
#: a thread wakes from a long wait often runs slow while its caches refill.
SLICES_PER_SAMPLE = 3

#: Thread CPU time of one slice on a quiet 2-core x86_64 VM (Python 3.11):
#: slowness 1.0.  Reported metrics are on a host that runs the slice in
#: this time.
NOMINAL_SLICE_S = 0.00135

#: Samples whose median gives the slowness around one operation.
WINDOW = 9

#: Samples taken right before and again right after set-up; the median of
#: both scales ``setup_s``.
SETUP_SAMPLES = 5

#: Set-up time grows more slowly than a slice as the host slows: it is
#: mostly interpreter start-up and imports, whose loading of C extensions
#: and page faults suffer less from a busy core than an interpreted loop
#: does (1.35x the time at 1.6x the slowness).  Set-up is divided by the
#: slowness to this power, which kept the medians of five ten-seed sets,
#: taken at slowness 1.0 to 2.1, closest together.
SETUP_ELASTICITY = 0.7

_KEYS = tuple((i * 2654435761) % 509 for i in range(256))


def reference_kernel(rounds: int) -> float:
    """Interpreter-bound work shaped like the simulator's: a heap-driven
    event loop over a dict of state, with tuple and float arithmetic."""
    total = 0.0
    for _ in range(rounds):
        heap: List[Tuple[int, int, int]] = []
        state = {}
        for i, key in enumerate(_KEYS):
            heapq.heappush(heap, (key * 7 % 101, i, key))
        while heap:
            due, _, key = heapq.heappop(heap)
            value = state.get(key, 0) + due
            state[key] = value
            total += value * 0.5
        values = sorted(state.values())
        total += bisect_left(values, 300)
    return total


def _slice() -> float:
    """Slowness of one slice, timed on the calling thread's CPU clock."""
    # With the collector off, a program that leaves more garbage behind
    # cannot slow the slice and so flatter its own normalised times.
    collecting = gc.isenabled()
    gc.disable()
    cpu = time.thread_time()
    try:
        reference_kernel(SLICE_ROUNDS)
    finally:
        elapsed = time.thread_time() - cpu
        if collecting:
            gc.enable()
    return elapsed / NOMINAL_SLICE_S


class HostProbe:
    """Host samples of one workload process, stamped with when they ran."""

    def __init__(self):
        self._lock = threading.Lock()
        self._samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        """Time :data:`SLICES_PER_SAMPLE` slices in the calling thread and
        record their median slowness, which is returned."""
        start = time.perf_counter()
        slowness = statistics.median(_slice() for _ in range(SLICES_PER_SAMPLE))
        with self._lock:
            self._samples.append((start, slowness))
        return slowness

    def samples(self) -> List[Tuple[float, float]]:
        """``(perf_counter stamp, slowness)`` of every sample, in time order."""
        with self._lock:
            return sorted(self._samples)


def slowness_at(samples: Sequence[Tuple[float, float]], when: float,
                window: int = WINDOW) -> float:
    """Median slowness of the ``window`` samples nearest to ``when`` (all
    of them when there are fewer); ``samples`` are in time order."""
    if not samples:
        raise ValueError("no host samples")
    window = min(window, len(samples))
    middle = bisect_left(samples, (when,))
    first = min(max(0, middle - window // 2), len(samples) - window)
    return statistics.median(s for _, s in samples[first:first + window])


def normalise(samples: Sequence[Tuple[float, float]],
              spans: Sequence[Tuple[float, float]]) -> List[float]:
    """Each ``(start, duration)`` divided by the slowness around its middle."""
    return [
        duration / slowness_at(samples, start + duration / 2)
        for start, duration in spans
    ]


__all__ = [
    "HostProbe",
    "NOMINAL_SLICE_S",
    "SETUP_ELASTICITY",
    "SETUP_SAMPLES",
    "SLICES_PER_SAMPLE",
    "SLICE_ROUNDS",
    "WINDOW",
    "normalise",
    "reference_kernel",
    "slowness_at",
]
