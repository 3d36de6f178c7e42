"""Pure helpers shared by the benchmark harness, the comparer and the tests.

Nothing here imports ``repro``: percentiles, run-to-run spread, record
digests and the ``BENCHMARK.json`` loader work on plain data.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

#: Percentiles the tail rule may pick from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reportable only with this many samples above it.
MIN_SAMPLES_ABOVE = 10

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (the smallest value with at least
    ``q`` percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_above(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least
    ``MIN_SAMPLES_ABOVE`` of ``n`` samples above it, or ``None`` when even
    the median has fewer."""
    for q in TAIL_CANDIDATES:
        if samples_above(n, q) >= MIN_SAMPLES_ABOVE:
            return q
    return None


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: distance between the first and third quartile
    as a share of the median (``statistics.quantiles(n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0
    return (q3 - q1) / abs(median)


def canonical(value: object) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(items: Iterable[object]) -> str:
    """sha256 over the canonical JSON of each item, one per line."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(canonical(item).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def load_benchmark() -> Dict[str, object]:
    """The repository's ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def worse_by(before: float, after: float, better: str) -> float:
    """Relative change from ``before`` to ``after``, signed so that a
    positive value means worse."""
    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


__all__ = [
    "BENCH_DIR",
    "MIN_SAMPLES_ABOVE",
    "ROOT",
    "TAIL_CANDIDATES",
    "canonical",
    "digest",
    "load_benchmark",
    "percentile",
    "samples_above",
    "spread",
    "tail_percentile",
    "worse_by",
]
