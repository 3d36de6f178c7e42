"""Run every experiment and print the full report.

Usage::

    python -m repro.experiments            # full runs (seconds)
    python -m repro.experiments --fast     # reduced frame counts
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

from repro.experiments import (
    run_ablations,
    run_contention,
    run_energy,
    run_granularity,
    run_multitask,
    run_sensitivity,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig8,
    run_fig9,
    run_fig10,
    run_overhead,
    run_search_space,
)
from repro.experiments.engine import resolve_engine


#: Every experiment of the report, in report order: ``(key, title,
#: run(fast, engine))``.  ``run_all``, ``repro report`` and the paper
#: claims (:mod:`repro.verification.claims`) all read this one list.
EXPERIMENTS: List[Tuple[str, str, Callable]] = [
    ("fig1", "Fig. 1", lambda fast, engine: run_fig1(points=20 if fast else 50)),
    ("fig2", "Fig. 2",
     lambda fast, engine: run_fig2(frames=6 if fast else 16, engine=engine)),
    ("fig5", "Fig. 5 (measured)",
     lambda fast, engine: run_fig5(frames=4, engine=engine)),
    ("fig8", "Fig. 8",
     lambda fast, engine: run_fig8(frames=6 if fast else 16, engine=engine)),
    ("fig9", "Fig. 9",
     lambda fast, engine: run_fig9(frames=6 if fast else 16,
                                   max_prc=4 if fast else 6, engine=engine)),
    ("fig10", "Fig. 10",
     lambda fast, engine: run_fig10(frames=6 if fast else 16, engine=engine)),
    ("overhead", "Overhead (5.4)",
     lambda fast, engine: run_overhead(frames=6 if fast else 16,
                                       engine=engine)),
    ("search_space", "Search space (4.1)",
     lambda fast, engine: run_search_space()),
    ("ablations", "Ablations",
     lambda fast, engine: run_ablations(frames=6 if fast else 16,
                                        engine=engine)),
    ("contention", "Fabric contention (Sec. 1, variation b)",
     lambda fast, engine: run_contention(frames=6 if fast else 12,
                                         engine=engine)),
    ("granularity", "Selection granularity (Sec. 1, [11])",
     lambda fast, engine: run_granularity(frames=6 if fast else 12,
                                          engine=engine)),
    ("multitask", "Multi-task sharing (Sec. 1, variation b)",
     lambda fast, engine: run_multitask(frames=4 if fast else 6,
                                        images=4 if fast else 6,
                                        engine=engine)),
    ("energy", "Energy (extension)",
     lambda fast, engine: run_energy(frames=6 if fast else 12, engine=engine)),
    ("sensitivity", "Cost-model sensitivity (extension)",
     lambda fast, engine: run_sensitivity(frames=4 if fast else 8,
                                          engine=engine)),
]


def each_experiment(
    engine, fast: bool, experiments=None, overrides=None
) -> Iterator[Tuple[str, str, object, float]]:
    """Run ``experiments`` (default :data:`EXPERIMENTS`) on ``engine`` in
    order, yielding ``(key, title, result, elapsed_s)`` as each completes.

    ``overrides`` maps a key to a replacement ``run(fast, engine)``.
    """
    overrides = overrides or {}
    for key, title, run in EXPERIMENTS if experiments is None else experiments:
        start = time.perf_counter()
        result = overrides.get(key, run)(fast, engine)
        yield key, title, result, time.perf_counter() - start


def run_all(
    fast: bool = False,
    stream=None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    backend=None,
    workers=None,
    coordinator=None,
) -> Dict[str, object]:
    """Execute every experiment, printing each report as it completes, and
    return the results by :data:`EXPERIMENTS` key.

    Every simulation the experiments make is a cell on one
    :class:`~repro.experiments.engine.SweepEngine`, built from
    ``jobs``/``use_cache``/``cache_dir`` and the executor knobs
    ``backend``/``workers``/``coordinator`` (serial and uncached by
    default) and closed on return.  All twelve simulating experiments
    share it, so a pool's workers (and their warm construction memos)
    carry over from one to the next.  Fig. 1 and the search-space count
    simulate nothing.
    """
    stream = stream or sys.stdout
    results: Dict[str, object] = {}
    with resolve_engine(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                        backend=backend, workers=workers,
                        coordinator=coordinator) as engine:
        for key, title, result, elapsed in each_experiment(engine, fast):
            print(f"\n{'=' * 72}\n{title}  [{elapsed:.1f}s]\n{'=' * 72}",
                  file=stream)
            print(result.render(), file=stream)
            results[key] = result
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="reduced frame counts (quick check)"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the grid experiments (Figs. 8-10)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read/write the on-disk sweep cell cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="sweep cell cache location (default: .repro_cache)",
    )
    from repro.experiments.backends import backend_names

    parser.add_argument(
        "--backend", default=None, choices=backend_names(),
        help="executor backend (default: pool when --jobs > 1, else serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="local workers of the daemon --backend service self-hosts",
    )
    parser.add_argument(
        "--coordinator", default=None,
        help="HOST:PORT of a running repro serve daemon for --backend service",
    )
    args = parser.parse_args(argv)
    run_all(
        fast=args.fast,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        backend=args.backend,
        workers=args.workers,
        coordinator=args.coordinator,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
