"""Run every experiment and print the full report.

Usage::

    python -m repro.experiments            # full runs (a few minutes)
    python -m repro.experiments --fast     # reduced frame counts
"""

from __future__ import annotations

import argparse
import sys
import time

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


def run_all(
    fast: bool = False,
    stream=None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    backend=None,
    workers=None,
    coordinator=None,
) -> None:
    """Execute every experiment, printing each report as it completes.

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
    frames = 6 if fast else 16
    with resolve_engine(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                        backend=backend, workers=workers,
                        coordinator=coordinator) as engine:
        _run_experiments(fast, frames, engine, stream)


def _run_experiments(fast: bool, frames: int, engine, stream) -> None:
    experiments = [
        ("Fig. 1", lambda: run_fig1(points=20 if fast else 50)),
        ("Fig. 2", lambda: run_fig2(frames=frames, engine=engine)),
        ("Fig. 5 (measured)", lambda: run_fig5(frames=4, engine=engine)),
        ("Fig. 8", lambda: run_fig8(frames=frames, engine=engine)),
        ("Fig. 9", lambda: run_fig9(frames=frames, max_prc=4 if fast else 6,
                                    engine=engine)),
        ("Fig. 10", lambda: run_fig10(frames=frames, engine=engine)),
        ("Overhead (5.4)", lambda: run_overhead(frames=frames, engine=engine)),
        ("Search space (4.1)", run_search_space),
        ("Ablations", lambda: run_ablations(frames=frames, engine=engine)),
        ("Fabric contention (Sec. 1, variation b)",
         lambda: run_contention(frames=6 if fast else 12, engine=engine)),
        ("Selection granularity (Sec. 1, [11])",
         lambda: run_granularity(frames=6 if fast else 12, engine=engine)),
        ("Multi-task sharing (Sec. 1, variation b)",
         lambda: run_multitask(frames=4 if fast else 6,
                               images=4 if fast else 6, engine=engine)),
        ("Energy (extension)",
         lambda: run_energy(frames=6 if fast else 12, engine=engine)),
        ("Cost-model sensitivity (extension)",
         lambda: run_sensitivity(frames=4 if fast else 8, engine=engine)),
    ]
    for name, fn in experiments:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        print(f"\n{'=' * 72}\n{name}  [{elapsed:.1f}s]\n{'=' * 72}",
              file=stream)
        print(result.render(), file=stream)


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
