"""The sweep engine: backends, construction memos and cache throughput.

Three entry points share :mod:`repro.bench`'s ``engine`` suite:

* under pytest-benchmark (``pytest benchmarks/bench_engine.py``) the
  quick backend A/B run executes once under timing and asserts the
  regression gate -- serial/pool/service byte-identical, and the
  per-worker construction memos cutting application builds + library
  compiles by at least the threshold factor;
* the cache-hit test demonstrates the content-addressed cache on a
  36-cell sweep: a warm re-run must be at least 5x faster than cold and
  byte-identical;
* as a standalone script (``python benchmarks/bench_engine.py [--quick]
  [--out BENCH_engine.json]``) it writes the perf-trajectory JSON, the
  same artifact as ``repro bench --suite engine``.  The verify script
  runs this with ``--quick`` as its benchmark smoke job.
"""

import json
import sys
import time
from pathlib import Path

# Standalone invocation does not go through pytest's rootdir machinery.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from repro.bench import (  # noqa: E402
    ENGINE_REDUCTION_THRESHOLD,
    check_engine_gate,
    render_engine,
    run_engine_bench,
)
from repro.experiments.engine import SweepCell, SweepEngine  # noqa: E402

#: 3 budgets x 6 seeds x 2 policies = 36 cells.
BUDGETS = [(1, 1), (2, 2), (3, 3)]
SEEDS = list(range(6))
POLICY_NAMES = ["risc", "mrts"]
WORKLOAD_PARAMS = {"frames": 4, "scale": 0.5}


def _cells():
    return [
        SweepCell.make(budget, seed, policy, workload_params=WORKLOAD_PARAMS)
        for budget in BUDGETS
        for seed in SEEDS
        for policy in POLICY_NAMES
    ]


def test_engine_backend_memoization(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_engine_bench(quick=True))
    print()
    print(render_engine(payload))
    assert check_engine_gate(payload) == []
    assert (
        payload["construction_reduction_factor"]
        >= ENGINE_REDUCTION_THRESHOLD
    )


def test_engine_cache_hit_speedup(benchmark, sweep_engine):
    from conftest import run_once

    if not sweep_engine.use_cache:
        pytest.skip("cache-hit bench is meaningless with --no-cache")
    cells = _cells()
    assert len(cells) >= 32

    cold_start = time.perf_counter()
    cold = run_once(benchmark, lambda: sweep_engine.run(cells))
    cold_elapsed = time.perf_counter() - cold_start
    assert sweep_engine.stats.executed == len(cells)

    warm_start = time.perf_counter()
    warm = sweep_engine.run(cells)
    warm_elapsed = time.perf_counter() - warm_start

    print(
        f"\ncold: {cold_elapsed:.2f}s ({sweep_engine.jobs} job(s)), "
        f"warm: {warm_elapsed:.3f}s, "
        f"speedup {cold_elapsed / warm_elapsed:.0f}x"
    )
    assert sweep_engine.stats.cache_hits == len(cells)
    assert sweep_engine.stats.executed == 0
    assert json.dumps(cold) == json.dumps(warm)
    assert cold_elapsed / warm_elapsed >= 5.0


if __name__ == "__main__":
    from repro.bench import main

    sys.exit(main(["--suite", "engine"] + sys.argv[1:]))
