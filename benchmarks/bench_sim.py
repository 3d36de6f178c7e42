"""The simulator hot path: the packed engine vs. the stepped oracle loop.

Two entry points share :mod:`repro.bench`:

* under pytest-benchmark (``pytest benchmarks/bench_sim.py``) the quick
  A/B run executes once under timing and asserts the regression gate --
  identical results, and the packed engine calls the ECU cascade at least
  5x less often than the stepped loop;
* as a standalone script (``python benchmarks/bench_sim.py [--quick]
  [--out BENCH_sim.json]``) it writes the perf-trajectory JSON, the same
  artifact as ``repro bench --suite sim``.  The verify script runs this
  with ``--quick`` as its benchmark smoke job.
"""

import sys
from pathlib import Path

# Standalone invocation does not go through pytest's rootdir machinery.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (  # noqa: E402
    SIM_REDUCTION_THRESHOLD,
    check_sim_gate,
    render_sim,
    run_sim_bench,
)


def test_sim_packed_vs_stepped(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_sim_bench(quick=True))
    print()
    print(render_sim(payload))
    assert check_sim_gate(payload) == []
    assert payload["ecu_call_reduction_factor"] >= SIM_REDUCTION_THRESHOLD


if __name__ == "__main__":
    from repro.bench import main

    sys.exit(main(["--suite", "sim"] + sys.argv[1:]))
