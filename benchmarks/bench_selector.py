"""The selector hot path: the packed, cached selector vs. the naive Fig. 6
rescan.

Two entry points share :mod:`repro.bench`:

* under pytest-benchmark (``pytest benchmarks/bench_selector.py``) the
  quick A/B run executes once under timing and asserts the regression
  gate -- identical results, and the packed selector never computes
  more profits than the naive one;
* as a standalone script (``python benchmarks/bench_selector.py [--quick]
  [--out BENCH_selector.json]``) it writes the perf-trajectory JSON, the
  same artifact as ``repro bench``.  The verify script runs this with
  ``--quick`` as its benchmark smoke job.
"""

import sys
from pathlib import Path

# Standalone invocation does not go through pytest's rootdir machinery.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import check_gate, render, run_selector_bench  # noqa: E402


def test_selector_packed_vs_naive(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_selector_bench(quick=True))
    print()
    print(render(payload))
    assert check_gate(payload) == []
    assert payload["evaluation_reduction_factor"] >= 2.0


if __name__ == "__main__":
    from repro.bench import main

    sys.exit(main())
