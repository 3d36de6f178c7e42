"""The always-on sweep service vs. one-shot fleets.

Two entry points share :mod:`repro.bench`'s ``service`` suite:

* under pytest-benchmark (``pytest benchmarks/bench_service.py``) the
  quick A/B run executes once under timing and asserts the regression
  gate -- four concurrent submissions through one daemon byte-identical
  to serial and at least the threshold factor faster in aggregate than
  the same four sweeps through sequential one-shot self-hosted
  ``--backend service`` fleets;
* as a standalone script (``python benchmarks/bench_service.py [--quick]
  [--out BENCH_service.json]``) it writes the perf-trajectory JSON, the
  same artifact as ``repro bench --suite service``.  The verify script
  runs this with ``--quick`` as its benchmark smoke job.
"""

import sys
from pathlib import Path

# Standalone invocation does not go through pytest's rootdir machinery.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (  # noqa: E402
    SERVICE_THROUGHPUT_THRESHOLD,
    check_service_gate,
    render_service,
    run_service_bench,
)


def test_service_daemon_throughput(benchmark):
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_service_bench(quick=True))
    print()
    print(render_service(payload))
    assert check_service_gate(payload) == []
    assert payload["identical_results"]
    assert payload["throughput_factor"] >= SERVICE_THROUGHPUT_THRESHOLD


if __name__ == "__main__":
    from repro.bench import main

    sys.exit(main(["--suite", "service"] + sys.argv[1:]))
