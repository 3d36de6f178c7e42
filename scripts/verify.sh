#!/usr/bin/env bash
# The repo's verification gate: ruff, the tier-1 tests and the sweep
# benchmark's own tests.
#
#   bash scripts/verify.sh
#
# Every other gate is a tier-1 test, so `python -m pytest -x -q` runs it:
# - the determinism linter and the deep analysis, self-clean on the shipped
#   tree and the latter inside its 30 s budget (tests/test_analysis.py::
#   TestLintGate, tests/test_analysis_deep.py::TestShippedTree);
# - the golden traces under both simulator engines and both ISE selectors,
#   traced and untraced (tests/test_golden_trace.py), and the golden Fig. 8
#   records on every engine x selector pair (tests/test_golden_records.py);
# - the stepped oracle against the packed engine (tests/test_sim_packed.py,
#   tests/test_sim_event.py), with explicit engines;
# - byte-level determinism: serial == parallel == cached, every backend
#   against serial (warm pool workers too), the golden cells through the
#   service and the result-store round-trip (tests/test_determinism.py);
# - the hot-path pins: the selector's and the packed engine's fig8 counters
#   (tests/test_selector_incremental.py, tests/test_sim_packed.py::
#   TestFig8Grid with its >= 2x packed wall-clock floor), the construction
#   memos (tests/test_engine.py::TestBuildMemo), the daemon's >= 1.5x
#   throughput over one-shot fleets (tests/test_service.py) and the result
#   store's >= 2x peak-memory cut (tests/test_results.py::TestStreamedMemory);
# - the paper's claims at the canonical size, with results/full_report.txt
#   byte for byte (tests/test_claims.py).
# The sweep benchmark's tests (bench/tests) sit outside pytest's testpaths.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src"

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests scripts
else
    echo "ruff not installed; skipping (CI runs it)"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== sweep benchmark tests =="
# The --quick smoke of all four workloads, the mutated-record check and the
# BENCHMARK.json name check.
python -m pytest -q bench/tests

echo "verify: all gates passed"
