#!/usr/bin/env bash
# The repo's verification gate: static lint, tier-1 tests, the sweep
# benchmark's own tests, the stepped oracle and byte-level determinism.
#
#   bash scripts/verify.sh [--jobs N]
#
# The hot-path gates are tier-1 tests: the selector's and the packed
# engine's pinned fig8 counters (tests/test_selector_incremental.py,
# tests/test_sim_packed.py::TestFig8Grid, which also holds the >= 2x
# packed wall-clock floor), the construction memos (tests/test_engine.py::
# TestBuildMemo), backend identity (tests/test_backends.py), the daemon's
# >= 1.5x throughput over one-shot fleets (tests/test_service.py) and the
# result store's >= 2x peak-memory cut (tests/test_results.py::
# TestStreamedMemory).  The sweep benchmark's own tests (bench/tests) run
# after tier-1.  Tier-1 runs the default packed engine and selector; the
# stepped oracle gate re-runs the engine identity and golden suites with
# REPRO_SIM=stepped, so every run the suites leave to the default also goes
# through the literal Fig. 7 loop, and the naive oracle gate re-runs the
# golden traces and records with REPRO_SELECTOR=naive (the Fig. 6 rescan).
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src"
JOBS=4
if [ "${1:-}" = "--jobs" ]; then
    JOBS="$2"
fi

echo "== static lint gate =="
python -m repro lint
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests scripts benchmarks
else
    echo "ruff not installed; skipping (CI runs it)"
fi

echo "== deep analysis gate =="
# Whole-program taint + protocol conformance must stay self-clean and
# inside its 30s budget (docs/analysis.md, "deep tier").
ANALYZE_START=$(date +%s)
python -m repro analyze
ANALYZE_ELAPSED=$(( $(date +%s) - ANALYZE_START ))
if [ "$ANALYZE_ELAPSED" -ge 30 ]; then
    echo "verify: repro analyze took ${ANALYZE_ELAPSED}s (budget 30s)" >&2
    exit 1
fi
echo "repro analyze: ${ANALYZE_ELAPSED}s (budget 30s)"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== sweep benchmark tests =="
# bench/ sits outside pytest's testpaths: its --quick smoke of all four
# workloads, the mutated-record check and the BENCHMARK.json name check.
python -m pytest -q bench/tests

echo "== stepped oracle gate =="
REPRO_SIM=stepped python -m pytest -q \
    tests/test_sim_packed.py tests/test_sim_event.py tests/test_golden_trace.py \
    tests/test_golden_records.py

echo "== naive selector oracle gate =="
# The golden traces and the golden Fig. 8 records again under the Fig. 6
# rescan selector: both selectors read the same fabric state, so the
# records must not depend on which one decided.  (The packed selector's
# counter pins stay out: they pin how the packed one computes.)
REPRO_SELECTOR=naive python -m pytest -q \
    tests/test_golden_trace.py tests/test_golden_records.py

echo "== determinism gate =="
python scripts/check_determinism.py --jobs "$JOBS" --workers 2 \
    --json determinism.json

echo "verify: all gates passed"
