#!/usr/bin/env bash
# The repo's verification gate: static lint, tier-1 tests, byte-level
# determinism, and the benchmark smoke jobs.
#
#   bash scripts/verify.sh [--jobs N]
#
# The bench steps write the quick variants of BENCH_selector.json,
# BENCH_sim.json, BENCH_engine.json, BENCH_service.json and
# BENCH_store.json and fail on any A/B regression: differing results,
# the packed selector recomputing more profits than the naive one
# (repro.bench.check_gate), the packed engine reducing ECU cascade calls
# by less than the 5x threshold or missing its per-cell wall-clock
# speedup threshold over the stepped oracle (repro.bench.check_sim_gate),
# the construction memos cutting builds by less than 3x / the executor
# backends disagreeing (repro.bench.check_engine_gate), the always-on
# sweep service failing byte-identity against serial, missing its
# >= 1.5x aggregate throughput factor over sequential one-shot
# self-hosted fleets (repro.bench.check_service_gate), or the
# columnar result store losing
# byte-identity on the round-trip / missing its peak-memory ratio over
# in-memory aggregation (repro.bench.check_store_gate).  The sweep
# benchmark's own tests (bench/tests) run after tier-1.  Tier-1 runs
# the default packed engine; the stepped oracle gate re-runs the engine
# identity and golden suites with REPRO_SIM=stepped, so every run the
# suites leave to the default also goes through the literal Fig. 7 loop.
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
    tests/test_sim_packed.py tests/test_sim_event.py tests/test_golden_trace.py

echo "== determinism gate =="
python scripts/check_determinism.py --jobs "$JOBS" --workers 2 \
    --json determinism.json

echo "== selector bench smoke =="
python benchmarks/bench_selector.py --quick --out BENCH_selector.quick.json

echo "== sim engine bench smoke =="
python benchmarks/bench_sim.py --quick --out BENCH_sim.quick.json

echo "== sweep backend bench smoke =="
python benchmarks/bench_engine.py --quick --out BENCH_engine.quick.json

echo "== sweep service bench smoke =="
python benchmarks/bench_service.py --quick --out BENCH_service.quick.json

echo "== result store bench smoke =="
python benchmarks/bench_store.py --quick --out BENCH_store.quick.json

echo "verify: all gates passed"
