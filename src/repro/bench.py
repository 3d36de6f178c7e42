"""A/B microbenchmarks of the reproduction's hot paths.

Five suites -- four over the Fig. 8 reference workload (the H.264
encoder on the (CG fabrics x PRCs) budget grid), one over a synthetic
sweep -- all doubling as regression gates:

* ``selector`` -- naive vs. packed ISE selector: per-budget stats
  payloads must be byte-identical across both and the packed
  implementation must never compute more profits than the naive one
  (``BENCH_selector.json``).
* ``sim`` -- the stepped oracle vs. the packed production engine:
  per-budget stats payloads must be byte-identical, the packed engine
  must evaluate the ECU cascade at least :data:`SIM_REDUCTION_THRESHOLD`
  times less often and beat the stepped engine's per-cell wall clock by
  at least :data:`PACKED_SPEEDUP_THRESHOLD` (``BENCH_sim.json``).
* ``engine`` -- serial vs. pool vs. service sweep executor backends:
  cell records must be byte-identical across all three, and the per-worker
  construction memos must cut application builds + library compiles by at
  least :data:`ENGINE_REDUCTION_THRESHOLD` on the serial backend
  (``BENCH_engine.json``).
* ``service`` -- the always-on sweep daemon vs. one-shot fleets: four
  concurrent submissions of the same sweep through one ``repro serve``
  daemon must finish at least :data:`SERVICE_THROUGHPUT_THRESHOLD` times
  faster in aggregate than the same four sweeps run sequentially as
  one-shot self-hosted ``--backend service`` fleets, byte-identical to
  serial throughout (``BENCH_service.json``).  The win comes from
  sharing one worker fleet and serving repeats from the in-flight table
  and the network store.
* ``store`` -- in-memory result aggregation vs. the columnar result
  store: a deterministic synthetic sweep is aggregated once from a fully
  materialised row list and once streamed through
  ``ResultWriter``/``ResultReader``; stored rows must round-trip
  byte-identically, the two KPI summaries must match exactly, and the
  streamed leg's peak traced memory must beat the in-memory baseline by
  at least :data:`STORE_MEMORY_THRESHOLD` (``BENCH_store.json``).

:func:`main` (also reachable as ``repro bench --suite ...`` and via the
``benchmarks/bench_selector.py`` / ``benchmarks/bench_sim.py`` /
``benchmarks/bench_engine.py`` wrappers) exits non-zero when a gate
fails, which is what the verify script's smoke jobs rely on.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.core.selector import SELECTOR_MODES
from repro.fabric.resources import ResourceBudget
from repro.sim.simulator import ENGINE_MODES, Simulator
from repro.workloads.h264 import h264_application, h264_library

#: The Fig. 8 budget grid (CG fabrics 0..4 x PRCs 0..3).
FIG8_BUDGETS: Tuple[Tuple[int, int], ...] = tuple(
    (cg, prc) for cg in range(5) for prc in range(4)
)

#: Representative cut of the grid for the quick smoke run.
QUICK_BUDGETS: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (3, 2))

#: Minimum factor by which the packed engine must reduce ECU cascade calls
#: on the fig8 reference grid (the sim suite's perf gate).
SIM_REDUCTION_THRESHOLD = 5.0

#: Minimum per-cell wall-clock speedup of the packed engine over the
#: stepped reference on the full fig8 grid (the sim suite's second perf
#: gate; the committed BENCH_sim.json measures 39x).
PACKED_SPEEDUP_THRESHOLD = 10.0

#: Quick-run relaxation of the packed gate: tiny frame counts leave the
#: fixed per-run costs (library compile, selector set-up, packing)
#: dominant, so the smoke job only asserts a conservative floor.
PACKED_SPEEDUP_THRESHOLD_QUICK = 2.0

#: Minimum factor by which the construction memos must cut application
#: builds + library compiles on the fig8 grid (the engine suite's gate,
#: measured on the serial backend where all cells share one memo).
ENGINE_REDUCTION_THRESHOLD = 3.0

#: Backends exercised by the engine suite, reference first.
ENGINE_BACKENDS = ("serial", "pool", "service")

#: Minimum aggregate-throughput factor of N concurrent sweeps through the
#: always-on daemon over the same N sweeps run sequentially as one-shot
#: self-hosted service fleets (the service suite's gate).
SERVICE_THROUGHPUT_THRESHOLD = 1.5

#: Synthetic cells the store suite streams (full / quick tiers).
STORE_CELLS = 10_000
STORE_CELLS_QUICK = 1_000

#: Rows per columnar shard in the store suite (small enough that the
#: writer's buffer is a tiny fraction of the sweep).
STORE_SHARD_ROWS = 256

#: Minimum peak-traced-memory ratio of in-memory aggregation over
#: store-streamed aggregation at :data:`STORE_CELLS` cells (the store
#: suite's perf gate; measured ~40x on the reference machine).
STORE_MEMORY_THRESHOLD = 5.0

#: Quick-tier relaxation: at 10^3 cells fixed overheads (interpreter,
#: tracemalloc bookkeeping, shard buffers) weigh more, so the smoke job
#: only asserts a conservative floor.
STORE_MEMORY_THRESHOLD_QUICK = 2.0

#: Concurrent submissions the service suite drives.
SERVICE_SWEEPS = 4


def run_selector_bench(
    frames: int = 16,
    seed: int = 7,
    budgets: Optional[Sequence[Tuple[int, int]]] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark both selector implementations on the fig8 workload.

    Returns a JSON-able payload with per-mode counter totals, wall times,
    the profit-evaluation reduction factor and the equivalence verdict.
    """
    if budgets is None:
        budgets = QUICK_BUDGETS if quick else FIG8_BUDGETS
    if quick:
        frames = min(frames, 4)
    application = h264_application(frames=frames, seed=seed)

    modes: Dict[str, Dict[str, object]] = {}
    payloads: Dict[str, List[Dict[str, object]]] = {}
    for mode in SELECTOR_MODES:
        totals = {
            "profit_evaluations": 0,
            "evaluations_recomputed": 0,
            "evaluations_skipped": 0,
            "evaluations_pruned": 0,
            "selector_invalidations": 0,
            "selector_rounds": 0,
            "selections": 0,
            "total_cycles": 0,
        }
        payloads[mode] = []
        started = time.perf_counter()
        for cg, prc in budgets:
            budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
            library = h264_library(budget)
            policy = MRTS(MRTSConfig(selector_mode=mode))
            result = Simulator(application, library, budget, policy).run()
            stats = result.stats
            payloads[mode].append(stats.to_payload())
            totals["profit_evaluations"] += stats.profit_evaluations
            totals["evaluations_recomputed"] += stats.evaluations_recomputed
            totals["evaluations_skipped"] += stats.evaluations_skipped
            totals["evaluations_pruned"] += stats.evaluations_pruned
            totals["selector_invalidations"] += stats.selector_invalidations
            totals["selector_rounds"] += stats.selector_rounds
            totals["selections"] += stats.selections
            totals["total_cycles"] += stats.total_cycles
        wall = time.perf_counter() - started
        logical = totals["profit_evaluations"]
        avoided = totals["evaluations_skipped"] + totals["evaluations_pruned"]
        modes[mode] = dict(
            totals,
            wall_seconds=round(wall, 4),
            cache_hit_rate=(avoided / logical) if logical else 0.0,
        )

    naive = modes["naive"]
    packed = modes["packed"]
    identical = all(
        payloads[mode] == payloads[SELECTOR_MODES[0]]
        for mode in SELECTOR_MODES
    )
    recomputed = packed["evaluations_recomputed"]
    reduction = (
        naive["evaluations_recomputed"] / recomputed
        if recomputed
        else float("inf")
    )
    return {
        "benchmark": "selector",
        "workload": "h264 fig8 grid",
        "frames": frames,
        "seed": seed,
        "budgets": [list(b) for b in budgets],
        "quick": quick,
        "modes": modes,
        "identical_results": identical,
        "evaluation_reduction_factor": round(reduction, 3),
    }


def run_sim_bench(
    frames: int = 16,
    seed: int = 7,
    budgets: Optional[Sequence[Tuple[int, int]]] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark the stepped oracle and the packed engine on the fig8
    workload.

    Runs the mRTS policy over the budget grid once per engine and returns
    a JSON-able payload with per-engine counter totals, wall times, the
    ECU-call reduction factor and the equivalence verdict.
    """
    if budgets is None:
        budgets = QUICK_BUDGETS if quick else FIG8_BUDGETS
    if quick:
        frames = min(frames, 4)
    application = h264_application(frames=frames, seed=seed)

    engines: Dict[str, Dict[str, object]] = {}
    payloads: Dict[str, List[Dict[str, object]]] = {}
    for engine in ENGINE_MODES:
        totals = {
            "ecu_calls": 0,
            "executions_fastforwarded": 0,
            "events_processed": 0,
            "total_executions": 0,
            "total_cycles": 0,
        }
        payloads[engine] = []
        started = time.perf_counter()
        for cg, prc in budgets:
            budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
            library = h264_library(budget)
            policy = MRTS(MRTSConfig())
            result = Simulator(
                application, library, budget, policy, engine=engine
            ).run()
            stats = result.stats
            payloads[engine].append(stats.to_payload())
            totals["ecu_calls"] += stats.ecu_calls
            totals["executions_fastforwarded"] += (
                stats.executions_fastforwarded
            )
            totals["events_processed"] += stats.events_processed
            totals["total_executions"] += stats.total_executions
            totals["total_cycles"] += stats.total_cycles
        wall = time.perf_counter() - started
        executions = totals["total_executions"]
        engines[engine] = dict(
            totals,
            wall_seconds=round(wall, 4),
            fastforward_fraction=(
                totals["executions_fastforwarded"] / executions
                if executions
                else 0.0
            ),
        )

    stepped = engines["stepped"]
    packed = engines["packed"]
    identical = payloads["packed"] == payloads["stepped"]
    packed_calls = packed["ecu_calls"]
    reduction = (
        stepped["ecu_calls"] / packed_calls if packed_calls else float("inf")
    )
    packed_wall = packed["wall_seconds"]
    packed_speedup = (
        stepped["wall_seconds"] / packed_wall if packed_wall else float("inf")
    )
    return {
        "benchmark": "sim",
        "workload": "h264 fig8 grid",
        "frames": frames,
        "seed": seed,
        "budgets": [list(b) for b in budgets],
        "quick": quick,
        "engines": engines,
        "identical_results": identical,
        "ecu_call_reduction_factor": round(reduction, 3),
        "reduction_threshold": SIM_REDUCTION_THRESHOLD,
        "packed_speedup": round(packed_speedup, 3),
        "packed_speedup_threshold": (
            PACKED_SPEEDUP_THRESHOLD_QUICK if quick
            else PACKED_SPEEDUP_THRESHOLD
        ),
    }


def run_engine_bench(
    frames: int = 16,
    seed: int = 7,
    budgets: Optional[Sequence[Tuple[int, int]]] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark every executor backend on the fig8 sweep grid.

    Runs the same (budget x policy) cell grid through each backend of a
    fresh :class:`~repro.experiments.engine.SweepEngine` (cache off, memos
    cleared per backend so counters are comparable) and returns a
    JSON-able payload with per-backend engine counters, wall times, the
    construction-reduction factor and the equivalence verdict.
    """
    from repro.experiments.engine import SweepCell, SweepEngine, clear_build_memo

    if budgets is None:
        budgets = QUICK_BUDGETS if quick else FIG8_BUDGETS
    if quick:
        frames = min(frames, 4)
    policies = ("risc", "rispp", "offline-optimal", "morpheus4s", "mrts")
    cells = [
        SweepCell.make(
            (cg, prc), seed, policy,
            workload="h264", workload_params={"frames": frames},
        )
        for cg, prc in budgets
        for policy in policies
    ]

    backends: Dict[str, Dict[str, object]] = {}
    payloads: Dict[str, List[Dict[str, object]]] = {}
    for name in ENGINE_BACKENDS:
        clear_build_memo()
        eng = SweepEngine(
            jobs=2 if name == "pool" else 1,
            use_cache=False,
            backend=name,
            workers=2 if name == "service" else None,
        )
        started = time.perf_counter()
        payloads[name] = eng.run(cells)
        wall = time.perf_counter() - started
        stats = eng.stats
        built = stats.applications_built + stats.libraries_built
        logical = 2 * len(cells)
        backends[name] = dict(
            stats.engine_payload(),
            wall_seconds=round(wall, 4),
            construction_reduction_factor=(
                round(logical / built, 3) if built else float("inf")
            ),
        )
    clear_build_memo()

    identical = all(
        payloads[name] == payloads["serial"] for name in ENGINE_BACKENDS
    )
    return {
        "benchmark": "engine",
        "workload": "h264 fig8 grid",
        "frames": frames,
        "seed": seed,
        "budgets": [list(b) for b in budgets],
        "policies": list(policies),
        "cells": len(cells),
        "quick": quick,
        "backends": backends,
        "identical_results": identical,
        "construction_reduction_factor": (
            backends["serial"]["construction_reduction_factor"]
        ),
        "reduction_threshold": ENGINE_REDUCTION_THRESHOLD,
    }


def run_service_bench(
    frames: int = 16,
    seed: int = 7,
    budgets: Optional[Sequence[Tuple[int, int]]] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark the always-on daemon against one-shot fleets.

    Sequential leg: :data:`SERVICE_SWEEPS` identical sweeps, each through
    a fresh self-hosted ``--backend service`` run (spawn a two-worker
    fleet with a private store, handshake, sweep, tear down -- the cost
    of N submitters without a shared daemon).  Service leg: one
    thread-embedded daemon (startup included in the measured wall), the
    same sweeps submitted concurrently; repeats are served from the
    in-flight table and the shared store instead of recomputing.  All
    runs must stay byte-identical to a serial reference.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.experiments.engine import (
        SweepCell, SweepEngine, clear_build_memo,
    )
    from repro.service.daemon import start_service_thread

    if budgets is None:
        budgets = QUICK_BUDGETS if quick else FIG8_BUDGETS
    if quick:
        frames = min(frames, 3)
    policies = ("risc", "mrts")
    cells = [
        SweepCell.make(
            (cg, prc), seed, policy,
            workload="h264", workload_params={"frames": frames},
        )
        for cg, prc in budgets
        for policy in policies
    ]

    clear_build_memo()
    reference = SweepEngine(use_cache=False, backend="serial").run(cells)

    clear_build_memo()
    started = time.perf_counter()
    sequential_identical = True
    for _ in range(SERVICE_SWEEPS):
        eng = SweepEngine(use_cache=False, backend="service", workers=2)
        sequential_identical &= eng.run(cells) == reference
    sequential_wall = time.perf_counter() - started

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    clear_build_memo()
    try:
        started = time.perf_counter()
        handle = start_service_thread(workers=2, cache_dir=cache_dir)
        try:
            def _submit(_index: int):
                eng = SweepEngine(
                    use_cache=False,
                    backend="service",
                    coordinator=handle.coordinator,
                )
                return eng.run(cells), eng.stats.engine_payload()

            with ThreadPoolExecutor(max_workers=SERVICE_SWEEPS) as pool:
                runs = list(pool.map(_submit, range(SERVICE_SWEEPS)))
            service_wall = time.perf_counter() - started
        finally:
            handle.stop()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    service_identical = all(records == reference for records, _ in runs)
    stats = [payload for _, payload in runs]
    service_counters = {
        name: sum(s[name] for s in stats)
        for name in (
            "frames_sent", "remote_cache_hits", "jobs_completed",
            "worker_restarts",
        )
    }
    throughput = (
        sequential_wall / service_wall if service_wall else float("inf")
    )
    return {
        "benchmark": "service",
        "workload": "h264 fig8 grid",
        "frames": frames,
        "seed": seed,
        "budgets": [list(b) for b in budgets],
        "policies": list(policies),
        "cells": len(cells),
        "sweeps": SERVICE_SWEEPS,
        "quick": quick,
        "sequential_wall_seconds": round(sequential_wall, 4),
        "service_wall_seconds": round(service_wall, 4),
        "service_counters": service_counters,
        "identical_results": sequential_identical and service_identical,
        "throughput_factor": round(throughput, 3),
        "throughput_threshold": SERVICE_THROUGHPUT_THRESHOLD,
    }


def render(payload: Dict[str, object]) -> str:
    """Human-readable summary of a bench payload."""
    lines = [
        f"selector bench on {payload['workload']} "
        f"(frames={payload['frames']}, seed={payload['seed']}, "
        f"{len(payload['budgets'])} budgets)"
    ]
    for mode, totals in payload["modes"].items():
        lines.append(
            f"  {mode:11s} recomputed={totals['evaluations_recomputed']:,} "
            f"skipped={totals['evaluations_skipped']:,} "
            f"pruned={totals['evaluations_pruned']:,} "
            f"of {totals['profit_evaluations']:,} logical "
            f"({totals['wall_seconds']}s)"
        )
    lines.append(
        f"  reduction: {payload['evaluation_reduction_factor']}x fewer "
        f"profit computations; identical results: "
        f"{payload['identical_results']}"
    )
    return "\n".join(lines)


def render_sim(payload: Dict[str, object]) -> str:
    """Human-readable summary of a sim bench payload."""
    lines = [
        f"sim engine bench on {payload['workload']} "
        f"(frames={payload['frames']}, seed={payload['seed']}, "
        f"{len(payload['budgets'])} budgets)"
    ]
    for engine, totals in payload["engines"].items():
        lines.append(
            f"  {engine:8s} ecu_calls={totals['ecu_calls']:,} "
            f"fastforwarded={totals['executions_fastforwarded']:,} "
            f"events={totals['events_processed']:,} "
            f"of {totals['total_executions']:,} executions "
            f"({totals['wall_seconds']}s)"
        )
    lines.append(
        f"  reduction: {payload['ecu_call_reduction_factor']}x fewer ECU "
        f"cascade calls (threshold {payload['reduction_threshold']}x); "
        f"identical results: {payload['identical_results']}"
    )
    lines.append(
        f"  packed speedup: {payload['packed_speedup']}x per-cell wall "
        f"clock over stepped (threshold "
        f"{payload['packed_speedup_threshold']}x)"
    )
    return "\n".join(lines)


def render_engine(payload: Dict[str, object]) -> str:
    """Human-readable summary of an engine bench payload."""
    lines = [
        f"sweep backend bench on {payload['workload']} "
        f"(frames={payload['frames']}, seed={payload['seed']}, "
        f"{payload['cells']} cells over {len(payload['budgets'])} budgets)"
    ]
    for name, totals in payload["backends"].items():
        lines.append(
            f"  {name:11s} apps_built={totals['applications_built']:,} "
            f"libs_built={totals['libraries_built']:,} "
            f"saved={totals['builds_saved']:,} "
            f"frames={totals['frames_sent']:,} "
            f"restarts={totals['worker_restarts']:,} "
            f"({totals['wall_seconds']}s)"
        )
    lines.append(
        f"  reduction: {payload['construction_reduction_factor']}x fewer "
        f"constructions (threshold {payload['reduction_threshold']}x); "
        f"identical results: {payload['identical_results']}"
    )
    return "\n".join(lines)


def render_service(payload: Dict[str, object]) -> str:
    """Human-readable summary of a service bench payload."""
    counters = payload["service_counters"]
    return "\n".join([
        f"sweep service bench on {payload['workload']} "
        f"(frames={payload['frames']}, seed={payload['seed']}, "
        f"{payload['sweeps']}x {payload['cells']} cells)",
        f"  sequential one-shot fleets: "
        f"{payload['sequential_wall_seconds']}s",
        f"  concurrent via daemon:      "
        f"{payload['service_wall_seconds']}s",
        f"  service counters: frames={counters['frames_sent']:,} "
        f"remote_hits={counters['remote_cache_hits']:,} "
        f"jobs={counters['jobs_completed']:,} "
        f"restarts={counters['worker_restarts']:,}",
        f"  throughput: {payload['throughput_factor']}x aggregate "
        f"(threshold {payload['throughput_threshold']}x); identical "
        f"results: {payload['identical_results']}",
    ])


def check_gate(payload: Dict[str, object]) -> List[str]:
    """The regression conditions the verify smoke job enforces.

    Returns a list of failure messages (empty = pass): the two selector
    implementations must produce byte-identical stats, and the packed
    one must not compute more profits than the naive one.
    """
    failures = []
    if not payload["identical_results"]:
        failures.append("naive and packed selector stats differ")
    naive = payload["modes"]["naive"]["evaluations_recomputed"]
    packed = payload["modes"]["packed"]["evaluations_recomputed"]
    if packed > naive:
        failures.append(
            f"packed selector recomputed more profits than naive "
            f"({packed} > {naive})"
        )
    return failures


def check_sim_gate(payload: Dict[str, object]) -> List[str]:
    """The regression conditions of the sim suite (empty = pass): both
    engines must produce byte-identical stats, and the packed engine must
    reduce ECU cascade calls by at least the threshold factor and beat
    the stepped wall clock by at least the packed-speedup threshold."""
    failures = []
    if not payload["identical_results"]:
        failures.append("stepped and packed engine stats differ")
    reduction = payload["ecu_call_reduction_factor"]
    threshold = payload["reduction_threshold"]
    if reduction < threshold:
        failures.append(
            f"packed engine reduced ECU calls only {reduction}x "
            f"(threshold {threshold}x)"
        )
    speedup = payload["packed_speedup"]
    speedup_threshold = payload["packed_speedup_threshold"]
    if speedup < speedup_threshold:
        failures.append(
            f"packed engine sped up wall clock only {speedup}x "
            f"(threshold {speedup_threshold}x)"
        )
    return failures


def check_engine_gate(payload: Dict[str, object]) -> List[str]:
    """The regression conditions of the engine suite (empty = pass): every
    backend must produce byte-identical cell records, and the construction
    memos must cut builds by at least the threshold factor on the serial
    backend (the pool/service backends split the memo across worker
    processes, so only the serial counters are deterministic)."""
    failures = []
    if not payload["identical_results"]:
        failures.append("executor backends produced differing cell records")
    reduction = payload["construction_reduction_factor"]
    threshold = payload["reduction_threshold"]
    if reduction < threshold:
        failures.append(
            f"memos reduced constructions only {reduction}x "
            f"(threshold {threshold}x)"
        )
    return failures


def check_service_gate(payload: Dict[str, object]) -> List[str]:
    """The regression conditions of the service suite (empty = pass):
    every sweep -- sequential or through the daemon -- must match the
    serial reference byte-for-byte, the daemon must beat the one-shot
    fleets' aggregate throughput by at least the threshold factor."""
    failures = []
    if not payload["identical_results"]:
        failures.append(
            "service sweeps diverged from the serial reference"
        )
    throughput = payload["throughput_factor"]
    threshold = payload["throughput_threshold"]
    if throughput < threshold:
        failures.append(
            f"daemon improved aggregate throughput only {throughput}x "
            f"(threshold {threshold}x)"
        )
    return failures


class _ListRows:
    """In-memory stand-in for ``ResultReader``'s aggregation surface.

    The store suite's baseline leg aggregates a fully materialised row
    list through the *same* KPI code path as the streamed leg, so the
    two summaries are comparable and the only variable is where the rows
    live."""

    def __init__(self, rows_list):
        self._rows = rows_list
        self.rows = len(rows_list)

    def group_fold(self, key, fn, init, fields=None):
        """Same contract as :meth:`ResultReader.group_fold`, over the list."""
        groups = {}
        for row in self._rows:
            group = key(row)
            if group not in groups:
                groups[group] = init()
            groups[group] = fn(groups[group], row)
        return groups


def run_store_bench(
    frames: int = 16, seed: int = 7, quick: bool = False
) -> Dict[str, object]:
    """Benchmark columnar-store streaming against in-memory aggregation.

    Two legs over the same deterministic synthetic sweep
    (:mod:`repro.results.synth`), each wrapped in ``tracemalloc``:

    * **in-memory**: materialise every row in a list, aggregate the KPI
      summary from the list (today's ``engine.run`` shape);
    * **store**: generate-append-drop each row through a
      :class:`ResultWriter` (bounded shard buffer), then aggregate the
      same KPI summary through :class:`ResultReader`'s streamed
      group-fold.

    The payload reports both peaks, their ratio (gated), write/fold
    throughput, and two identity bits: every stored row must decode
    byte-identically to its regenerated original, and the two KPI
    summaries must match exactly.
    """
    import shutil
    import tempfile
    import tracemalloc

    from repro.results.kpi import speedup_summary
    from repro.results.schema import canonical_json
    from repro.results.store import ResultReader, ResultWriter
    from repro.results.synth import synthetic_row, synthetic_rows

    cells = STORE_CELLS_QUICK if quick else STORE_CELLS

    # Leg 1: the in-memory baseline (list of rows + aggregation).
    tracemalloc.start()
    rows_list = list(synthetic_rows(cells, seed=seed))
    summary_memory = speedup_summary(_ListRows(rows_list))
    peak_memory = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del rows_list

    # Leg 2: streamed through the columnar store.
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        tracemalloc.start()
        write_start = time.perf_counter()
        writer = ResultWriter(root, sweep="bench", shard_rows=STORE_SHARD_ROWS)
        for index, cell, record in synthetic_rows(cells, seed=seed):
            writer.append(index, cell, record)
        path = writer.close()
        write_elapsed = time.perf_counter() - write_start
        reader = ResultReader(path)
        fold_start = time.perf_counter()
        summary_store = speedup_summary(reader)
        fold_elapsed = time.perf_counter() - fold_start
        peak_store = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        # Byte-identity: every stored row decodes back to its original.
        roundtrip_ok = True
        decoded = 0
        for index, cell, record in reader.iter_rows():
            _, cell2, record2 = synthetic_row(index, seed=seed)
            if canonical_json([cell, record]) != canonical_json([cell2, record2]):
                roundtrip_ok = False
                break
            decoded += 1
        roundtrip_ok = roundtrip_ok and decoded == cells
        stored_bytes = sum(
            entry["bytes"] for entry in reader.manifest["shards"]
        )
        shards = len(reader.manifest["shards"])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    threshold = STORE_MEMORY_THRESHOLD_QUICK if quick else STORE_MEMORY_THRESHOLD
    return {
        "suite": "store",
        "quick": quick,
        "cells": cells,
        "shard_rows": STORE_SHARD_ROWS,
        "peak_bytes_in_memory": peak_memory,
        "peak_bytes_store": peak_store,
        "memory_ratio": round(peak_memory / peak_store, 2) if peak_store else 0.0,
        "memory_threshold": threshold,
        "identical_results": roundtrip_ok,
        "kpi_match": canonical_json(summary_store) == canonical_json(summary_memory),
        "stored_bytes": stored_bytes,
        "shards": shards,
        "write_cells_per_sec": round(cells / write_elapsed, 1),
        "fold_cells_per_sec": round(cells / fold_elapsed, 1),
        "kpi_groups": summary_store["groups"],
    }


def render_store(payload: Dict[str, object]) -> str:
    """Human-readable summary of the store suite's payload."""
    from repro.util.tables import render_table

    rows = [
        ["in-memory", payload["peak_bytes_in_memory"], "-"],
        ["store", payload["peak_bytes_store"],
         f"{payload['memory_ratio']}x lower"],
    ]
    table = render_table(
        ["aggregation", "peak bytes", "vs in-memory"],
        rows,
        title=(
            f"store suite: {payload['cells']} synthetic cells, "
            f"{payload['shards']} shards of {payload['shard_rows']} rows"
        ),
    )
    return (
        f"{table}\n"
        f"round-trip byte-identical: {payload['identical_results']}; "
        f"KPI summaries match: {payload['kpi_match']}\n"
        f"write {payload['write_cells_per_sec']} cells/s, "
        f"streamed fold {payload['fold_cells_per_sec']} cells/s, "
        f"{payload['stored_bytes']} bytes on disk"
    )


def check_store_gate(payload: Dict[str, object]) -> List[str]:
    """The regression conditions of the store suite (empty = pass): the
    stored rows must round-trip byte-identically, the streamed KPI summary
    must equal the in-memory one, and peak traced memory must beat the
    in-memory baseline by at least the threshold factor."""
    failures = []
    if not payload["identical_results"]:
        failures.append("stored rows did not round-trip byte-identically")
    if not payload["kpi_match"]:
        failures.append("streamed KPI summary diverged from in-memory")
    ratio = payload["memory_ratio"]
    threshold = payload["memory_threshold"]
    if ratio < threshold:
        failures.append(
            f"store cut peak memory only {ratio}x "
            f"(threshold {threshold}x)"
        )
    return failures


#: suite name -> (runner, renderer, gate, default output file)
SUITES = {
    "selector": (
        run_selector_bench, render, check_gate, "BENCH_selector.json"
    ),
    "sim": (run_sim_bench, render_sim, check_sim_gate, "BENCH_sim.json"),
    "engine": (
        run_engine_bench, render_engine, check_engine_gate,
        "BENCH_engine.json",
    ),
    "service": (
        run_service_bench, render_service, check_service_gate,
        "BENCH_service.json",
    ),
    "store": (
        run_store_bench, render_store, check_store_gate,
        "BENCH_store.json",
    ),
}


def main(argv=None) -> int:
    """CLI entry point: run the suite, write the JSON payload, gate."""
    import argparse

    parser = argparse.ArgumentParser(
        description="A/B benchmark the repro's hot paths "
        "(selector implementations, simulator engines)"
    )
    parser.add_argument("--suite", choices=sorted(SUITES), default="selector",
                        help="which benchmark to run (default: selector)")
    parser.add_argument("--quick", action="store_true",
                        help="small frame count and budget cut (CI smoke)")
    parser.add_argument("--frames", type=int, default=16)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None,
                        help="where to write the JSON payload "
                        "(default: BENCH_<suite>.json)")
    args = parser.parse_args(argv)

    run, render_suite, gate, default_out = SUITES[args.suite]
    out = args.out or default_out
    payload = run(frames=args.frames, seed=args.seed, quick=args.quick)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_suite(payload))
    print(f"wrote {out}")
    failures = gate(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


__all__ = [
    "ENGINE_BACKENDS",
    "ENGINE_REDUCTION_THRESHOLD",
    "FIG8_BUDGETS",
    "PACKED_SPEEDUP_THRESHOLD",
    "PACKED_SPEEDUP_THRESHOLD_QUICK",
    "QUICK_BUDGETS",
    "SERVICE_SWEEPS",
    "SERVICE_THROUGHPUT_THRESHOLD",
    "SIM_REDUCTION_THRESHOLD",
    "STORE_CELLS",
    "STORE_CELLS_QUICK",
    "STORE_MEMORY_THRESHOLD",
    "STORE_MEMORY_THRESHOLD_QUICK",
    "STORE_SHARD_ROWS",
    "SUITES",
    "check_engine_gate",
    "check_gate",
    "check_service_gate",
    "check_sim_gate",
    "check_store_gate",
    "main",
    "render",
    "render_engine",
    "render_service",
    "render_sim",
    "render_store",
    "run_engine_bench",
    "run_selector_bench",
    "run_service_bench",
    "run_sim_bench",
    "run_store_bench",
]
