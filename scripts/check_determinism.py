#!/usr/bin/env python
"""Determinism and regression gate for the sweep engine.

Six checks, all byte-level:

1. **Serial == parallel**: a reference 36-cell sweep executed in-process
   and through a ``--jobs``-wide process pool must serialise identically.
2. **Fresh == cached**: re-running the same sweep against the cache it
   just populated must serialise identically.
3. **Backends agree**: the same sweep, plus one cell of each experiment
   shape (policy params, a task-level period, the traced energy metric,
   a contended run, a two-application co-run), routed through every
   registered executor backend (serial, pool, and a self-hosted
   sweep-service daemon with ``--workers`` local socket workers) must
   serialise identically, and the service leg's transport counters must show it
   compressed and coalesced at least one result block -- proof the
   binary wire's block path ran.  Two more, different sweeps then go
   through the same pool engine, whose warm workers must still match
   serial; the second is shaped like the fig8-pool benchmark (one
   budget x two seeds x five policies).
4. **Service golden cells**: the committed golden scenarios, expressed as
   sweep cells and routed through ``--backend service``, must serialise
   identically to the serial backend.
5. **Store round-trip**: the reference sweep and the golden cells
   streamed through a columnar ``ResultWriter`` and read back from the
   committed shards must serialise identically to the in-memory serial
   records -- the ``--store`` path must never alter a byte.
6. **Golden traces**: every committed reference snapshot under
   ``tests/golden/`` (H.264 deblocking and the JPEG encoder) must match a
   fresh simulation exactly -- under every ``REPRO_SIM`` engine (the
   stepped oracle and the packed engine), which pins the engines'
   byte-identity contract at the gate level.  An untraced replay per
   engine checks the stats alone, on the packed engine's folding path.

Exit status is non-zero on any mismatch, so CI can gate on it::

    PYTHONPATH=src python scripts/check_determinism.py --jobs 4 --workers 2

``--json [PATH]`` additionally emits a machine-readable summary (to stdout
when PATH is ``-``), shape-aligned with ``repro lint --format json``::

    {"gate": "determinism", "ok": true, "checks": [
        {"name": "serial-parallel", "ok": true, "details": [...]}, ...]}

After an *intentional* simulation-behaviour change, refresh the snapshots
(the golden traces and ``tests/golden/fig8_records.json``, which
``tests/test_golden_records.py`` checks)::

    PYTHONPATH=src python scripts/check_determinism.py --update-golden
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Dict, List

from repro.experiments.engine import SweepCell, SweepEngine
from repro.sim.simulator import ENGINE_MODES
from repro.verification.golden import (
    GOLDEN_SCENARIOS,
    diff_golden,
    golden_path,
    golden_payload,
    load_golden,
    write_all_golden,
)

#: 3 budgets x 6 seeds x 2 policies = 36 reference cells.
REFERENCE_CELLS = [
    dict(budget=budget, seed=seed, policy=policy)
    for budget in [(1, 1), (2, 2), (3, 3)]
    for seed in range(6)
    for policy in ("risc", "mrts")
]
WORKLOAD_PARAMS = {"frames": 3, "scale": 0.4}

#: The second sweep of the warm-worker leg: two of the reference budgets
#: (warm libraries) under new seeds and policies (new applications).
WARM_CELLS = [
    dict(budget=budget, seed=seed, policy=policy)
    for budget in [(3, 3), (1, 1)]
    for seed in range(4, 10)
    for policy in ("rispp", "mrts")
]

#: The third sweep of the warm-worker leg, shaped like the fig8-pool
#: benchmark: one budget x two new application seeds x the five Fig. 8
#: policies.  On two workers it goes out as one batch per application.
FIG8_POOL_CELLS = [
    dict(budget=(2, 2), seed=seed, policy=policy)
    for seed in (10, 11)
    for policy in ("risc", "rispp", "offline-optimal", "morpheus4s", "mrts")
]


#: One cell of each shape the experiments run as: an ablation
#: (``MRTSConfig`` overrides as policy params), a task-level re-decision
#: period, the traced ``energy`` metric, a contended run and a co-run of
#: the H.264 encoder with a JPEG encoder on one fabric.
EXPERIMENT_CELLS = [
    dict(budget=(2, 2), seed=0, policy="mrts",
         policy_params={"enable_monocg": False}),
    dict(budget=(2, 2), seed=0, policy="task-level",
         policy_params={"reselect_every_blocks": 3}),
    dict(budget=(2, 2), seed=1, policy="mrts", metrics={"energy": {}}),
    dict(budget=(2, 3), seed=1, policy="mrts",
         contention={"period": 925_000, "duty_prcs": 2, "duty_cg_slots": 4,
                     "until": 14_800_000}),
    dict(budget=(2, 2), seed=2, policy="mrts",
         co_tasks=[{"workload": "jpeg", "seed": 3, "policy": "mrts",
                    "workload_params": {"images": 1, "blocks_per_image": 60}}]),
]


def reference_cells(specs=REFERENCE_CELLS):
    return [
        SweepCell.make(workload_params=WORKLOAD_PARAMS, **spec)
        for spec in specs
    ]


def _check(name: str, ok: bool, details: List[str]) -> Dict[str, object]:
    return {"name": name, "ok": ok, "details": details}


def check_engine(jobs: int) -> List[Dict[str, object]]:
    """The serial/parallel and fresh/cached checks, as summary records."""
    cells = reference_cells()
    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        serial = SweepEngine(jobs=1, use_cache=False).run(cells)
        parallel_engine = SweepEngine(jobs=jobs, use_cache=True, cache_dir=tmp)
        parallel = parallel_engine.run(cells)
        cached = parallel_engine.run(cells)

    checks: List[Dict[str, object]] = []
    if json.dumps(serial) != json.dumps(parallel):
        checks.append(_check(
            "serial-parallel", False,
            [f"serial and --jobs {jobs} records differ"],
        ))
    else:
        checks.append(_check(
            "serial-parallel", True,
            [f"{len(cells)} cells, {jobs} jobs"],
        ))

    cache_details: List[str] = []
    cache_ok = True
    if json.dumps(parallel) != json.dumps(cached):
        cache_ok = False
        cache_details.append("fresh and cache-served records differ")
    elif parallel_engine.stats.cache_hits != len(cells):
        cache_ok = False
        cache_details.append(
            f"expected {len(cells)} cache hits, "
            f"got {parallel_engine.stats.cache_hits}"
        )
    else:
        cache_details.append(f"{parallel_engine.stats.cache_hits} hits")
    checks.append(_check("fresh-cached", cache_ok, cache_details))
    return checks


def check_backends(jobs: int, workers: int) -> Dict[str, object]:
    """Every registered executor backend must serialise identically, on
    the reference sweep plus one cell of each experiment shape
    (:data:`EXPERIMENT_CELLS`).

    The serial and pool engines then run two more, different sweeps
    (:data:`WARM_CELLS`, then the fig8-pool-shaped
    :data:`FIG8_POOL_CELLS`): the pool engine's workers, forked for the
    first sweep, serve them from warm memos, and must still match serial.
    """
    from repro.experiments.backends import backend_names

    cells = reference_cells() + reference_cells(EXPERIMENT_CELLS)
    warm_sweeps = [reference_cells(WARM_CELLS), reference_cells(FIG8_POOL_CELLS)]
    serialised: Dict[str, str] = {}
    warm: Dict[str, List[str]] = {}
    stats: Dict[str, str] = {}
    failures: List[str] = []
    for name in backend_names():
        engine = SweepEngine(
            jobs=jobs if name == "pool" else 1,
            use_cache=False,
            backend=name,
            workers=workers if name == "service" else None,
        )
        with engine:
            serialised[name] = json.dumps(engine.run(cells))
            # Which socket worker takes which batch decides the service
            # leg's memo hits, so its saved builds vary from run to run
            # and stay off the line.
            saved = (
                "" if name == "service"
                else f"saved {engine.stats.builds_saved} builds, "
            )
            stats[name] = (
                f"{name}: {saved}"
                f"{engine.stats.frames_sent} frames, "
                f"{engine.stats.worker_restarts} restarts"
            )
            if name in ("serial", "pool"):
                warm[name] = []
                for warm_cells in warm_sweeps:
                    warm[name].append(json.dumps(engine.run(warm_cells)))
                    stats[name] += (
                        f"; then {len(warm_cells)} new cells, "
                        f"{engine.stats.libraries_built} libraries and "
                        f"{engine.stats.applications_built} applications built, "
                        f"{engine.stats.frames_sent} frames"
                    )
        if name == "service":
            counters = engine.stats
            stats[name] += (
                f", {counters.bytes_sent}B out, "
                f"{counters.bytes_received}B in, "
                f"{counters.frames_coalesced} coalesced, "
                f"{counters.blocks_compressed} compressed"
            )
            if not (counters.blocks_compressed and counters.frames_coalesced):
                failures.append(
                    "service: no compressed or coalesced result blocks -- "
                    "binary wire block path not exercised"
                )
    reference = serialised["serial"]
    failures.extend(
        f"backend {name!r} records differ from serial"
        for name in sorted(serialised)
        if serialised[name] != reference
    )
    failures.extend(
        f"backend 'pool' records differ from serial on warm sweep {k + 2} "
        f"({len(warm_sweeps[k])} cells, warm workers)"
        for k, (pool, serial) in enumerate(zip(warm["pool"], warm["serial"]))
        if pool != serial
    )
    if failures:
        return _check("backends-agree", False, failures)
    return _check(
        "backends-agree", True,
        [f"{len(cells)} cells through {sorted(serialised)}"]
        + [stats[name] for name in sorted(stats)],
    )


def golden_cells() -> List[SweepCell]:
    """The committed golden scenarios expressed as sweep cells."""
    cells = []
    for scenario in sorted(GOLDEN_SCENARIOS):
        spec = dict(GOLDEN_SCENARIOS[scenario])
        workload = spec.pop("workload")
        policy = spec.pop("policy")
        budget = spec.pop("budget")
        seed = spec.pop("seed")
        # What remains in the spec is the workload's parameter set.
        cells.append(SweepCell.make(
            budget=(budget[0], budget[1]),
            seed=seed,
            policy=policy,
            workload=workload,
            workload_params=spec,
        ))
    return cells


def check_service_golden(workers: int) -> Dict[str, object]:
    """The golden scenarios through ``--backend service`` must match the
    serial backend byte-for-byte (the service acceptance gate)."""
    cells = golden_cells()
    serial = json.dumps(SweepEngine(use_cache=False).run(cells))
    engine = SweepEngine(use_cache=False, backend="service", workers=workers)
    service = json.dumps(engine.run(cells))
    if serial != service:
        return _check(
            "service-golden-cells", False,
            ["service-backend records differ from serial on the golden "
             "scenarios"],
        )
    return _check(
        "service-golden-cells", True,
        [f"{len(cells)} golden cells, "
         f"{engine.stats.jobs_completed} service job(s), "
         f"{engine.stats.frames_sent} frames"],
    )


def check_store_roundtrip() -> Dict[str, object]:
    """Streaming through the columnar store must never alter a byte.

    Both the reference sweep and the golden cells run twice: once through
    ``SweepEngine.run`` (in-memory), once through ``run_streamed`` into a
    ``ResultWriter`` whose committed shards are read back and reassembled
    by sweep index.  The two serialisations must match exactly.
    """
    from repro.results import ResultReader, ResultWriter

    details: List[str] = []
    failures: List[str] = []
    suites = [
        ("reference", reference_cells()),
        ("golden", golden_cells()),
    ]
    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        for name, cells in suites:
            engine = SweepEngine(jobs=1, use_cache=False)
            in_memory = engine.run(cells)
            writer = ResultWriter(tmp, sweep=name, shard_rows=16)
            engine.run_streamed(cells, writer.sink)
            path = writer.close(engine_stats=engine.stats.engine_payload())
            reader = ResultReader(path)
            stored = reader.records_by_index()
            restored = [stored.get(i) for i in range(len(cells))]
            if json.dumps(restored) != json.dumps(in_memory):
                failures.append(
                    f"{name} cells: stored records differ from in-memory"
                )
            else:
                details.append(
                    f"{name}: {len(cells)} cells through "
                    f"{len(reader.manifest['shards'])} shard(s)"
                )
    if failures:
        return _check("store-roundtrip", False, failures)
    return _check("store-roundtrip", True, details)


def check_golden() -> Dict[str, object]:
    """The golden-trace check, as a summary record.

    Every committed scenario is replayed under every ``REPRO_SIM`` engine
    against the same snapshot, so the gate fails both on a behaviour drift
    and on an engine losing byte-identity.  Each engine replays it twice:
    traced against the whole snapshot, and untraced -- where the packed
    engine folds -- against its ``spec`` and ``stats``."""
    details: List[str] = []
    failures: List[str] = []
    for scenario in sorted(GOLDEN_SCENARIOS):
        path = golden_path(scenario)
        if not path.exists():
            failures.append(f"golden snapshot missing at {path}")
            continue
        committed = load_golden(path)
        untraced = {key: committed.get(key) for key in ("spec", "stats")}
        for engine in ENGINE_MODES:
            for expected, collect_trace in ((committed, True), (untraced, False)):
                problems = diff_golden(
                    expected,
                    golden_payload(
                        scenario, engine=engine, collect_trace=collect_trace
                    ),
                )
                if problems:
                    failures.append(
                        f"{scenario} under engine={engine}, "
                        f"{'traced' if collect_trace else 'untraced'}:"
                    )
                    failures.extend(f"  {problem}" for problem in problems)
        details.append(
            f"{path.name} x {len(ENGINE_MODES)} engines, traced and untraced"
        )
    if failures:
        return _check("golden-trace", False, failures)
    return _check("golden-trace", True, details)


def render_text(checks: List[Dict[str, object]]) -> str:
    lines = []
    for check in checks:
        if check["ok"]:
            detail = "; ".join(check["details"])
            lines.append(f"ok: {check['name']} ({detail})")
        else:
            lines.append(f"FAIL: {check['name']}")
            for detail in check["details"]:
                lines.append(f"  - {detail}")
            if check["name"] == "golden-trace":
                lines.append(
                    "  (intentional change? re-run with --update-golden)"
                )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width for the parallel leg (default 4)")
    parser.add_argument("--workers", type=int, default=2,
                        help="socket workers of the self-hosted service "
                             "legs (default 2)")
    parser.add_argument("--skip-engine", action="store_true",
                        help="only check the golden trace")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate every golden snapshot and exit")
    parser.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="write a machine-readable summary to PATH "
                             "('-' or no value: stdout)")
    args = parser.parse_args(argv)

    if args.update_golden:
        for path in write_all_golden():
            print(f"wrote {path}")
        return 0

    checks: List[Dict[str, object]] = []
    if not args.skip_engine:
        checks.extend(check_engine(args.jobs))
        checks.append(check_backends(args.jobs, args.workers))
        checks.append(check_service_golden(args.workers))
        checks.append(check_store_roundtrip())
    checks.append(check_golden())
    ok = all(check["ok"] for check in checks)

    summary = {"gate": "determinism", "ok": ok, "checks": checks}
    if args.json == "-":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_text(checks))
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
