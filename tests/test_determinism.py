"""Byte-level determinism of the sweep engine, its backends and its store.

Every check serialises whole record lists with ``json.dumps`` and compares
the text:

* **serial == parallel**: the 36-cell reference sweep in-process and
  through a 2-wide process pool;
* **fresh == cached**: the same sweep again on the pool engine, served
  from the cache the first run filled (36 hits);
* **backends agree**: the reference sweep plus one cell of each
  experiment shape (policy params, a task-level period, the traced energy
  metric, a contended run, a two-application co-run) through every
  registered executor backend -- serial, pool and a self-hosted
  sweep-service daemon with two local socket workers -- whose service leg
  must compress and coalesce at least one result block; the pool engine's
  warm workers then serve two more, different sweeps, which must still
  match serial;
* **service golden cells**: the golden-trace scenarios as sweep cells,
  through the service backend and serially;
* **store round-trip**: the reference sweep and the golden cells streamed
  through a ``ResultWriter`` (16-row shards) and read back.

The golden traces themselves (every scenario under both engines and both
selectors, traced and untraced) are checked in
``tests/test_golden_trace.py``.  Each engine run happens once, in a
module-scoped fixture, and the tests compare its outputs.
"""

import json

import pytest

from repro.experiments.backends import backend_names
from repro.experiments.engine import SweepCell, SweepEngine
from repro.results import ResultReader, ResultWriter
from repro.verification.golden import GOLDEN_SCENARIOS

#: Pool width and service socket workers of every parallel leg.
JOBS = 2
WORKERS = 2

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

#: The warm-worker leg's sweeps, in the order one engine runs them.
WARM_SWEEPS = {"warm": WARM_CELLS, "fig8-pool": FIG8_POOL_CELLS}


def reference_cells(specs=REFERENCE_CELLS):
    return [
        SweepCell.make(workload_params=WORKLOAD_PARAMS, **spec)
        for spec in specs
    ]


def golden_cells():
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


# -------------------------------------------- serial, parallel and cached


@pytest.fixture(scope="module")
def reference_runs(tmp_path_factory):
    """The reference sweep serially, then twice on one cached pool engine."""
    cells = reference_cells()
    serial = SweepEngine(jobs=1, use_cache=False).run(cells)
    with SweepEngine(
        jobs=JOBS, use_cache=True,
        cache_dir=tmp_path_factory.mktemp("determinism-cache"),
    ) as engine:
        parallel = engine.run(cells)
        cached = engine.run(cells)
        hits = engine.stats.cache_hits
    return {
        "cells": len(cells),
        "serial": json.dumps(serial),
        "parallel": json.dumps(parallel),
        "cached": json.dumps(cached),
        "hits": hits,
    }


def test_serial_equals_parallel(reference_runs):
    assert reference_runs["parallel"] == reference_runs["serial"]


def test_fresh_equals_cached(reference_runs):
    assert reference_runs["cached"] == reference_runs["parallel"]
    assert reference_runs["hits"] == reference_runs["cells"] == 36


# ------------------------------------------------------ backends agree


@pytest.fixture(scope="module")
def backend_runs():
    """``run(name)``: the reference and experiment cells through backend
    ``name`` (and, on serial and pool, the warm sweeps after them on the
    same engine), each backend run once per module."""
    cells = reference_cells() + reference_cells(EXPERIMENT_CELLS)
    runs = {}

    def run(name):
        if name not in runs:
            engine = SweepEngine(
                jobs=JOBS if name == "pool" else 1,
                use_cache=False,
                backend=name,
                workers=WORKERS if name == "service" else None,
            )
            with engine:
                records = json.dumps(engine.run(cells))
                warm = {}
                if name in ("serial", "pool"):
                    for sweep, specs in WARM_SWEEPS.items():
                        warm[sweep] = json.dumps(
                            engine.run(reference_cells(specs))
                        )
            runs[name] = {"records": records, "warm": warm,
                          "stats": engine.stats}
        return runs[name]

    return run


@pytest.mark.parametrize(
    "backend", [name for name in backend_names() if name != "serial"]
)
def test_backends_agree(backend_runs, backend):
    assert "serial" in backend_names()
    assert backend_runs(backend)["records"] == backend_runs("serial")["records"]


@pytest.mark.parametrize("sweep", list(WARM_SWEEPS))
def test_warm_pool_workers_agree(backend_runs, sweep):
    """The pool engine's workers, forked for the first sweep, serve the
    later ones from warm memos and must still match serial."""
    assert (
        backend_runs("pool")["warm"][sweep]
        == backend_runs("serial")["warm"][sweep]
    )


def test_service_leg_ran_the_block_path(backend_runs):
    """The binary wire's block path ran: at least one result block was
    compressed and at least one frame coalesced."""
    stats = backend_runs("service")["stats"]
    assert stats.blocks_compressed > 0
    assert stats.frames_coalesced > 0


# ------------------------------------------------ service golden cells


def test_service_golden_cells():
    cells = golden_cells()
    serial = json.dumps(SweepEngine(use_cache=False).run(cells))
    with SweepEngine(
        use_cache=False, backend="service", workers=WORKERS
    ) as engine:
        service = json.dumps(engine.run(cells))
    assert service == serial


# ---------------------------------------------------- store round-trip


@pytest.mark.parametrize(
    "suite, make_cells",
    [("reference", reference_cells), ("golden", golden_cells)],
    ids=["reference", "golden"],
)
def test_store_roundtrip(tmp_path, suite, make_cells):
    """Streaming through the result store never alters a byte: the
    committed shards, reassembled by sweep index, serialise exactly as
    the in-memory run of the same engine."""
    cells = make_cells()
    engine = SweepEngine(jobs=1, use_cache=False)
    in_memory = engine.run(cells)
    writer = ResultWriter(tmp_path, sweep=suite, shard_rows=16)
    engine.run_streamed(cells, writer.sink)
    path = writer.close(engine_stats=engine.stats.engine_payload())
    stored = ResultReader(path).records_by_index()
    restored = [stored.get(i) for i in range(len(cells))]
    assert json.dumps(restored) == json.dumps(in_memory)
