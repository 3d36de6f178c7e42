"""Parallel, cached execution engine for simulation sweeps.

The figure modules and :mod:`repro.experiments.sweep` all reduce to the
same shape of work: simulate many independent *cells* -- one (budget, seed,
policy, workload) combination each -- and aggregate the per-cell numbers.
This module turns that shape into infrastructure:

* **Declarative cells.**  A :class:`SweepCell` names its workload, policy
  and derived metrics through registries instead of carrying closures, so
  a cell can be pickled to a worker process, shipped over a socket as
  JSON, and hashed into a cache key.
* **Pluggable fan-out.**  :class:`SweepEngine` dispatches cells through a
  registered executor backend (:mod:`repro.experiments.backends`):
  ``serial`` runs in-process, ``pool`` fans out over a local process pool,
  ``service`` submits a job to the ``repro serve`` daemon, whose socket
  workers can span hosts.  Every backend funnels into :func:`execute_cell`, so all of them are
  bit-identical to a serial run.
* **Construction memoisation.**  Applications are memoised per
  ``(workload, seed, workload_params)`` and compiled ISE libraries (with
  their precompiled ``instance_rows`` and packed selector arrays) per
  ``(workload, budget, workload_params, budget_params)``, so a fig8-style
  grid performs one application build per seed and one library compile per
  budget instead of one of each per cell.  The memoised objects are
  immutable after construction (frozen dataclasses, tuple candidate
  lists), which is what makes reuse byte-identical to rebuilding.
* **Content-addressed cache.**  Each cell's record is one row of the
  SQLite cell store ``.repro_cache/cells.sqlite``
  (:class:`repro.service.store.RecordStore`), keyed by a stable hash of
  the cell *and* a structural fingerprint of the compile-time ISE
  library, so editing the library builder, the cost model or any cell
  parameter invalidates exactly the affected cells.  A run reads its
  hits in batched queries and answers :func:`cache_stats` in SQL.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import threading
import weakref
from collections import OrderedDict
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.baselines import (
    Morpheus4SPolicy,
    OfflineOptimalPolicy,
    OnlineOptimalPolicy,
    RiscModePolicy,
    RisppLikePolicy,
    TaskLevelPolicy,
)
from repro.config_env import DEFAULT_CACHE_DIR, cache_dir as resolve_cache_dir
from repro.core.mrts import MRTS
from repro.fabric.resources import ResourceBudget
from repro.sim.contention import ContentionSchedule
from repro.sim.simulator import Simulator, Task
from repro.util.validation import ReproError

#: Bump when the record layout or the simulation semantics change in a way
#: the library fingerprint cannot see; invalidates every cached record.
ENGINE_SCHEMA = 1

# ------------------------------------------------------------- registries

#: Every runnable policy, by the name used in cells, cache keys and the CLI.
POLICIES: Dict[str, Callable] = {
    "risc": RiscModePolicy,
    "mrts": MRTS,
    "rispp": RisppLikePolicy,
    "morpheus4s": Morpheus4SPolicy,
    "offline-optimal": OfflineOptimalPolicy,
    "online-optimal": OnlineOptimalPolicy,
    "task-level": TaskLevelPolicy,
}

#: Reverse map: registry factory -> name (for callers holding a factory).
_POLICY_NAMES: Dict[Callable, str] = {f: n for n, f in POLICIES.items()}


def register_policy(name: str, factory: Callable) -> None:
    """Register a policy factory for declarative cells.

    For parallel runs the registration must happen at import time of a
    module the workers also import (worker processes re-resolve the name).
    """
    POLICIES[name] = factory
    _POLICY_NAMES[factory] = name


def policy_name_of(factory: Callable) -> Optional[str]:
    """Registry name of ``factory``, or ``None`` if it is not registered."""
    return _POLICY_NAMES.get(factory)


@dataclass(frozen=True)
class WorkloadFamily:
    """A declarative workload: builds the application and its ISE library.

    ``application(seed, params)`` and ``library(budget, params)`` receive
    the cell's ``workload_params`` as a plain dict.
    """

    name: str
    application: Callable
    library: Callable


def _h264_application(seed, params):
    from repro.workloads.h264 import h264_application

    return h264_application(
        frames=params.get("frames", 8),
        seed=seed,
        scale=params.get("scale", 0.6),
    )


def _h264_library(budget, params):
    from repro.workloads.h264 import h264_library

    return h264_library(budget, cost_model=_cost_model_of(params))


def _cost_model_of(params):
    """The cost model a cell's ``workload_params`` ask for.

    The ``cost_model`` param is a tuple of ``(field, value)`` overrides on
    the default :class:`~repro.fabric.cost_model.TechnologyCostModel` --
    hashable, JSON-able, and part of the cache key, so perturbed-model cells
    (the sensitivity experiment) never collide with baseline records.
    """
    import dataclasses

    from repro.fabric.cost_model import DEFAULT_COST_MODEL

    overrides = dict(params.get("cost_model", ()))
    if not overrides:
        return DEFAULT_COST_MODEL
    return dataclasses.replace(DEFAULT_COST_MODEL, **overrides)


def _jpeg_application(seed, params):
    from repro.workloads.jpeg import jpeg_application

    return jpeg_application(
        images=params.get("images", 8),
        blocks_per_image=params.get("blocks_per_image", 300),
        seed=seed,
    )


def _jpeg_library(budget, params):
    from repro.workloads.jpeg import jpeg_library

    return jpeg_library(budget)


def _deblocking_application(seed, params):
    from repro.workloads.h264 import deblocking_application

    return deblocking_application(
        frames=params.get("frames", 8),
        seed=seed,
        scale=params.get("scale", 0.6),
    )


def _deblocking_library(budget, params):
    from repro.workloads.h264 import deblocking_library

    return deblocking_library(budget)


WORKLOADS: Dict[str, WorkloadFamily] = {
    "h264": WorkloadFamily("h264", _h264_application, _h264_library),
    "jpeg": WorkloadFamily("jpeg", _jpeg_application, _jpeg_library),
    "deblocking": WorkloadFamily(
        "deblocking", _deblocking_application, _deblocking_library
    ),
}


def register_workload(name: str, application: Callable, library: Callable) -> None:
    """Register a workload family (same import-time caveat as policies)."""
    WORKLOADS[name] = WorkloadFamily(name, application, library)


# ---------------------------------------------------------------- metrics


@dataclass(frozen=True)
class MetricSpec:
    """A derived per-cell measurement computed from the simulation result.

    ``compute(result, params)`` receives the cell's
    :class:`~repro.sim.simulator.SimulationResult` and the metric's params
    as a plain dict and must return JSON-able plain data (it enters the
    cached record).  ``needs_trace`` asks the simulator for a full
    execution trace (``collect_trace=True``) before the metric runs.
    """

    name: str
    compute: Callable
    needs_trace: bool = False


#: Every registered metric, by the name used in cells and cache keys.
METRICS: Dict[str, MetricSpec] = {}


def register_metric(name: str, compute: Callable, needs_trace: bool = False) -> None:
    """Register a derived metric (same import-time caveat as policies)."""
    METRICS[name] = MetricSpec(name=name, compute=compute, needs_trace=needs_trace)


def _metric_kernel_timeline(result, params):
    """Phase timeline of one kernel (the measured Fig. 5 staircase)."""
    from repro.analysis.timeline import kernel_timeline, timeline_payload

    timeline = kernel_timeline(
        result,
        str(params["kernel"]),
        block_window=params.get("block_window"),
    )
    return timeline_payload(timeline)


def _metric_deblock_frame_winners(result, params):
    """Per-frame execution counts + best case-study ISE (Fig. 2).

    Derived from the seeded video trace and the case-study profit model,
    not from the carrier simulation -- the cell only provides the cached,
    backend-routable execution context.
    """
    from repro.core.profit import pif
    from repro.workloads.h264.deblocking import deblocking_case_study
    from repro.workloads.h264.traces import deblock_executions_per_frame

    frames = int(params.get("frames", 16))
    seed = int(params.get("seed", 0))
    _, ises = deblocking_case_study()
    counts = deblock_executions_per_frame(frames=frames, seed=seed)

    def best_for(e: int) -> str:
        return max(
            ises,
            key=lambda name: pif(
                ises[name].latencies[0],
                ises[name].full_latency,
                ises[name].total_reconfig_cycles,
                e,
            ),
        )

    return {
        "executions_per_frame": list(counts),
        "best_ise_per_frame": [best_for(e) for e in counts],
    }


def _metric_block_profile(result, params):
    """Mean functional-block cycles and the kernel selections made (one
    per kernel of every entered block) -- the Section 5.4 denominators."""
    application = result.application
    return {
        "mean_block_cycles": result.stats.mean_block_cycles(),
        "kernels_selected": sum(
            len(application.block(iteration.block).kernels)
            for iteration in application.iterations
        ),
    }


def _metric_energy(result, params):
    """The run's :class:`~repro.fabric.energy.EnergyBreakdown` fields."""
    import dataclasses

    from repro.fabric.energy import estimate_energy

    return dataclasses.asdict(estimate_energy(result))


register_metric("kernel_timeline", _metric_kernel_timeline, needs_trace=True)
register_metric("deblock_frame_winners", _metric_deblock_frame_winners)
register_metric("block_profile", _metric_block_profile)
register_metric("energy", _metric_energy, needs_trace=True)


# ------------------------------------------------------------------ cells

Params = Union[None, Mapping[str, object], Tuple[Tuple[str, object], ...]]

#: The keys of a cell's ``contention`` params, sorted.
CONTENTION_KEYS: Tuple[str, ...] = ("duty_cg_slots", "duty_prcs", "period", "until")


def _freeze(value: object) -> object:
    """Recursively hashable form of a param value.

    Lists become tuples (a JSON round trip through a socket worker turns
    tuples into lists; freezing makes both hash and compare identically)
    and mappings become sorted key/value tuples.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _normalize_params(params: Params) -> Tuple[Tuple[str, object], ...]:
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(k), _freeze(v)) for k, v in items))


def _normalize_metrics(metrics) -> Tuple[Tuple[str, Tuple], ...]:
    if not metrics:
        return ()
    items = metrics.items() if isinstance(metrics, Mapping) else metrics
    return tuple(
        sorted((str(name), _normalize_params(params)) for name, params in items)
    )


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: (budget, seed, policy, workload).

    ``budget`` is ``(n_cg_fabrics, n_prcs)`` -- the order of the paper's
    combination labels ("21" = 2 CG fabrics, 1 PRC).  Params are stored as
    sorted key/value tuples so cells are hashable and canonical.
    """

    budget: Tuple[int, int]
    seed: int
    policy: str
    policy_params: Tuple[Tuple[str, object], ...] = ()
    workload: str = "h264"
    workload_params: Tuple[Tuple[str, object], ...] = ()
    #: extra :class:`ResourceBudget` kwargs (e.g. ``contexts_per_cg_fabric``)
    budget_params: Tuple[Tuple[str, object], ...] = ()
    #: derived measurements to attach to the record: sorted
    #: ``(metric_name, params)`` tuples resolving through :data:`METRICS`
    metrics: Tuple[Tuple[str, Tuple], ...] = ()
    #: a periodic background task claiming fabric during the run: the
    #: :meth:`~repro.sim.contention.ContentionSchedule.periodic` arguments
    #: (:data:`CONTENTION_KEYS`), or ``()`` for an uncontended run
    contention: Tuple[Tuple[str, object], ...] = ()
    #: other applications co-running on the same fabric, in round-robin
    #: order: ``(workload, workload_params, seed, policy)`` tuples, or
    #: ``()`` for a run alone
    co_tasks: Tuple[Tuple[str, Tuple[Tuple[str, object], ...], int, str], ...] = ()

    @staticmethod
    def make(
        budget: Tuple[int, int],
        seed: int,
        policy: str,
        policy_params: Params = None,
        workload: str = "h264",
        workload_params: Params = None,
        budget_params: Params = None,
        metrics=None,
        contention: Params = None,
        co_tasks: Sequence[Mapping[str, object]] = (),
    ) -> "SweepCell":
        """Validated constructor (use this, not the raw dataclass).

        ``co_tasks`` are mappings with the keys ``workload``, ``seed``,
        ``policy`` and optionally ``workload_params``; each co-task's
        workload must differ from the cell's and from every other's (the
        tasks' kernel names must not collide).  A cell with co-tasks takes
        no ``metrics``.
        """
        normalized_co_tasks = tuple(
            (
                str(task["workload"]),
                _normalize_params(task.get("workload_params")),
                int(task["seed"]),
                str(task["policy"]),
            )
            for task in co_tasks
        )
        for name in [policy] + [task[3] for task in normalized_co_tasks]:
            if name not in POLICIES:
                raise ReproError(
                    f"unknown policy {name!r}; registered: {sorted(POLICIES)}"
                )
        workloads = [workload] + [task[0] for task in normalized_co_tasks]
        for name in workloads:
            if name not in WORKLOADS:
                raise ReproError(
                    f"unknown workload {name!r}; registered: {sorted(WORKLOADS)}"
                )
        if len(set(workloads)) != len(workloads):
            raise ReproError(
                f"co-task workloads must all differ, got {workloads}"
            )
        normalized_metrics = _normalize_metrics(metrics)
        unknown_metrics = sorted(
            name for name, _ in normalized_metrics if name not in METRICS
        )
        if unknown_metrics:
            raise ReproError(
                f"unknown metric(s) {unknown_metrics}; "
                f"registered: {sorted(METRICS)}"
            )
        if normalized_co_tasks and normalized_metrics:
            # A metric reads the whole run -- the shared controller's
            # requests, the wall clock -- and would mix the co-tasks' share
            # into this task's record.
            raise ReproError("a cell with co_tasks takes no metrics")
        normalized_contention = _normalize_params(contention)
        if normalized_contention and tuple(
            key for key, _ in normalized_contention
        ) != CONTENTION_KEYS:
            raise ReproError(
                f"contention needs exactly the keys {list(CONTENTION_KEYS)}, "
                f"got {[key for key, _ in normalized_contention]}"
            )
        cg, prc = budget
        return SweepCell(
            budget=(int(cg), int(prc)),
            seed=int(seed),
            policy=policy,
            policy_params=_normalize_params(policy_params),
            workload=workload,
            workload_params=_normalize_params(workload_params),
            budget_params=_normalize_params(budget_params),
            metrics=normalized_metrics,
            contention=normalized_contention,
            co_tasks=normalized_co_tasks,
        )

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "SweepCell":
        """Rebuild a cell from :meth:`payload` output (e.g. off the wire).

        Round-trips exactly: ``SweepCell.from_payload(cell.payload())``
        equals ``cell``, including after a JSON encode/decode -- the
        payload's keys are :meth:`make`'s arguments, and its normalisation
        turns JSON lists back into tuples.
        """
        return SweepCell.make(**payload)

    def co_task_cells(self) -> List["SweepCell"]:
        """Each co-task as a cell of its own on this cell's fabric."""
        return [
            dataclasses.replace(
                self, workload=workload, workload_params=params, seed=seed,
                policy=policy, policy_params=(), metrics=(), contention=(),
                co_tasks=(),
            )
            for workload, params, seed, policy in self.co_tasks
        ]

    def resource_budget(self) -> ResourceBudget:
        cg, prc = self.budget
        return ResourceBudget(
            n_prcs=prc, n_cg_fabrics=cg, **dict(self.budget_params)
        )

    def payload(self) -> Dict[str, object]:
        """Canonical JSON-able description (the hashed part of the key)."""
        payload: Dict[str, object] = {
            "budget": list(self.budget),
            "seed": self.seed,
            "policy": self.policy,
            "policy_params": [list(p) for p in self.policy_params],
            "workload": self.workload,
            "workload_params": [list(p) for p in self.workload_params],
        }
        # Only non-default budget params / metrics / contention / co-tasks
        # enter the payload, so every cache key minted before the fields
        # existed stays valid.
        if self.budget_params:
            payload["budget_params"] = [list(p) for p in self.budget_params]
        if self.metrics:
            payload["metrics"] = [
                [name, [list(p) for p in params]] for name, params in self.metrics
            ]
        if self.contention:
            payload["contention"] = [list(p) for p in self.contention]
        if self.co_tasks:
            payload["co_tasks"] = [
                {
                    "workload": workload,
                    "workload_params": [list(p) for p in params],
                    "seed": seed,
                    "policy": policy,
                }
                for workload, params, seed, policy in self.co_tasks
            ]
        return payload

    @functools.cached_property
    def payload_text(self) -> str:
        """``canonical_json(self.payload())``, computed once per cell object.

        The cache key (:func:`cell_key`) and the stored row
        (``ResultWriter.sink``) both splice this text in, so a cell keyed
        and stored serialises its payload once.  The fields are frozen, so
        the text never goes stale; a ``dataclasses.replace`` copy is a new
        object with its own text.
        """
        return _canonical_json(self.payload())


# ------------------------------------------------------- cache key / hash


#: The canonical JSON form (sorted keys, no whitespace): the text
#: ``repro.results.schema.canonical_json`` writes, without importing the
#: results package into every process that keys a cell.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _stable_hash(payload: object) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def _canonical(value: object) -> object:
    """Deep canonical plain-data form: dict keys sorted, tuples listified.

    Fresh records pass through this before they are returned or cached, so
    a record served from disk (written with ``sort_keys=True``) is
    byte-identical to a freshly computed one at every nesting level.
    """
    if isinstance(value, dict):
        return {key: _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


#: (workload, workload_params, budget) -> fingerprint, memoised per process.
_FINGERPRINTS: Dict[Tuple, str] = {}

#: The library the last fingerprint compile built, as ``(library memo key,
#: library)``, kept until ``_library_of`` claims it or the next compile
#: replaces it (``None``: nothing to hand off).  A process that keys a cell
#: and then executes it -- the serial backend, a socket worker -- compiles
#: that library once; a pool or service parent that keys cells its workers
#: execute keeps at most this one library.
_FINGERPRINT_LIBRARY: Optional[Tuple[Tuple, object]] = None

#: Serialises fingerprint compiles, so threads keying the same new library
#: at once (a daemon's intake threads, concurrent service clients) compile
#: it once.  Only a memo miss takes it.
_FINGERPRINT_LOCK = threading.Lock()


def _renew_fingerprint_lock() -> None:
    # A child forked while another thread held the lock would inherit it
    # held forever; the child starts with a fresh one instead.
    global _FINGERPRINT_LOCK
    _FINGERPRINT_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_renew_fingerprint_lock)


def library_fingerprint(
    workload: str,
    budget: Tuple[int, int],
    workload_params: Params = None,
    budget_params: Params = None,
) -> str:
    """Structural hash of the compile-time ISE library a cell will see.

    Covers every latency, area and reconfiguration number that feeds the
    simulation, so changes to the ISE builder, the cost model or the data
    paths invalidate cached records without a manual version bump.
    ``budget_params`` matter because the fitting filter depends on the
    budget (e.g. ``contexts_per_cg_fabric``).  Each fingerprint is compiled
    once per process, however many threads ask for it at once.
    """
    global _FINGERPRINT_LIBRARY
    try:
        # A cell's params are already normalised tuples: look them up as
        # they are, and normalise only on a miss.
        fingerprint = _FINGERPRINTS.get(
            (workload, workload_params or (), tuple(budget), budget_params or ())
        )
    except TypeError:  # unhashable params (a mapping, a list)
        fingerprint = None
    if fingerprint is not None:
        return fingerprint
    params = _normalize_params(workload_params)
    extra_budget = _normalize_params(budget_params)
    memo_key = (workload, params, tuple(budget), extra_budget)
    fingerprint = _FINGERPRINTS.get(memo_key)
    if fingerprint is not None:
        return fingerprint
    with _FINGERPRINT_LOCK:
        if memo_key in _FINGERPRINTS:
            return _FINGERPRINTS[memo_key]
        family = WORKLOADS[workload]
        cg, prc = budget
        resource_budget = ResourceBudget(
            n_prcs=prc, n_cg_fabrics=cg, **dict(extra_budget)
        )
        _FINGERPRINT_LIBRARY = None  # never hold two libraries at once
        library = family.library(resource_budget, dict(params))
        _FINGERPRINT_LIBRARY = ((workload, tuple(budget), params, extra_budget), library)
        description: List[object] = []
        for kernel_name in sorted(library.kernel_names()):
            kernel = library.kernel(kernel_name)
            monocg = library.monocg(kernel_name)
            candidates = sorted(
                [
                    [
                        sorted(list(pair) for pair in ise.signature()),
                        list(ise.latencies),
                        list(ise.reconfig_schedule()),
                    ]
                    for ise in library.candidates(kernel_name)
                ],
                key=lambda entry: json.dumps(entry, sort_keys=True),
            )
            description.append(
                [kernel_name, kernel.risc_latency, monocg.latency, candidates]
            )
        fingerprint = _stable_hash(description)
        _FINGERPRINTS[memo_key] = fingerprint
    return fingerprint


def cell_key(cell: SweepCell) -> str:
    """Content address of ``cell``: cell description + library fingerprint
    (+ each co-task's library fingerprint, for a co-run).

    The sha256 of the canonical JSON of ``{"cell": payload, "co_libraries":
    [fingerprint, ...] (co-runs only), "library": fingerprint, "schema":
    ENGINE_SCHEMA}``, spliced together in that sorted-key order around the
    cell's cached :attr:`SweepCell.payload_text`.
    """
    libraries = [
        library_fingerprint(
            task.workload, task.budget, task.workload_params, task.budget_params
        )
        for task in (cell, *cell.co_task_cells())
    ]
    # Fingerprints are hex digests: quoting them is their canonical JSON.
    co_libraries = (
        ',"co_libraries":["' + '","'.join(libraries[1:]) + '"]'
        if cell.co_tasks else ""
    )
    blob = (
        f'{{"cell":{cell.payload_text}{co_libraries},'
        f'"library":"{libraries[0]}","schema":{ENGINE_SCHEMA}}}'
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------ cache maintenance


def _cell_store(cache_dir: Union[str, Path, None]):
    from repro.service.store import RecordStore

    return RecordStore(
        resolve_cache_dir(cache_dir if cache_dir is None else str(cache_dir))
    )


def cache_stats(cache_dir: Union[str, Path, None] = None) -> Dict[str, object]:
    """Row count and byte total of the cell store (one SQL aggregate)."""
    with closing(_cell_store(cache_dir)) as store:
        return {"cache_dir": str(store.root), **store.stats()}


def clear_cache(cache_dir: Union[str, Path, None] = None) -> int:
    """Delete every cached record; returns how many were removed."""
    with closing(_cell_store(cache_dir)) as store:
        return store.clear()


def evict_cache(
    cache_dir: Union[str, Path, None] = None,
    max_bytes: int = 0,
) -> Dict[str, int]:
    """Shrink the cache to ``max_bytes`` by deleting least-recently-used
    records (cache hits count as use; equal use breaks ties by key).
    Returns ``{"evicted": n, "freed_bytes": b}``.
    """
    with closing(_cell_store(cache_dir)) as store:
        return store.evict(max_bytes)


# ----------------------------------------------------------- cell workers

#: Simulations actually executed in this process (cache-hit tests read it).
SIMULATIONS_RUN = 0

#: LRU capacity of the per-process application / library memos.  Sized to
#: cover a whole fig8-grid sweep (one library per budget) and the ten
#: application seeds a service job stream interleaves, without letting
#: long multi-workload sessions pin unbounded memory.
APP_MEMO_CAPACITY = 16
LIBRARY_MEMO_CAPACITY = 32

_APP_MEMO: "OrderedDict[Tuple, object]" = OrderedDict()
_LIB_MEMO: "OrderedDict[Tuple, object]" = OrderedDict()

#: Construction-counter names, in reporting order.
BUILD_COUNTER_NAMES: Tuple[str, ...] = (
    "applications_built",
    "applications_saved",
    "libraries_built",
    "libraries_saved",
)

#: How many applications / libraries this process built vs. reused.  The
#: backends snapshot deltas around each batch and ship them home, so
#: :class:`EngineStats` sees worker-side savings too.
BUILD_COUNTERS: Dict[str, int] = {name: 0 for name in BUILD_COUNTER_NAMES}


def clear_build_memo() -> None:
    """Drop the per-process construction memos -- the fingerprints and the
    library they hand off included -- and zero the counters (benchmarks
    use this to measure cold builds)."""
    global _FINGERPRINT_LIBRARY
    _APP_MEMO.clear()
    _LIB_MEMO.clear()
    _FINGERPRINTS.clear()
    _FINGERPRINT_LIBRARY = None
    for name in BUILD_COUNTER_NAMES:
        BUILD_COUNTERS[name] = 0


def _memo_get(
    memo: "OrderedDict[Tuple, object]",
    key: Tuple,
    build: Callable[[], object],
    built: str,
    saved: str,
    capacity: int,
) -> object:
    if key in memo:
        memo.move_to_end(key)
        BUILD_COUNTERS[saved] += 1
        return memo[key]
    value = build()
    BUILD_COUNTERS[built] += 1
    memo[key] = value
    while len(memo) > capacity:
        memo.popitem(last=False)
    return value


def _application_of(cell: SweepCell):
    """The cell's application, memoised per (workload, seed, params)."""
    family = WORKLOADS[cell.workload]
    return _memo_get(
        _APP_MEMO,
        (cell.workload, cell.seed, cell.workload_params),
        lambda: family.application(cell.seed, dict(cell.workload_params)),
        "applications_built",
        "applications_saved",
        APP_MEMO_CAPACITY,
    )


def _library_of(cell: SweepCell, budget: ResourceBudget):
    """The cell's compiled ISE library, memoised per (workload, budget,
    params) -- reuse keeps the precompiled ``instance_rows`` and the
    cached selector packing warm across cells.  A miss claims the library
    the cell's fingerprint just compiled, if it is still held, instead of
    compiling it again; either way it counts as built."""
    key = (cell.workload, cell.budget, cell.workload_params, cell.budget_params)

    def build():
        global _FINGERPRINT_LIBRARY
        # One read: another thread's compile may replace the slot.
        handoff = _FINGERPRINT_LIBRARY
        if handoff is not None and handoff[0] == key:
            _FINGERPRINT_LIBRARY = None
            return handoff[1]
        return WORKLOADS[cell.workload].library(budget, dict(cell.workload_params))

    return _memo_get(
        _LIB_MEMO, key, build, "libraries_built", "libraries_saved",
        LIBRARY_MEMO_CAPACITY,
    )


def execute_cell(cell: SweepCell) -> Dict[str, object]:
    """Simulate one cell and return its plain-data record.

    This is the single execution path of the engine: the serial loop and
    every pool or socket worker calls exactly this function, which is what
    makes all backends bit-identical.  The application and library come
    from the per-process memos; both are immutable after construction, so
    reuse cannot change a record.

    A cell with co-tasks co-runs their applications after its own on one
    fabric; its record keeps describing its own
    task and gains ``finished_at`` plus the co-tasks' per-task totals
    (``co_tasks``).
    """
    global SIMULATIONS_RUN
    budget = cell.resource_budget()
    tasks = [
        Task(
            task_cell.workload,
            _application_of(task_cell),
            _library_of(task_cell, budget),
            POLICIES[task_cell.policy](**dict(task_cell.policy_params)),
        )
        for task_cell in [cell, *cell.co_task_cells()]
    ]
    needs_trace = any(METRICS[name].needs_trace for name, _ in cell.metrics)
    contention = (
        ContentionSchedule.periodic(**dict(cell.contention))
        if cell.contention else None
    )
    first = tasks[0]
    result = Simulator(
        first.application, first.library, budget, first.policy,
        collect_trace=needs_trace, contention=contention,
    )._run(tasks)
    SIMULATIONS_RUN += 1
    stats = result.stats
    record: Dict[str, object] = {
        "budget_label": budget.label,
        "seed": cell.seed,
        "policy": cell.policy,
        "workload": cell.workload,
        "total_cycles": stats.total_cycles,
        "kernel_cycles": stats.kernel_cycles,
        "gap_cycles": stats.gap_cycles,
        "overhead_cycles_charged": stats.overhead_cycles_charged,
        "overhead_cycles_full": stats.overhead_cycles_full,
        "accelerated_fraction": stats.accelerated_fraction(),
        "reconfigurations": stats.reconfigurations,
        "selections": stats.selections,
        "executions_by_mode": dict(sorted(stats.executions_by_mode.items())),
    }
    if cell.co_tasks:
        main, *co_runs = result.co_run.tasks.values()  # in task order
        record["finished_at"] = main.finished_at
        record["co_tasks"] = [
            {
                "workload": task.name,
                "total_cycles": task.stats.total_cycles,
                "finished_at": task.finished_at,
                "reconfigurations": task.stats.reconfigurations,
            }
            for task in co_runs
        ]
    if cell.metrics:
        record["metrics"] = {
            name: _canonical(METRICS[name].compute(result, dict(params)))
            for name, params in cell.metrics
        }
    return record


def execute_batch(
    cells: Sequence[SweepCell],
) -> Tuple[List[Dict[str, object]], Dict[str, int]]:
    """Execute a chunk of cells in this process.

    The unit of work every backend dispatches (one IPC frame carries one
    batch).  Returns the records plus the construction-counter delta the
    batch caused, so worker-side memo savings flow back to the coordinator.
    Calls ``execute_cell`` through the module global, keeping test
    monkeypatches of the single-cell path effective.
    """
    before = dict(BUILD_COUNTERS)
    records = [execute_cell(cell) for cell in cells]
    built = {
        name: BUILD_COUNTERS[name] - before[name] for name in BUILD_COUNTER_NAMES
    }
    return records, built


# ----------------------------------------------------------------- engine


@dataclass
class EngineStats:
    """What one :meth:`SweepEngine.run` call did.

    The construction and transport counters (``builds_saved`` and friends)
    are implementation observability, surfaced through
    :meth:`engine_payload` and -- like the selector and sim engine
    counters -- deliberately kept out of golden record payloads.
    """

    cells: int = 0               #: cells requested (incl. duplicates)
    unique_cells: int = 0        #: distinct cache keys among them
    cache_hits: int = 0          #: unique cells served from disk
    executed: int = 0            #: unique cells actually simulated
    applications_built: int = 0  #: applications constructed across workers
    libraries_built: int = 0     #: ISE libraries compiled across workers
    builds_saved: int = 0        #: constructions avoided by the memos
    frames_sent: int = 0         #: IPC frames dispatched (0 for serial)
    worker_restarts: int = 0     #: dead socket workers replaced
    remote_cache_hits: int = 0   #: cells served by the service's shared store/fleet
    jobs_completed: int = 0      #: service jobs finished on our behalf
    bytes_sent: int = 0          #: transport bytes written to sockets
    bytes_received: int = 0      #: transport bytes read from sockets
    frames_coalesced: int = 0    #: per-cell frames avoided by wire batching
    blocks_compressed: int = 0   #: binary frames the adaptive codec deflated

    def reset(self) -> None:
        self.cells = self.unique_cells = self.cache_hits = self.executed = 0
        self.applications_built = self.libraries_built = 0
        self.builds_saved = self.frames_sent = self.worker_restarts = 0
        self.remote_cache_hits = self.jobs_completed = 0
        self.bytes_sent = self.bytes_received = 0
        self.frames_coalesced = self.blocks_compressed = 0

    def engine_payload(self) -> Dict[str, object]:
        """The sweep-engine counters as a JSON-able dict -- never merged
        into cell records, so golden payloads stay backend-independent."""
        return {
            "cells": self.cells,
            "unique_cells": self.unique_cells,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "applications_built": self.applications_built,
            "libraries_built": self.libraries_built,
            "builds_saved": self.builds_saved,
            "frames_sent": self.frames_sent,
            "worker_restarts": self.worker_restarts,
            "remote_cache_hits": self.remote_cache_hits,
            "jobs_completed": self.jobs_completed,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "frames_coalesced": self.frames_coalesced,
            "blocks_compressed": self.blocks_compressed,
        }


class SweepEngine:
    """Runs sweep cells -- parallel, cached, deterministically ordered.

    Parameters
    ----------
    jobs:
        Worker processes for the auto-selected backend.  ``1`` (the
        default) runs in-process; results are identical either way.
    cache_dir / use_cache:
        Where cell records live and whether to consult them.  The cache is
        content-addressed: stale entries are never *read* (their key no
        longer matches), only overwritten or left to garbage-collect.
    chunk_size:
        Cells per dispatched batch; defaults to a few batches per worker
        so stragglers do not serialise the tail.  Batches never span
        library fingerprints, so each one is a single-compile unit of work.
    cache_max_bytes:
        Byte budget for the on-disk cache.  After every :meth:`run` the
        cache is shrunk to this size by evicting least-recently-used
        records (``None`` disables eviction).
    backend:
        Executor backend name (see :mod:`repro.experiments.backends`).
        ``None`` selects ``"pool"`` when ``jobs > 1``, else ``"serial"``.
    workers / coordinator:
        Service-backend knobs: how many local socket workers a self-hosted
        daemon spawns, and the ``host:port`` of a running ``repro serve``
        daemon to submit to instead (``None`` self-hosts).  Ignored by
        the other backends.

    The engine resolves its backend once and keeps it, so the ``pool``
    backend's worker processes (and their warm construction memos) serve
    every run of the engine.  :meth:`close` -- or leaving a ``with``
    block, or dropping the engine -- shuts them down.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Union[str, Path, None] = None,
        use_cache: bool = True,
        chunk_size: Optional[int] = None,
        cache_max_bytes: Optional[int] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        coordinator: Optional[str] = None,
    ):
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if cache_max_bytes is not None and cache_max_bytes < 0:
            raise ReproError(
                f"cache_max_bytes must be >= 0, got {cache_max_bytes}"
            )
        if workers is not None and workers < 0:
            # 0 is coordinator-only mode (external workers join); the
            # service backend validates it against the address.
            raise ReproError(f"workers must be >= 0, got {workers}")
        from repro.experiments.backends import resolve_backend

        #: the executor backend every run of this engine goes through
        self.backend = resolve_backend(
            backend,
            jobs=jobs,
            chunk_size=chunk_size,
            workers=workers,
            coordinator=coordinator,
        )
        # Shuts the backend down when the engine is closed or collected;
        # it holds the backend, never the engine, so dropping the last
        # reference to an unclosed engine still releases its workers.
        self._release = weakref.finalize(self, self.backend.close)
        self.cache_dir = Path(
            resolve_cache_dir(cache_dir if cache_dir is None else str(cache_dir))
        )
        self.use_cache = use_cache
        self.cache_max_bytes = cache_max_bytes
        self.stats = EngineStats()
        #: the cell store under ``cache_dir`` (opened on first use)
        self.store = _cell_store(self.cache_dir)

    def close(self) -> None:
        """Shut the backend's workers down and close the cell store's
        connection.  Idempotent; a closed engine refuses to run."""
        self._release()
        self.store.close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- run
    def run(self, cells: Sequence[SweepCell]) -> List[Dict[str, object]]:
        """Execute ``cells``; returns one record per cell, in input order.

        Duplicate cells are simulated once and share the record.
        """
        records: List[Optional[Dict[str, object]]] = [None] * len(cells)

        def collect(index: int, cell: SweepCell, record: Dict[str, object]) -> None:
            records[index] = record

        self.run_streamed(cells, collect)
        return records

    def run_streamed(
        self,
        cells: Sequence[SweepCell],
        sink: Callable[[int, SweepCell, Dict[str, object]], None],
    ) -> int:
        """Execute ``cells``, delivering each record through ``sink``.

        ``sink(index, cell, record)`` is called exactly once per input
        cell (duplicates included, sharing one simulation) with the same
        canonical record :meth:`run` would return at that index — but no
        record list is ever built, so sweep memory stays bounded by the
        sink's own buffering (e.g. ``ResultWriter``'s shard buffer).
        Delivery order is cache hits first, then executed cells as the
        backend completes them; the index is the caller's key back into
        submission order.  Returns the number of records delivered.
        """
        if not self._release.alive:
            raise ReproError("this SweepEngine is closed")
        self.stats.reset()
        self.stats.cells = len(cells)
        keys = [cell_key(cell) for cell in cells]
        by_key: Dict[str, SweepCell] = {}
        indices: Dict[str, List[int]] = {}
        for index, (cell, key) in enumerate(zip(cells, keys)):
            by_key.setdefault(key, cell)
            indices.setdefault(key, []).append(index)
        self.stats.unique_cells = len(by_key)
        delivered = 0

        def deliver(key: str, record: Dict[str, object]) -> None:
            nonlocal delivered
            for index in indices[key]:
                sink(index, by_key[key], record)
            delivered += len(indices[key])

        # Stored records were written canonical (sort_keys), so they are
        # delivered as parsed.
        hits = self.store.get_many(list(by_key)) if self.use_cache else {}
        for key, record in hits.items():
            deliver(key, record)
        self.stats.cache_hits = len(hits)

        missing = [(key, cell) for key, cell in by_key.items() if key not in hits]

        def on_record(position: int, record: Dict[str, object]) -> None:
            key, cell = missing[position]
            record = _canonical(record)
            if self.use_cache:
                self.store.put(key, cell.payload(), record)
            deliver(key, record)

        self._execute_missing([cell for _, cell in missing], on_record)
        self.stats.executed = len(missing)
        if self.use_cache and self.cache_max_bytes is not None:
            self.store.evict(self.cache_max_bytes)
        return delivered

    def _execute_missing(
        self,
        cells: Sequence[SweepCell],
        on_record: Callable[[int, Dict[str, object]], None],
    ) -> None:
        if not cells:
            return
        # The backend's counters run over its lifetime; stats are per run.
        before = dict(self.backend.counters)
        self.backend.run(cells, on_record=on_record)
        counters = {
            name: value - before[name]
            for name, value in self.backend.counters.items()
        }
        self.stats.applications_built += counters["applications_built"]
        self.stats.libraries_built += counters["libraries_built"]
        self.stats.builds_saved += (
            counters["applications_saved"] + counters["libraries_saved"]
        )
        self.stats.frames_sent += counters["frames_sent"]
        self.stats.worker_restarts += counters["worker_restarts"]
        self.stats.remote_cache_hits += counters["remote_cache_hits"]
        self.stats.jobs_completed += counters["jobs_completed"]
        self.stats.bytes_sent += counters["bytes_sent"]
        self.stats.bytes_received += counters["bytes_received"]
        self.stats.frames_coalesced += counters["frames_coalesced"]
        self.stats.blocks_compressed += counters["blocks_compressed"]


@contextmanager
def resolve_engine(
    engine: Optional[SweepEngine] = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Union[str, Path, None] = None,
    cache_max_bytes: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    coordinator: Optional[str] = None,
) -> Iterator[SweepEngine]:
    """The engine an experiment entry point runs its cells on.

    Yields ``engine`` when given and leaves it open (its owner closes
    it).  Otherwise builds one from the convenience flags -- serial and
    uncached when they ask for nothing more -- and closes it on exit.
    """
    if engine is not None:
        yield engine
        return
    with SweepEngine(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        backend=backend,
        workers=workers,
        coordinator=coordinator,
    ) as built:
        yield built


__all__ = [
    "APP_MEMO_CAPACITY",
    "BUILD_COUNTERS",
    "BUILD_COUNTER_NAMES",
    "CONTENTION_KEYS",
    "DEFAULT_CACHE_DIR",
    "ENGINE_SCHEMA",
    "EngineStats",
    "LIBRARY_MEMO_CAPACITY",
    "METRICS",
    "MetricSpec",
    "POLICIES",
    "SweepCell",
    "SweepEngine",
    "WORKLOADS",
    "WorkloadFamily",
    "cache_stats",
    "cell_key",
    "clear_build_memo",
    "clear_cache",
    "evict_cache",
    "execute_batch",
    "execute_cell",
    "library_fingerprint",
    "policy_name_of",
    "register_metric",
    "register_policy",
    "register_workload",
    "resolve_engine",
]
