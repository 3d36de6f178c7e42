"""Span recorder and the wrappers that time each ``repro`` layer from outside.

The traced pass patches public entry points of ``repro`` (registry
callables and public methods) with thin wrappers that open a span on
entry and close it on exit.  Spans nest per thread, so a span's *self*
time is its duration minus the durations of its direct children: summing
self times over every span counts each nanosecond of a thread exactly
once, however deeply the layers call each other.  A span name re-entered
while it is already open -- a wrapped override calling a wrapped ``super``
method -- adds its self time again but counts one call, and only the
outermost level adds inclusive time.

Totals are folded online (an ECU-heavy cell opens thousands of spans) and
kept in memory; the harness reads them once the timed phase ends.  The
program itself is not changed: spans inside ``repro`` are a later step.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from metrics import percentile

#: Spans whose self time is waiting on work no span in this process sees:
#: pool workers (``backends.run``) and the service's workers and socket
#: (``service.run_job``, measured in the client threads).
WAIT_SPANS = frozenset({"backends.run", "service.run_job"})

#: Spans whose individual inclusive durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"engine.execute_cell"})


class SpanRecorder:
    """Per-thread span stacks folded into per-name totals.

    ``enter``/``exit`` take an explicit ``now`` and ``thread`` only so a
    recorded event list can be replayed (:func:`fold_events`); the
    wrappers use the monotonic clock and the calling thread.
    """

    def __init__(self):
        self.enabled = True
        self._lock = threading.Lock()
        #: thread -> (open stack, open count per name, name -> totals)
        self._threads: Dict[object, tuple] = {}
        self._local = threading.local()
        self.counters: Dict[str, float] = {}

    def _state(self, thread) -> tuple:
        if thread is None:
            state = getattr(self._local, "state", None)
            if state is not None:
                return state
        key = threading.get_ident() if thread is None else thread
        with self._lock:
            state = self._threads.setdefault(key, ([], {}, {}))
        if thread is None:
            self._local.state = state
        return state

    def enter(self, name: str, now: Optional[int] = None, thread=None) -> None:
        stack, open_names, _ = self._state(thread)
        open_names[name] = open_names.get(name, 0) + 1
        stack.append([name, time.perf_counter_ns() if now is None else now, 0])

    def exit(self, now: Optional[int] = None, thread=None) -> None:
        end = time.perf_counter_ns() if now is None else now
        stack, open_names, totals = self._state(thread)
        name, start, children = stack.pop()
        duration = end - start
        open_names[name] -= 1
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0, 0, []]
        entry[0] += duration - children
        if not open_names[name]:
            entry[1] += duration
            entry[2] += 1
            if name in KEEP_DURATIONS:
                entry[3].append(duration)
        if stack:
            stack[-1][2] += duration

    def add(self, name: str, amount: float) -> None:
        """Accumulate a counter read at a layer boundary."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def table(self) -> Dict[str, Dict[str, object]]:
        """``name -> {self_ns, incl_ns, calls, durations_ns}`` over all
        threads."""
        merged: Dict[str, Dict[str, object]] = {}
        with self._lock:
            states = list(self._threads.values())
        for _, _, totals in states:
            for name, (self_ns, incl_ns, calls, durations) in totals.items():
                entry = merged.setdefault(
                    name,
                    {"self_ns": 0, "incl_ns": 0, "calls": 0, "durations_ns": []},
                )
                entry["self_ns"] += self_ns
                entry["incl_ns"] += incl_ns
                entry["calls"] += calls
                entry["durations_ns"].extend(durations)
        return merged


def fold_events(events: Iterable[Mapping[str, object]]) -> Dict[str, Dict[str, object]]:
    """Replay recorded ``{"thread", "op": "enter"|"exit", "name", "t"}``
    events through a recorder and return its table."""
    recorder = SpanRecorder()
    for event in events:
        if event["op"] == "enter":
            recorder.enter(str(event["name"]), int(event["t"]), event["thread"])
        else:
            recorder.exit(int(event["t"]), event["thread"])
    return recorder.table()


def wrap(recorder: SpanRecorder, fn: Callable, name: str,
         after: Optional[Callable[[object], None]] = None) -> Callable:
    """``fn`` timed as span ``name``; ``after(result)`` reads counters off
    the result once the span closed.  Wrapping twice is a no-op."""
    if getattr(fn, "__bench_span__", None) is not None:
        return fn

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if after is not None:
            after(result)
        return result

    wrapper.__bench_span__ = name
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_methods(recorder: SpanRecorder, cls: type, names: Mapping[str, str]) -> None:
    """Wrap each method ``cls`` itself defines (inherited ones are wrapped
    on the class that defines them)."""
    for attr, span in names.items():
        if attr in vars(cls):
            setattr(cls, attr, wrap(recorder, vars(cls)[attr], span))


def install(recorder: SpanRecorder) -> None:
    """Patch the layer boundaries of ``repro`` in this process.

    Forked children (pool and service workers) inherit the patched
    classes; they stop recording, because nothing ships their spans home.
    """
    from repro.core.optimal import OptimalSelector
    from repro.core.selector import ISESelector
    from repro.experiments import engine as engine_module
    from repro.experiments.backends import BACKENDS
    from repro.ise.library import ISELibrary
    from repro.results import kpi
    from repro.results.store import ResultReader, ResultWriter
    from repro.service import wire
    from repro.service.client import ServiceClient
    from repro.service.scheduler import FairScheduler
    from repro.service.store import RecordStore
    from repro.sim.policy import RuntimePolicy
    from repro.sim.program import Application
    from repro.sim.simulator import Simulator

    os.register_at_fork(after_in_child=lambda: setattr(recorder, "enabled", False))

    def after_simulation(result) -> None:
        stats = result.stats
        recorder.add("sim.executions", stats.total_executions)
        recorder.add("sim.ecu_calls", stats.ecu_calls)
        recorder.add("sim.fastforwarded", stats.executions_fastforwarded)
        recorder.add("selector.profit_evaluations", stats.profit_evaluations)
        recorder.add("selector.evaluations_recomputed", stats.evaluations_recomputed)

    engine_module.cell_key = wrap(recorder, engine_module.cell_key, "engine.cell_key")
    engine_module.execute_cell = wrap(
        recorder, engine_module.execute_cell, "engine.execute_cell"
    )
    _wrap_methods(recorder, engine_module.SweepEngine,
                  {"run": "engine.run", "run_streamed": "engine.run"})
    for backend in set(BACKENDS.values()):
        _wrap_methods(recorder, backend, {"run": "backends.run"})
    for name, family in list(engine_module.WORKLOADS.items()):
        engine_module.WORKLOADS[name] = engine_module.WorkloadFamily(
            family.name,
            wrap(recorder, family.application, "workloads.build"),
            wrap(recorder, family.library, "workloads.build"),
        )
    _wrap_methods(recorder, ISELibrary, {"__init__": "ise.compile"})

    policy_classes = set()
    for name, factory in list(engine_module.POLICIES.items()):
        engine_module.POLICIES[name] = wrap(recorder, factory, "selection.prepare")
        policy_classes.update(
            cls for cls in getattr(factory, "__mro__", ()) if issubclass(cls, RuntimePolicy)
        )
    # The ECU boundary is the policy hook the simulator calls; MRTS-style
    # policies delegate it to their ExecutionControlUnit, which is left
    # unwrapped so the hottest call in the program pays for one span only.
    for cls in policy_classes:
        _wrap_methods(recorder, cls, {
            "attach": "selection.prepare",
            "prepare": "selection.prepare",
            "on_block_entry": "selection.block_entry",
            "on_block_exit": "selection.block_exit",
            "execute": "ecu.execute",
            "execute_run": "ecu.execute",
        })
    for selector in (ISESelector, OptimalSelector):
        _wrap_methods(recorder, selector, {"select": "selector.select"})
    Simulator.run = wrap(recorder, Simulator.run, "sim.run", after_simulation)
    _wrap_methods(recorder, Application, {"profiled_triggers": "sim.profiled_triggers"})

    _wrap_methods(recorder, ResultWriter, {
        "__init__": "results.open",
        "append": "results.sink",
        "sink": "results.sink",
        "close": "results.close",
    })
    _wrap_methods(recorder, ResultReader, {"__init__": "results.open"})
    kpi.speedup_summary = wrap(recorder, kpi.speedup_summary, "results.fold")

    _wrap_methods(recorder, ServiceClient, {"run_job": "service.run_job"})
    _wrap_methods(recorder, FairScheduler, {
        attr: "service.scheduler"
        for attr in ("submit", "next_batch", "requeue", "complete", "has_work")
    })
    _wrap_methods(recorder, RecordStore, {
        "get": "service.store_get",
        "put": "service.store_put",
        "flush_index": "service.store_put",
    })
    for attr in ("encode_record_block", "encode_binary_frame"):
        setattr(wire, attr, wrap(recorder, getattr(wire, attr), "service.wire_encode"))
    for attr in ("decode_record_block", "decode_blob"):
        setattr(wire, attr, wrap(recorder, getattr(wire, attr), "service.wire_decode"))


# ------------------------------------------------------------- layer fold

#: per-layer metric -> (span, "self" | "incl"), reported in ms per cell.
_SPAN_TIMES = {
    "sim.self_ms": ("sim.run", "self"),
    "sim.profiled_triggers_ms": ("sim.profiled_triggers", "self"),
    "ecu.execute_ms": ("ecu.execute", "self"),
    "selection.prepare_ms": ("selection.prepare", "self"),
    "selection.block_entry_ms": ("selection.block_entry", "self"),
    "selection.block_exit_ms": ("selection.block_exit", "self"),
    "selector.select_ms": ("selector.select", "self"),
    "workloads.build_ms": ("workloads.build", "self"),
    "ise.compile_ms": ("ise.compile", "self"),
    "engine.self_ms": ("engine.run", "self"),
    "engine.cell_key_ms": ("engine.cell_key", "self"),
    "engine.execute_cell_ms": ("engine.execute_cell", "self"),
    "backends.run_ms": ("backends.run", "self"),
    "results.open_ms": ("results.open", "self"),
    "results.sink_ms": ("results.sink", "self"),
    "results.close_ms": ("results.close", "self"),
    "results.fold_ms": ("results.fold", "self"),
    "service.run_job_ms": ("service.run_job", "incl"),
    "service.unattributed_ms": ("service.run_job", "self"),
    "service.scheduler_ms": ("service.scheduler", "self"),
    "service.store_get_ms": ("service.store_get", "self"),
    "service.store_put_ms": ("service.store_put", "self"),
    "service.wire_encode_ms": ("service.wire_encode", "self"),
    "service.wire_decode_ms": ("service.wire_decode", "self"),
}

#: per-layer metric -> span whose (outermost) call count is reported per cell.
_SPAN_CALLS = {
    "ecu.calls": "ecu.execute",
    "selection.calls": "selection.block_entry",
    "workloads.builds": "workloads.build",
    "ise.compiles": "ise.compile",
}

#: per-layer metric -> counter reported per cell.
_PER_CELL = {
    "sim.executions": "sim.executions",
    "sim.ecu_calls": "sim.ecu_calls",
    "selector.profit_evaluations": "selector.profit_evaluations",
    "selector.evaluations_recomputed": "selector.evaluations_recomputed",
    "engine.cache_hits": "engine.cache_hits",
    "engine.executed": "engine.executed",
    "engine.applications_built": "engine.applications_built",
    "engine.libraries_built": "engine.libraries_built",
    "engine.builds_saved": "engine.builds_saved",
    "engine.frames_sent": "engine.frames_sent",
    "results.stored_bytes": "results.stored_bytes",
    "service.bytes_sent": "service.bytes_sent",
    "service.bytes_received": "service.bytes_received",
    "service.frames_coalesced": "service.frames_coalesced",
    "service.blocks_compressed": "service.blocks_compressed",
}

#: per-layer metric -> counter reported per operation.
_PER_OP = {
    "results.shards": "results.shards",
    "service.remote_cache_hits": "service.remote_cache_hits",
    "service.worker_restarts": "service.worker_restarts",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(durations: List[int], q: float) -> float:
    return percentile(durations, q) / 1e6 if durations else 0.0


def layer_metrics(
    table: Mapping[str, Mapping[str, object]],
    counters: Mapping[str, float],
    cells: int,
    ops: int,
    wall_s: float,
) -> Dict[str, float]:
    """Fold a span table and counters into the per-layer metrics.

    Times and work counts are per delivered cell, so a faster layer shows
    as a smaller number even though every run lasts the same wall time.
    """

    def span(name: str, field: str = "self") -> float:
        entry = table.get(name)
        return float(entry[f"{field}_ns"]) if entry else 0.0

    def calls(name: str) -> int:
        entry = table.get(name)
        return int(entry["calls"]) if entry else 0

    out: Dict[str, float] = {}
    for metric, (name, field) in _SPAN_TIMES.items():
        out[metric] = _ratio(span(name, field) / 1e6, cells)
    for metric, name in _SPAN_CALLS.items():
        out[metric] = _ratio(calls(name), cells)
    for metric, name in _PER_CELL.items():
        out[metric] = _ratio(counters.get(name, 0), cells)
    for metric, name in _PER_OP.items():
        out[metric] = _ratio(counters.get(name, 0), ops)

    executions = counters.get("sim.executions", 0)
    out["sim.ns_per_execution"] = _ratio(span("sim.run", "incl"), executions)
    out["sim.fastforward_ratio"] = _ratio(counters.get("sim.fastforwarded", 0), executions)
    out["ecu.executions_per_call"] = _ratio(executions, calls("ecu.execute"))
    evaluations = counters.get("selector.profit_evaluations", 0)
    out["selector.hit_ratio"] = _ratio(
        evaluations - counters.get("selector.evaluations_recomputed", 0), evaluations
    )
    durations = table.get("engine.execute_cell", {}).get("durations_ns", [])
    out["engine.execute_cell_p50_ms"] = _percentile_ms(durations, 50)
    out["engine.execute_cell_p90_ms"] = _percentile_ms(durations, 90)
    out["service.dedup_ratio"] = _ratio(counters.get("service.remote_cache_hits", 0), cells)

    waiting = sum(span(name) for name in WAIT_SPANS)
    working = sum(float(entry["self_ns"]) for entry in table.values()) - waiting
    out["trace.wall_s"] = wall_s
    out["trace.attributed_s"] = working / 1e9
    out["trace.unattributed_s"] = waiting / 1e9
    return out


__all__ = [
    "KEEP_DURATIONS",
    "SpanRecorder",
    "WAIT_SPANS",
    "fold_events",
    "install",
    "layer_metrics",
    "wrap",
]
