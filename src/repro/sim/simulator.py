"""The cycle-level simulator of the multi-grained reconfigurable processor.

Replaces the authors' cycle-accurate instruction-set simulator: it executes
an :class:`~repro.sim.program.Application` against a run-time policy, with
simulated wall-clock time advancing through trigger handling, non-kernel
gaps and kernel executions, while reconfigurations complete at the absolute
cycles the reconfiguration controller scheduled.

The simulator is deliberately policy-agnostic -- mRTS, the RISPP-like,
Morpheus/4S-like, offline-optimal and online-optimal systems all run through
the exact same loop, so the comparisons of Figs. 8-10 are apples-to-apples.

Two interchangeable execution engines drive the kernel loop:

* ``stepped`` -- the literal Fig. 7 reference: one
  :meth:`~repro.sim.policy.RuntimePolicy.execute` call per kernel
  execution.
* ``packed`` (default) -- the production engine.  Between availability
  events the ECU cascade's verdict is piecewise-constant, so each group of
  back-to-back executions of one kernel is advanced with O(1) arithmetic:
  the ECU regime cache-hit path is transcribed inline over the compact
  run-length arrays of :mod:`repro.core.packed` (LRU touches deferred),
  misses go through :meth:`~repro.sim.policy.RuntimePolicy.execute_run`,
  and an iteration suffix in which no decision can change any more -- or a
  whole iteration of a time-invariant policy -- folds in O(kernels).  The
  selector switches to its packed candidate arrays through the policy's
  ``enable_packed`` hook.

Both engines produce byte-identical statistics and traces (see
docs/simulator.md for the equivalence argument); pick one explicitly via
``Simulator(engine=...)`` or globally via the ``REPRO_SIM`` environment
variable (mirroring the ``REPRO_SELECTOR`` A/B pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.packed import PackedIteration

from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.policy import RuntimePolicy
from repro.sim.program import Application, interleave
from repro.sim.stats import SimulationStats
from repro.sim.trace import (
    ExecutionRecord,
    ExecutionRunRecord,
    SelectionRecord,
    SimulationTrace,
)
#: Environment variable selecting the execution engine (re-exported from
#: the central registry in :mod:`repro.config_env`).
from repro.config_env import ENGINE_MODE_ENV

#: Valid engine implementations.
ENGINE_MODES = ("stepped", "packed")


def resolve_engine_mode(mode: Optional[str] = None) -> str:
    """The engine to use: the explicit ``mode`` if given, else
    ``$REPRO_SIM``, else ``packed``."""
    from repro.config_env import sim_engine_mode

    return sim_engine_mode(mode)


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    policy_name: str
    budget: ResourceBudget
    stats: SimulationStats
    trace: Optional[SimulationTrace] = None
    controller: Optional[ReconfigurationController] = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


class Simulator:
    """Runs one application under one policy on one fabric budget."""

    def __init__(
        self,
        application: Application,
        library: ISELibrary,
        budget: ResourceBudget,
        policy: RuntimePolicy,
        collect_trace: bool = False,
        contention=None,
        engine: Optional[str] = None,
    ):
        """``contention`` optionally supplies a
        :class:`repro.sim.contention.ContentionSchedule`: background tasks
        claiming/releasing fabric at run time (the paper's run-time
        variation (b)).  Events are applied at functional-block boundaries.

        ``engine`` picks the execution engine (``"stepped"`` |
        ``"packed"``); ``None`` defers to ``$REPRO_SIM`` and finally to
        ``packed``.
        """
        self.application = application
        self.library = library
        self.budget = budget
        self.policy = policy
        self.collect_trace = collect_trace
        self.contention = contention
        self.engine = engine
        #: id(iteration) -> packed buffers, installed per packed run.
        self._packed_iterations: Optional[Dict[int, "PackedIteration"]] = None

    def run(self) -> SimulationResult:
        """Execute the application start to finish; returns the result."""
        # Imported lazily: repro.core.packed pulls in repro.sim.program,
        # whose package __init__ imports this module.
        from repro.core.packed import pack_program

        engine = resolve_engine_mode(self.engine)
        # Profiled triggers are burnt into the binary at compile time: one
        # cached profile per application, shared with the policy's prepare.
        program = pack_program(self.application)
        controller = ReconfigurationController(self.budget)
        self.policy.attach(self.library, controller)
        self.policy.prepare(self.application)

        stats = SimulationStats()
        trace = SimulationTrace() if self.collect_trace else None
        if engine == "packed":
            self._packed_iterations = {
                id(iteration): packed_iteration
                for iteration, packed_iteration in zip(
                    self.application.iterations, program.iterations
                )
            }
            run_kernels = self._run_kernels_packed
            enable_packed = getattr(self.policy, "enable_packed", None)
            if enable_packed is not None:
                enable_packed()
        else:
            run_kernels = self._run_kernels_stepped

        t = 0
        for iteration in self.application.iterations:
            block_entry = t
            if self.contention is not None:
                self.contention.apply_due(controller, t)
            outcome = self.policy.on_block_entry(
                iteration.block, program.profiled[iteration.block], t
            )
            t += outcome.charged_overhead_cycles
            stats.overhead_cycles_charged += outcome.charged_overhead_cycles
            stats.overhead_cycles_full += outcome.full_overhead_cycles
            stats.selections += 1
            # Selector-core observability: policies whose selection outcome
            # carries a SelectionResult-shaped detail (duck-typed) feed the
            # cache/evaluation counters; baselines without one are skipped.
            detail = outcome.detail
            if detail is not None and hasattr(detail, "profit_evaluations"):
                stats.record_selection_detail(detail)
                if trace is not None:
                    trace.record_selection(
                        SelectionRecord(
                            time=block_entry,
                            block=iteration.block,
                            mode=getattr(detail, "mode", "?"),
                            rounds=detail.rounds,
                            profit_evaluations=detail.profit_evaluations,
                            evaluations_recomputed=detail.evaluations_recomputed,
                            evaluations_skipped=detail.evaluations_skipped,
                            evaluations_pruned=detail.evaluations_pruned,
                            invalidations=detail.invalidations,
                        )
                    )

            first: Dict[str, int] = {}
            last: Dict[str, int] = {}
            counts: Dict[str, int] = {}
            latency_sums: Dict[str, int] = {}
            t = run_kernels(
                iteration, t, stats, trace, first, last, counts, latency_sums
            )

            observed = self._observed_timings(
                iteration, block_entry, first, last, counts, latency_sums
            )
            self.policy.on_block_exit(iteration.block, observed, t)
            stats.record_block(iteration.block, t - block_entry)
            if trace is not None:
                trace.record_block_window(iteration.block, block_entry, t)

        stats.total_cycles = t
        stats.reconfigurations = controller.reconfig_count
        return SimulationResult(
            policy_name=self.policy.name,
            budget=self.budget,
            stats=stats,
            trace=trace,
            controller=controller,
        )

    # ------------------------------------------------------------ engines
    def _run_kernels_stepped(
        self,
        iteration,
        t: int,
        stats: SimulationStats,
        trace: Optional[SimulationTrace],
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> int:
        """The reference loop: one policy call per kernel execution."""
        for kernel_name, gap in interleave(iteration.kernels):
            t += gap
            stats.gap_cycles += gap
            decision = self.policy.execute(kernel_name, t)
            stats.ecu_calls += 1
            first.setdefault(kernel_name, t)
            counts[kernel_name] = counts.get(kernel_name, 0) + 1
            latency_sums[kernel_name] = (
                latency_sums.get(kernel_name, 0) + decision.latency
            )
            stats.record_execution(decision.mode, decision.latency)
            if trace is not None:
                trace.record_execution(
                    ExecutionRecord(
                        time=t,
                        block=iteration.block,
                        kernel=kernel_name,
                        mode=decision.mode,
                        latency=decision.latency,
                        level=decision.level,
                        ise_name=decision.ise_name,
                    )
                )
            t += decision.latency
            last[kernel_name] = t
        return t

    def _run_kernels_packed(
        self,
        iteration,
        t: int,
        stats: SimulationStats,
        trace: Optional[SimulationTrace],
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> int:
        """The production loop over the compact run-length arrays.

        Each group of back-to-back executions of one kernel is one batch.
        Byte-identical to :meth:`_run_kernels_stepped` (see
        docs/simulator.md for the full argument):

        * the regime cache-hit branch is a line-for-line transcription of
          :meth:`repro.core.ecu.ExecutionControlUnit.execute_run`'s hit
          path (``_batched`` + ``_executions_until``), with the LRU touch
          deferred -- ``touch`` keeps the maximum timestamp and
          ``last_used`` is only read at configuration points, all of which
          flush the deferred touches first;
        * misses delegate to ``policy.execute_run``, which bounds the batch
          by the next availability event (policies without an ECU regime
          cache take this path for every group);
        * the bulk suffix fold only fires when tracing is off and every
          kernel still owed executions sits in a version-valid regime with
          an infinite horizon and has already executed this block -- i.e.
          when every remaining group would be a full-count cache hit -- and
          folds them with the per-kernel pair tables;
        * a time-invariant policy folds the whole iteration when tracing is
          off (:meth:`_fold_time_invariant`).
        """
        assert self._packed_iterations is not None
        packed = self._packed_iterations[id(iteration)]
        policy = self.policy
        if trace is None and policy.time_invariant:
            return self._fold_time_invariant(
                packed, t, stats, first, last, counts, latency_sums
            )
        ecu = getattr(policy, "ecu", None)
        regimes = getattr(ecu, "regimes", None)
        resources = ecu.controller.resources if regimes is not None else None
        inf = float("inf")
        block = iteration.block

        # Local accumulators, merged into ``stats`` once at the end.
        ecu_calls = 0
        fastforwarded = 0
        events = 0
        gap_cycles = 0
        kernel_cycles = 0
        exec_by_mode: Dict[str, int] = {}
        cycles_by_mode: Dict[str, int] = {}
        # kernel -> (impl names, run-end timestamp): deferred LRU touches.
        pending_touch: Dict[str, Tuple[Tuple[str, ...], int]] = {}

        kernels = packed.kernels
        n_kernels = len(kernels)
        gaps = packed.gaps
        totals = packed.totals
        through_last = packed.through_last
        run_kernel = packed.run_kernel
        run_length = packed.run_length
        n_runs = len(run_kernel)
        bulk_ok = trace is None and regimes is not None
        try_bulk = bulk_ok

        j = 0
        while j < n_runs:
            if try_bulk:
                try_bulk = False
                version = resources.version
                # (kernel id, name, executions owed, executions done, regime)
                suffix = []
                feasible = True
                for kid, k in enumerate(kernels):
                    done = counts.get(k, 0)
                    cnt = totals[kid] - done
                    if cnt <= 0:
                        continue
                    regime = regimes.get(k)
                    if (
                        regime is None
                        or regime.version != version
                        or regime.horizon != inf
                        or k not in first
                    ):
                        feasible = False
                        break
                    suffix.append((kid, k, cnt, done, regime))
                if feasible and suffix:
                    # Every remaining group is a full-count cache hit: fold
                    # them.  Each execution of kernel k advances t by k's
                    # period (gap + regime latency), so the suffix advances
                    # t by the owed executions times their periods, and k's
                    # last execution ends after the owed executions up to
                    # and including k's last group.
                    periods = {
                        kid: gaps[kid] + regime.decision.latency
                        for kid, _, _, _, regime in suffix
                    }
                    advance = 0
                    for kid, k, cnt, done, regime in suffix:
                        decision = regime.decision
                        latency = decision.latency
                        row = kid * n_kernels
                        end = t
                        for kid2, _, _, done2, _ in suffix:
                            owed = through_last[row + kid2] - done2
                            end += owed * periods[kid2]
                        last[k] = end
                        pending_touch[k] = (regime.touch_impls, end - latency)
                        counts[k] = done + cnt
                        latency_sums[k] = latency_sums.get(k, 0) + cnt * latency
                        key = decision.mode.value
                        exec_by_mode[key] = exec_by_mode.get(key, 0) + cnt
                        cycles_by_mode[key] = (
                            cycles_by_mode.get(key, 0) + cnt * latency
                        )
                        kernel_cycles += cnt * latency
                        gap_cycles += cnt * gaps[kid]
                        fastforwarded += cnt
                        advance += cnt * periods[kid]
                    t += advance
                    break
            kid = run_kernel[j]
            kernel_name = kernels[kid]
            gap = gaps[kid]
            remaining = run_length[j]
            j += 1
            while remaining > 0:
                start = t + gap
                regime = (
                    regimes.get(kernel_name) if regimes is not None else None
                )
                if (
                    regime is not None
                    and regime.version == resources.version
                    and start < regime.horizon
                ):
                    # Transcribed ECU cache hit (touch deferred).
                    decision = regime.decision
                    latency = decision.latency
                    horizon = regime.horizon
                    period = gap + latency
                    if horizon == inf or period <= 0:
                        count = remaining
                    else:
                        span = int(horizon) - start
                        if span <= 0:
                            count = 1
                        else:
                            count = max(
                                1, min(remaining, (span + period - 1) // period)
                            )
                    run_end = start + (count - 1) * period
                    pending_touch[kernel_name] = (regime.touch_impls, run_end)
                    fastforwarded += count
                    gap_cycles += count * gap
                    if kernel_name not in first:
                        first[kernel_name] = start
                        # A kernel's first execution this block may complete
                        # the bulk fold's preconditions: retry at the next
                        # group boundary.
                        try_bulk = bulk_ok
                    counts[kernel_name] = counts.get(kernel_name, 0) + count
                    latency_sums[kernel_name] = (
                        latency_sums.get(kernel_name, 0) + count * latency
                    )
                    key = decision.mode.value
                    exec_by_mode[key] = exec_by_mode.get(key, 0) + count
                    cycles_by_mode[key] = (
                        cycles_by_mode.get(key, 0) + count * latency
                    )
                    kernel_cycles += count * latency
                    if trace is not None:
                        trace.record_execution_run(
                            ExecutionRunRecord(
                                time=start,
                                block=block,
                                kernel=kernel_name,
                                mode=decision.mode,
                                latency=latency,
                                level=decision.level,
                                ise_name=decision.ise_name,
                                count=count,
                                period=period,
                            )
                        )
                    t = run_end + latency
                    last[kernel_name] = t
                    remaining -= count
                else:
                    # Cache miss: flush deferred touches (the cascade may
                    # configure and evict by last_used), then let the
                    # policy bound the batch.
                    if pending_touch:
                        self._flush_touches(ecu, pending_touch)
                    run = policy.execute_run(kernel_name, start, remaining, gap)
                    decision = run.decision
                    latency = decision.latency
                    count = run.count
                    period = gap + latency
                    if run.cascade_called:
                        ecu_calls += 1
                        fastforwarded += count - 1
                    else:
                        fastforwarded += count
                    if run.event_crossed:
                        events += 1
                    gap_cycles += count * gap
                    if kernel_name not in first:
                        first[kernel_name] = start
                    counts[kernel_name] = counts.get(kernel_name, 0) + count
                    latency_sums[kernel_name] = (
                        latency_sums.get(kernel_name, 0) + count * latency
                    )
                    key = decision.mode.value
                    exec_by_mode[key] = exec_by_mode.get(key, 0) + count
                    cycles_by_mode[key] = (
                        cycles_by_mode.get(key, 0) + count * latency
                    )
                    kernel_cycles += count * latency
                    if trace is not None:
                        trace.record_execution_run(
                            ExecutionRunRecord(
                                time=start,
                                block=block,
                                kernel=kernel_name,
                                mode=decision.mode,
                                latency=latency,
                                level=decision.level,
                                ise_name=decision.ise_name,
                                count=count,
                                period=period,
                            )
                        )
                    t = start + (count - 1) * period + latency
                    last[kernel_name] = t
                    remaining -= count
                    # The miss may have rebuilt a regime: the bulk fold's
                    # preconditions may now hold.
                    try_bulk = bulk_ok
        if pending_touch:
            self._flush_touches(ecu, pending_touch)
        stats.ecu_calls += ecu_calls
        stats.executions_fastforwarded += fastforwarded
        stats.events_processed += events
        stats.gap_cycles += gap_cycles
        stats.kernel_cycles += kernel_cycles
        by_mode = stats.executions_by_mode
        for key, value in exec_by_mode.items():
            by_mode[key] = by_mode.get(key, 0) + value
        by_mode = stats.cycles_by_mode
        for key, value in cycles_by_mode.items():
            by_mode[key] = by_mode.get(key, 0) + value
        return t

    def _fold_time_invariant(
        self,
        packed: "PackedIteration",
        t: int,
        stats: SimulationStats,
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> int:
        """A whole iteration of a time-invariant policy in closed form.

        Every execution of a kernel gets the same decision, so every
        execution of kernel k takes one period (gap + latency) and
        :meth:`~repro.core.packed.PackedIteration.timeline` -- the offline
        profile's arithmetic -- folds the iteration, asking for k's period
        (taking k's one decision) at k's first start.  The counters keep
        the per-group loop's meaning: one decision per group, the rest
        fast-forwarded.
        """
        kernels = packed.kernels
        gaps = packed.gaps
        totals = packed.totals
        execute = self.policy.execute

        def period_of(kid: int, start: int) -> int:
            kernel_name = kernels[kid]
            decision = execute(kernel_name, t + start)
            latency = decision.latency
            count = totals[kid]
            first[kernel_name] = t + start
            counts[kernel_name] = count
            latency_sums[kernel_name] = count * latency
            stats.gap_cycles += count * gaps[kid]
            stats.record_execution_run(decision.mode, latency, count)
            return gaps[kid] + latency

        _, ends, length = packed.timeline(period_of)
        for kernel_name, end in zip(kernels, ends):
            last[kernel_name] = t + end
        groups = len(packed.run_kernel)
        stats.ecu_calls += groups
        stats.executions_fastforwarded += sum(totals) - groups
        return t + length

    @staticmethod
    def _flush_touches(ecu, pending_touch: Dict[str, Tuple[Tuple[str, ...], int]]) -> None:
        """Apply and clear the packed engine's deferred LRU touches."""
        for impl_names, touch_time in pending_touch.values():
            ecu.apply_touches(impl_names, touch_time)
        pending_touch.clear()

    @staticmethod
    def _observed_timings(
        iteration,
        block_entry: int,
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> Dict[str, Tuple[float, float, float]]:
        """Actual (executions, tf, tb) per kernel, as the MPU would measure.

        ``tb`` is the mean time between the end of one execution and the
        start of the next (Eq. 3 models one period as ``latency + tb``):
        the kernel's span minus its own execution latencies, divided by the
        number of in-between intervals.
        """
        observed: Dict[str, Tuple[float, float, float]] = {}
        for kit in iteration.kernels:
            e = counts.get(kit.kernel, 0)
            if e == 0:
                observed[kit.kernel] = (0.0, 0.0, 0.0)
                continue
            tf = float(first[kit.kernel] - block_entry)
            if e > 1:
                span = last[kit.kernel] - first[kit.kernel]
                gaps_total = span - latency_sums[kit.kernel]
                tb = max(0.0, gaps_total / (e - 1))
            else:
                tb = 0.0
            observed[kit.kernel] = (float(e), tf, tb)
        return observed


__all__ = [
    "ENGINE_MODES",
    "ENGINE_MODE_ENV",
    "Simulator",
    "SimulationResult",
    "resolve_engine_mode",
]
