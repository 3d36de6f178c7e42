"""The cycle-level simulator of the multi-grained reconfigurable processor.

Replaces the authors' cycle-accurate instruction-set simulator: it executes
an :class:`~repro.sim.program.Application` against a run-time policy, with
simulated wall-clock time advancing through trigger handling, non-kernel
gaps and kernel executions, while reconfigurations complete at the absolute
cycles the reconfiguration controller scheduled.

The simulator is deliberately policy-agnostic -- mRTS, the RISPP-like,
Morpheus/4S-like, offline-optimal and online-optimal systems all run through
the exact same loop, so the comparisons of Figs. 8-10 are apples-to-apples.

The same block loop co-runs several tasks -- applications, each under its
own policy -- on one core and one fabric (:meth:`Simulator.co_run`):
Section 1's fabric "shared among various tasks".  The core time-multiplexes
the tasks round-robin at functional-block granularity (a block is the
natural preemption point: triggers and selections happen there); all of
them share one :class:`ReconfigurationController` (one pool of PRCs and CG
slots, one bitstream port, LRU eviction across task boundaries) and each
keeps its own statistics and trace.  A run alone is the one-task case.

Two interchangeable execution engines drive the kernel loop:

* ``stepped`` -- the literal Fig. 7 reference: one
  :meth:`~repro.sim.policy.RuntimePolicy.execute` call per kernel
  execution.
* ``packed`` (default) -- the production engine.  Between availability
  events the ECU cascade's verdict is piecewise-constant, so each group of
  back-to-back executions of one kernel is advanced with O(1) arithmetic:
  the ECU regime cache-hit path is transcribed inline over the group
  cursor of :mod:`repro.core.packed` (LRU touches deferred),
  misses go through :meth:`~repro.sim.policy.RuntimePolicy.execute_run`,
  and a stretch of cache hits up to the next availability event -- or a
  whole iteration of a time-invariant policy -- folds in closed form.

Both engines produce byte-identical statistics and traces (see
docs/simulator.md for the equivalence argument); pick one explicitly via
``Simulator(engine=...)`` or globally via the ``REPRO_SIM`` environment
variable (mirroring the ``REPRO_SELECTOR`` A/B pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.packed import PackedIteration

from repro.core.ecu import MODE_CODES, MODE_KEYS
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
from repro.util.validation import ReproError
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
class Task:
    """One co-scheduled application with its own run-time policy."""

    name: str
    application: Application
    library: ISELibrary
    policy: RuntimePolicy

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("Task.name must be non-empty")


@dataclass
class TaskResult:
    """Per-task outcome of a co-run.

    ``stats.total_cycles`` sums the task's own block windows (its busy
    cycles) and ``stats.reconfigurations`` the reconfigurations scheduled
    during them: only the running task commits during its block, so the
    tasks' counts sum to the controller's.  Alone, they are the wall clock
    and the controller's whole count.
    """

    name: str
    stats: SimulationStats
    trace: Optional[SimulationTrace]
    finished_at: int  #: wall cycle at which the task's last block completed


@dataclass
class MultiTaskResult:
    """Outcome of a co-run."""

    budget: ResourceBudget
    total_cycles: int  #: wall clock: the end of the last block of any task
    tasks: Dict[str, TaskResult]
    controller: ReconfigurationController

    def task(self, name: str) -> TaskResult:
        try:
            return self.tasks[name]
        except KeyError:
            raise KeyError(f"unknown task {name!r}") from None

    def slowdown_vs(self, name: str, alone_cycles: int) -> float:
        """How much longer the task ran than it would have alone (wall
        clock; co-scheduling always stretches wall time because the core is
        time-shared)."""
        return self.task(name).finished_at / alone_cycles


def _check_tasks(tasks: Sequence[Task]) -> None:
    """Reject an empty task list, duplicate task names and kernel names
    shared between tasks (the fabric's configuration state is keyed by
    implementation names)."""
    if not tasks:
        raise ReproError("a co-run needs at least one task")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate task names: {names}")
    kernel_names: Dict[str, str] = {}
    for task in tasks:
        for kernel in task.application.all_kernels():
            owner = kernel_names.setdefault(kernel.name, task.name)
            if owner != task.name:
                raise ReproError(
                    f"kernel {kernel.name!r} appears in tasks "
                    f"{owner!r} and {task.name!r}; kernel names must be "
                    "globally unique across co-scheduled tasks"
                )


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    policy_name: str
    budget: ResourceBudget
    stats: SimulationStats
    trace: Optional[SimulationTrace] = None
    controller: Optional[ReconfigurationController] = None
    #: the simulated application (the run's input, for derived metrics)
    application: Optional[Application] = None
    #: every task's result, this one first (a run alone is a one-task
    #: co-run)
    co_run: Optional[MultiTaskResult] = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


class Simulator:
    """Runs one application under one policy on one fabric budget
    (:meth:`run`), or several tasks sharing it (:meth:`co_run`)."""

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

    @classmethod
    def co_run(
        cls,
        tasks: Sequence[Task],
        budget: ResourceBudget,
        collect_trace: bool = False,
        engine: Optional[str] = None,
    ) -> MultiTaskResult:
        """Co-run ``tasks`` round-robin on one core and one fabric."""
        _check_tasks(tasks)
        first = tasks[0]
        simulator = cls(
            first.application, first.library, budget, first.policy,
            collect_trace=collect_trace, engine=engine,
        )
        return simulator._run(tasks).co_run

    def run(self) -> SimulationResult:
        """Execute the application start to finish."""
        return self._run(
            [Task(self.policy.name, self.application, self.library, self.policy)]
        )

    def _run(self, tasks: Sequence[Task]) -> SimulationResult:
        """Execute every task start to finish on this simulator's fabric;
        returns the first task's result, with every task's attached as
        ``co_run``.

        Round ``r`` runs block iteration ``r`` of every task that has one,
        in task order: round-robin at block granularity.
        """
        # Imported lazily: repro.core.packed pulls in repro.sim.program,
        # whose package __init__ imports this module.
        from repro.core.packed import pack_program

        _check_tasks(tasks)
        packed = resolve_engine_mode(self.engine) == "packed"
        self._packed_iterations = {} if packed else None
        run_kernels = (
            self._run_kernels_packed if packed else self._run_kernels_stepped
        )
        controller = ReconfigurationController(self.budget)
        turns: List[Tuple[Task, Dict, TaskResult]] = []
        for task in tasks:
            # Profiled triggers are burnt into the binary at compile time:
            # one cached profile per application, shared with the policy's
            # prepare.
            program = pack_program(task.application)
            task.policy.attach(task.library, controller)
            task.policy.prepare(task.application)
            if packed:
                self._packed_iterations.update(
                    (id(iteration), packed_iteration)
                    for iteration, packed_iteration in zip(
                        task.application.iterations, program.iterations
                    )
                )
            turns.append((task, program.profiled, TaskResult(
                task.name, SimulationStats(),
                SimulationTrace() if self.collect_trace else None, 0,
            )))

        t = 0
        rounds = max(len(task.application.iterations) for task in tasks)
        for r in range(rounds):
            for task, profiled, result in turns:
                if r >= len(task.application.iterations):
                    continue
                iteration = task.application.iterations[r]
                policy, stats, trace = task.policy, result.stats, result.trace
                block_entry = t
                reconfigurations = controller.reconfig_count
                if self.contention is not None:
                    self.contention.apply_due(controller, t)
                outcome = policy.on_block_entry(
                    iteration.block, profiled[iteration.block], t
                )
                t += outcome.charged_overhead_cycles
                stats.overhead_cycles_charged += outcome.charged_overhead_cycles
                stats.overhead_cycles_full += outcome.full_overhead_cycles
                stats.selections += 1
                # Selector-core observability: policies whose selection
                # outcome carries a SelectionResult-shaped detail
                # (duck-typed) feed the cache/evaluation counters;
                # baselines without one are skipped.
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
                    policy, iteration, t, stats, trace, first, last, counts,
                    latency_sums,
                )

                observed = self._observed_timings(
                    iteration, block_entry, first, last, counts, latency_sums
                )
                policy.on_block_exit(iteration.block, observed, t)
                stats.record_block(iteration.block, t - block_entry)
                if trace is not None:
                    trace.record_block_window(iteration.block, block_entry, t)
                stats.total_cycles += t - block_entry
                stats.reconfigurations += (
                    controller.reconfig_count - reconfigurations
                )
                result.finished_at = t

        first_task, _, first_result = turns[0]
        return SimulationResult(
            policy_name=first_task.policy.name,
            budget=self.budget,
            stats=first_result.stats,
            trace=first_result.trace,
            controller=controller,
            application=first_task.application,
            co_run=MultiTaskResult(
                budget=self.budget,
                total_cycles=t,
                tasks={result.name: result for _, _, result in turns},
                controller=controller,
            ),
        )

    # ------------------------------------------------------------ engines
    def _run_kernels_stepped(
        self,
        policy: RuntimePolicy,
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
            decision = policy.execute(kernel_name, t)
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
        policy: RuntimePolicy,
        iteration,
        t: int,
        stats: SimulationStats,
        trace: Optional[SimulationTrace],
        first: Dict[str, int],
        last: Dict[str, int],
        counts: Dict[str, int],
        latency_sums: Dict[str, int],
    ) -> int:
        """The production loop over the closed-form group cursor.

        Each group of back-to-back executions of one kernel is one batch;
        :meth:`~repro.core.packed.PackedIteration.next_group` reads it off
        the per-kernel ``done`` counts.
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
        * the stretch fold only fires when tracing is off and every
          kernel still owed executions sits in a version-valid regime and
          has already executed this block; it then folds every whole group
          ahead of the first one reaching the earliest regime horizon --
          groups the loop would serve as full-count cache hits -- with
          :meth:`~repro.core.packed.PackedIteration.fold` (an infinite
          horizon folds the rest of the iteration);
        * a time-invariant policy folds the whole iteration when tracing is
          off (:meth:`_fold_time_invariant`).
        """
        assert self._packed_iterations is not None
        packed = self._packed_iterations[id(iteration)]
        if trace is None and policy.time_invariant:
            return self._fold_time_invariant(
                policy, packed, t, stats, first, last, counts, latency_sums
            )
        ecu = getattr(policy, "ecu", None)
        regimes = getattr(ecu, "regimes", None)
        resources = ecu.controller.resources if regimes is not None else None
        inf = float("inf")
        block = iteration.block

        # Local accumulators, merged into ``stats`` once at the end; the
        # per-mode ones are indexed by the ECU's int mode code.
        ecu_calls = 0
        fastforwarded = 0
        events = 0
        gap_cycles = 0
        kernel_cycles = 0
        exec_by_mode = [0] * len(MODE_KEYS)
        cycles_by_mode = [0] * len(MODE_KEYS)
        # kernel -> (implementation ids, run-end timestamp): deferred LRU
        # touches.
        pending_touch: Dict[str, Tuple[Tuple[int, ...], int]] = {}

        kernels = packed.kernels
        gaps = packed.gaps
        totals = packed.totals
        next_group = packed.next_group
        # The cursor: executions per kernel id through the current group.
        done = [0] * len(kernels)
        left = sum(totals)
        fold_ok = trace is None and regimes is not None
        try_fold = fold_ok

        while left:
            if try_fold:
                try_fold = False
                version = resources.version
                horizon = inf
                periods = [0] * len(kernels)
                owed = []  # (kernel id, name, regime)
                for kid, k in enumerate(kernels):
                    if done[kid] >= totals[kid]:
                        continue
                    regime = regimes.get(k)
                    if regime is None or regime.version != version or k not in first:
                        owed = None
                        break
                    owed.append((kid, k, regime))
                    periods[kid] = gaps[kid] + regime.decision.latency
                    if regime.horizon < horizon:
                        horizon = regime.horizon
                if owed:
                    # Every owed kernel sits in a valid regime, so every
                    # execution starting before the earliest horizon is a
                    # cache hit: fold the whole groups ahead of the first
                    # group that reaches it (Fig. 7 is piecewise-constant
                    # between availability events).
                    advance, folded, ends = packed.fold(
                        done, periods, horizon - t
                    )
                    if any(folded):
                        for kid, k, regime in owed:
                            cnt = folded[kid]
                            if not cnt:
                                continue
                            decision = regime.decision
                            latency = decision.latency
                            end = t + ends[kid]
                            last[k] = end
                            pending_touch[k] = (regime.touch_ids, end - latency)
                            done[kid] += cnt
                            left -= cnt
                            latency_sums[k] = latency_sums.get(k, 0) + cnt * latency
                            exec_by_mode[regime.code] += cnt
                            cycles_by_mode[regime.code] += cnt * latency
                            kernel_cycles += cnt * latency
                            gap_cycles += cnt * gaps[kid]
                            fastforwarded += cnt
                        t += advance
                        continue
            kid, remaining = next_group(done)
            kernel_name = kernels[kid]
            gap = gaps[kid]
            done[kid] += remaining
            left -= remaining
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
                    pending_touch[kernel_name] = (regime.touch_ids, run_end)
                    fastforwarded += count
                    gap_cycles += count * gap
                    if kernel_name not in first:
                        first[kernel_name] = start
                        # A kernel's first execution this block may complete
                        # the stretch fold's preconditions: retry at the
                        # next group boundary.
                        try_fold = fold_ok
                    latency_sums[kernel_name] = (
                        latency_sums.get(kernel_name, 0) + count * latency
                    )
                    exec_by_mode[regime.code] += count
                    cycles_by_mode[regime.code] += count * latency
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
                    latency_sums[kernel_name] = (
                        latency_sums.get(kernel_name, 0) + count * latency
                    )
                    code = MODE_CODES[decision.mode]
                    exec_by_mode[code] += count
                    cycles_by_mode[code] += count * latency
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
                    # The miss may have rebuilt a regime: the stretch
                    # fold's preconditions may now hold.
                    try_fold = fold_ok
        if pending_touch:
            self._flush_touches(ecu, pending_touch)
        counts.update(zip(kernels, done))
        stats.ecu_calls += ecu_calls
        stats.executions_fastforwarded += fastforwarded
        stats.events_processed += events
        stats.gap_cycles += gap_cycles
        stats.kernel_cycles += kernel_cycles
        # Fold the int mode counters into the name-keyed stats, once.
        executions = stats.executions_by_mode
        cycles = stats.cycles_by_mode
        for key, count, mode_cycles in zip(MODE_KEYS, exec_by_mode, cycles_by_mode):
            if count:
                executions[key] = executions.get(key, 0) + count
                cycles[key] = cycles.get(key, 0) + mode_cycles
        return t

    def _fold_time_invariant(
        self,
        policy: RuntimePolicy,
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
        execute = policy.execute

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
        groups = packed.n_groups
        stats.ecu_calls += groups
        stats.executions_fastforwarded += sum(totals) - groups
        return t + length

    @staticmethod
    def _flush_touches(ecu, pending_touch: Dict[str, Tuple[Tuple[int, ...], int]]) -> None:
        """Apply and clear the packed engine's deferred LRU touches."""
        for impl_ids, touch_time in pending_touch.values():
            ecu.apply_touches(impl_ids, touch_time)
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
    "MultiTaskResult",
    "Simulator",
    "SimulationResult",
    "Task",
    "TaskResult",
    "resolve_engine_mode",
]
