"""The Execution Control Unit (Section 4.2, Fig. 7).

Every kernel execution is steered onto the best implementation available
*at that moment*:

a) the selected ISE, if all its data paths are reconfigured;
b) otherwise the deepest ready intermediate ISE;
c) otherwise a monoCG-Extension -- the whole kernel on one free CG fabric,
   ready after a microsecond context load -- which the ECU configures on
   demand to bridge the milliseconds until the first FG data path arrives;
d) otherwise RISC mode on the core processor.

Between reconfiguration-completion events the cascade's verdict for a
kernel is piecewise-constant: the only time-dependent inputs are
``ready_at`` crossings of in-flight copies, and the only state mutations
during a functional block are the ECU's own monoCG configurations (selection
commits, pin releases and contention all happen at block boundaries).
:meth:`ExecutionControlUnit.execute_run` exploits this: it returns the
decision *plus* the absolute cycle at which it could change (the horizon),
and caches the regime per kernel, tagged with
:attr:`repro.fabric.resources.ResourceState.version`, so the event-driven
simulator fast-forwards whole runs of executions with a single cascade
evaluation (see docs/simulator.md for the equivalence argument).

The cascade runs on precomputed per-kernel rows (RISC latency, the
monoCG-Extension's interned implementation id and latency) and reads the
fabric state by implementation id; the LRU touches a regime replays are id
tuples.  Names and :class:`ExecutionMode` members appear only in the
:class:`ExecutionDecision` handed to records and traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.fabric.reconfig import ReconfigurationController
from repro.ise.ise import ISE
from repro.ise.library import ISELibrary
from repro.ise.monocg import MonoCGExtension
from repro.util.validation import build_trusted, check_non_negative


class ExecutionMode(enum.Enum):
    """How a kernel execution was served (the Fig. 7 cascade)."""

    SELECTED = "selected"          #: fully reconfigured selected ISE
    INTERMEDIATE = "intermediate"  #: a proper prefix of the selected ISE
    MONOCG = "monocg"              #: monoCG-Extension on one CG fabric
    RISC = "risc"                  #: plain core-processor execution


#: The execution modes by int code, the form the cascade and the packed
#: engine's per-mode counters carry (``MODE_KEYS[code]`` is the counter
#: key, ``MODE_CODES[mode]`` the code of a member).
EXECUTION_MODES: Tuple[ExecutionMode, ...] = tuple(ExecutionMode)
MODE_KEYS: Tuple[str, ...] = tuple(mode.value for mode in EXECUTION_MODES)
MODE_CODES: Dict[ExecutionMode, int] = {
    mode: code for code, mode in enumerate(EXECUTION_MODES)
}
_SELECTED = MODE_CODES[ExecutionMode.SELECTED]
_INTERMEDIATE = MODE_CODES[ExecutionMode.INTERMEDIATE]
_MONOCG = MODE_CODES[ExecutionMode.MONOCG]
_RISC = MODE_CODES[ExecutionMode.RISC]


@dataclass(frozen=True)
class ExecutionDecision:
    """The ECU's verdict for one kernel execution."""

    kernel: str
    mode: ExecutionMode
    latency: int    #: core cycles this execution takes
    level: int      #: intermediate-ISE level used (0 unless (a)/(b))
    ise_name: Optional[str] = None


@dataclass(frozen=True)
class ExecutionRun:
    """A batch of back-to-back executions sharing one cascade decision.

    Returned by :meth:`ExecutionControlUnit.execute_run`: ``count``
    executions starting at the queried cycle, spaced ``gap + latency``
    apart, all served exactly like ``decision``.  ``horizon`` is the
    absolute cycle at which the decision could next change (``inf`` when
    no pending event can affect it).  ``cascade_called`` reports whether
    this call actually evaluated the Fig. 7 cascade (False = served from
    the regime cache); ``event_crossed`` reports that a previously cached
    regime had to be recomputed (a horizon crossing or a fabric mutation).
    """

    decision: ExecutionDecision
    count: int
    horizon: float
    cascade_called: bool = True
    event_crossed: bool = False


class _Regime:
    """One kernel's cached piecewise-constant execution regime: the
    decision, its mode code, the implementation ids one execution touches,
    and the horizon and fabric version it is valid for."""

    __slots__ = ("decision", "code", "horizon", "version", "touch_ids")

    def __init__(
        self,
        decision: ExecutionDecision,
        code: int,
        horizon: float,
        version: int,
        touch_ids: Tuple[int, ...],
    ):
        self.decision = decision
        self.code = code
        self.horizon = horizon
        self.version = version
        self.touch_ids = touch_ids


class _KernelRow:
    """The static cascade inputs of one kernel, precomputed once."""

    __slots__ = ("risc_latency", "monocg", "monocg_uid", "monocg_latency", "owner")

    def __init__(self, kernel_name: str, risc_latency: int, monocg: MonoCGExtension):
        self.risc_latency = risc_latency
        self.monocg = monocg
        self.monocg_uid = monocg.instance.impl.uid
        self.monocg_latency = monocg.latency
        #: pin owner of the kernel's monoCG-Extension
        self.owner = f"monocg:{kernel_name}"


class ExecutionControlUnit:
    """Steers kernel executions onto available implementations."""

    def __init__(
        self,
        controller: ReconfigurationController,
        library: ISELibrary,
        enable_monocg: bool = True,
        enable_intermediate: bool = True,
        monocg_breakeven_cycles: int = 5_000,
    ):
        """``monocg_breakeven_cycles``: only burn a CG fabric on a
        monoCG-Extension if the next latency improvement of the selected ISE
        is further away than this (a CG-only ISE ready in microseconds never
        warrants one)."""
        check_non_negative("monocg_breakeven_cycles", monocg_breakeven_cycles)
        self.controller = controller
        self.library = library
        self.enable_monocg = enable_monocg
        self.enable_intermediate = enable_intermediate
        self.monocg_breakeven_cycles = monocg_breakeven_cycles
        self._rows: Dict[str, _KernelRow] = {
            name: _KernelRow(name, kernel.risc_latency, library.monocg(name))
            for name, kernel in library.kernels.items()
        }
        self._selection: Dict[str, Optional[ISE]] = {}
        self.monocg_configured_count = 0
        #: kernels whose monoCG-Extension this ECU configured (and therefore
        #: pinned) since the last :meth:`release_monocg_pins`; insertion
        #: ordered so releases stay deterministic.
        self._monocg_pinned: Dict[str, None] = {}
        #: per-kernel cached execution regimes (event-driven fast path).
        self._regimes: Dict[str, _Regime] = {}

    # ----------------------------------------------------------- control
    def set_selection(self, selection: Mapping[str, Optional[ISE]]) -> None:
        """Install the selector's output for the current functional block."""
        self._selection = dict(selection)
        self._regimes.clear()

    def clear_selection(self) -> None:
        """Forget the current selection (block exit without successor)."""
        self._selection = {}
        self._regimes.clear()

    def selected_ise(self, kernel_name: str) -> Optional[ISE]:
        """The ISE currently selected for ``kernel_name`` (None = RISC)."""
        return self._selection.get(kernel_name)

    @property
    def regimes(self) -> Dict[str, _Regime]:
        """The per-kernel regime cache (read-only view).

        The packed engine
        (:meth:`repro.sim.simulator.Simulator._run_kernels_packed`)
        transcribes the :meth:`execute_run` cache-hit path inline over this
        mapping; everyone else should go through :meth:`execute_run`."""
        return self._regimes

    def apply_touches(self, impl_ids: Tuple[int, ...], now: int) -> None:
        """Apply the LRU ``touch`` bookkeeping of one (batched) execution:
        mark the implementation ids a regime touches as used at ``now``.

        For engines that *defer* touches: ``touch`` keeps the maximum
        timestamp and ``last_used`` is only read at configuration points,
        so flushing a deferred touch before the next cascade evaluation
        leaves the fabric state byte-identical to applying it eagerly
        (docs/simulator.md)."""
        self.controller.resources.touch_ids(impl_ids, now)

    def release_monocg_pins(self) -> None:
        """Unpin every monoCG-Extension this ECU configured (called at
        functional-block exit).  Only the kernels whose extensions were
        actually brought onto the fabric are visited -- not the whole
        library; releasing a never-configured owner would be a no-op."""
        for kernel_name in self._monocg_pinned:
            self.controller.release_owner(self._rows[kernel_name].owner)
        self._monocg_pinned.clear()

    # ---------------------------------------------------------- execution
    def execute(self, kernel_name: str, now: int) -> ExecutionDecision:
        """Decide how the execution of ``kernel_name`` at ``now`` is served."""
        decision, code, ise, _, _ = self._cascade(kernel_name, now)
        self.controller.resources.touch_ids(
            self._touch_ids(kernel_name, code, decision.level, ise), now
        )
        return decision

    def execute_run(
        self,
        kernel_name: str,
        now: int,
        max_executions: int,
        gap: int,
    ) -> ExecutionRun:
        """Serve up to ``max_executions`` back-to-back executions of
        ``kernel_name`` -- the first at cycle ``now``, each later one
        ``gap + latency`` cycles after the previous -- with one cascade
        evaluation (or zero, when the kernel's cached regime is still
        valid).

        Batches ``count = min(max_executions, executions strictly before
        the horizon)`` executions; LRU ``touch`` is applied once with the
        run-end timestamp, which leaves ``last_used`` exactly as the
        per-execution stepped loop would (``touch`` keeps the maximum, and
        eviction decisions only read ``last_used`` at configuration points,
        which end regimes).
        """
        resources = self.controller.resources
        regime = self._regimes.get(kernel_name)
        if (
            regime is not None
            and regime.version == resources.version
            and now < regime.horizon
        ):
            return self._batched(regime, now, max_executions, gap, False, False)

        event_crossed = regime is not None
        decision, code, ise, raw_level, configured = self._cascade(kernel_name, now)
        touch_ids = self._touch_ids(kernel_name, code, decision.level, ise)
        if configured:
            # The cascade just scheduled a monoCG-Extension: the fabric
            # mutated under the decision (context load in flight, possible
            # LRU evictions).  Serve a single execution and recompute from
            # the fresh state on the next call rather than reasoning about
            # the post-eviction regime.
            self._regimes.pop(kernel_name, None)
            resources.touch_ids(touch_ids, now)
            return ExecutionRun(
                decision=decision,
                count=1,
                horizon=float(now + 1),
                cascade_called=True,
                event_crossed=event_crossed,
            )

        regime = _Regime(
            decision=decision,
            code=code,
            horizon=self._regime_horizon(kernel_name, ise, raw_level, now),
            version=resources.version,
            touch_ids=touch_ids,
        )
        self._regimes[kernel_name] = regime
        return self._batched(regime, now, max_executions, gap, True, event_crossed)

    def _batched(
        self,
        regime: _Regime,
        now: int,
        max_executions: int,
        gap: int,
        cascade_called: bool,
        event_crossed: bool,
    ) -> ExecutionRun:
        """Fast-forward arithmetic shared by the hit and miss paths."""
        count = self._executions_until(
            now, regime.horizon, gap, regime.decision.latency, max_executions
        )
        run_end = now + (count - 1) * (gap + regime.decision.latency)
        self.controller.resources.touch_ids(regime.touch_ids, run_end)
        # Built thousands of times per simulation from the ECU's own
        # values: skip the frozen dataclass ``__init__``.
        return build_trusted(
            ExecutionRun,
            decision=regime.decision,
            count=count,
            horizon=regime.horizon,
            cascade_called=cascade_called,
            event_crossed=event_crossed,
        )

    @staticmethod
    def _executions_until(
        now: int, horizon: float, gap: int, latency: int, max_executions: int
    ) -> int:
        """Executions at ``now + i * (gap + latency)`` strictly before
        ``horizon`` (capped at ``max_executions``, at least 1: the first
        decision was evaluated at ``now < horizon``)."""
        if horizon == float("inf"):
            return max_executions
        period = gap + latency
        if period <= 0:
            return max_executions
        span = int(horizon) - now
        if span <= 0:
            return 1
        return max(1, min(max_executions, (span + period - 1) // period))

    # ------------------------------------------------------------ cascade
    def _cascade(
        self, kernel_name: str, now: int
    ) -> Tuple[ExecutionDecision, int, Optional[ISE], int, bool]:
        """One Fig. 7 cascade evaluation.

        Returns the decision, its mode code, the selected ISE, the *raw*
        ready prefix level (before the ``enable_intermediate`` adjustment
        -- the horizon computation needs it) and whether a
        monoCG-Extension was configured as a side effect.
        """
        row = self._rows.get(kernel_name)
        if row is None:
            raise KeyError(f"unknown kernel {kernel_name!r}")
        resources = self.controller.resources
        ise = self._selection.get(kernel_name)

        raw_level = 0
        level = 0
        if ise is not None:
            raw_level = resources.ready_level(ise.instances, now)
            level = raw_level
            if not self.enable_intermediate and level < len(ise.instances):
                level = 0

        best_latency = row.risc_latency
        code = _RISC
        ise_name: Optional[str] = None
        if ise is not None and level > 0:
            best_latency = ise.latencies[level]
            code = _SELECTED if level == len(ise.instances) else _INTERMEDIATE
            ise_name = ise.name

        configured = False
        if self.enable_monocg:
            first_ready = resources.ready_time(row.monocg_uid, 1)
            monocg_ready = first_ready is not None and first_ready <= now
            if monocg_ready and row.monocg_latency < best_latency:
                best_latency = row.monocg_latency
                code = _MONOCG
                ise_name = row.monocg.impl_name
                level = 0
            elif not monocg_ready:
                configured = self._maybe_configure_monocg(
                    kernel_name, ise, level, now
                )

        decision = build_trusted(
            ExecutionDecision,
            kernel=kernel_name,
            mode=EXECUTION_MODES[code],
            latency=best_latency,
            level=level,
            ise_name=ise_name,
        )
        return decision, code, ise, raw_level, configured

    def _touch_ids(
        self, kernel_name: str, code: int, level: int, ise: Optional[ISE]
    ) -> Tuple[int, ...]:
        """The implementation ids one execution marks used (LRU
        bookkeeping)."""
        if code == _SELECTED or code == _INTERMEDIATE:
            assert ise is not None
            return tuple(instance.impl.uid for instance in ise.instances[:level])
        if code == _MONOCG:
            return (self._rows[kernel_name].monocg_uid,)
        return ()

    def _regime_horizon(
        self,
        kernel_name: str,
        ise: Optional[ISE],
        raw_level: int,
        now: int,
    ) -> float:
        """Absolute cycle at which the cascade's verdict could change.

        Two event sources bound a regime: the selected ISE's next prefix
        level completing (``ready_at`` crossing of its next instance) and a
        configured-but-loading monoCG-Extension becoming ready.  The
        monoCG breakeven boundary never bounds a regime: the configuration
        window ``next_improvement - now > breakeven`` only *closes* as time
        advances, so if it is open the cascade configures at the regime's
        first execution (ending the regime via the mutation path), and if
        it is closed it stays closed.  All other inputs (free/unpinned
        area, configured quantities, pins) are time-invariant between
        fabric mutations, which invalidate the regime through the resource
        state version.
        """
        horizon = self._next_improvement_at(ise, raw_level)
        if self.enable_monocg:
            # The first monoCG copy to become ready, if it is still loading.
            ready = self.controller.resources.ready_time(
                self._rows[kernel_name].monocg_uid, 1
            )
            if ready is not None and ready > now:
                horizon = min(horizon, float(ready))
        return horizon

    # ------------------------------------------------------------ helpers
    def _ready_level(self, ise: ISE, now: int) -> int:
        """Deepest prefix of ``ise`` whose data paths are all ready."""
        return self.controller.resources.ready_level(ise.instances, now)

    def _maybe_configure_monocg(
        self,
        kernel_name: str,
        ise: Optional[ISE],
        level: int,
        now: int,
    ) -> bool:
        """Configure a monoCG-Extension if it would bridge a real gap.

        Returns whether a configuration was actually scheduled."""
        row = self._rows[kernel_name]
        if self.controller.resources.count(row.monocg_uid) > 0:
            return False  # already in flight
        current_latency = (
            ise.latencies[level] if (ise is not None and level > 0) else row.risc_latency
        )
        if row.monocg_latency >= current_latency:
            return False
        next_improvement_at = self._next_improvement_at(ise, level)
        if next_improvement_at - now <= self.monocg_breakeven_cycles:
            return False
        if not self.controller.free_cg_fabric_available(now):
            return False
        self.controller.ensure_configured(
            [row.monocg.instance], owner=row.owner, now=now
        )
        self._monocg_pinned[kernel_name] = None
        self.monocg_configured_count += 1
        return True

    def _next_improvement_at(self, ise: Optional[ISE], level: int) -> float:
        """Absolute cycle at which the next deeper level becomes ready."""
        if ise is None or level >= len(ise.instances):
            return float("inf")
        next_instance = ise.instances[level]
        ready = self.controller.resources.ready_time(
            next_instance.impl.uid, next_instance.quantity
        )
        return float("inf") if ready is None else float(ready)


__all__ = [
    "EXECUTION_MODES",
    "ExecutionControlUnit",
    "ExecutionDecision",
    "ExecutionMode",
    "ExecutionRun",
    "MODE_CODES",
    "MODE_KEYS",
]
