"""The optimal ISE selection algorithm (for quality evaluation only).

The paper uses an optimal algorithm -- evaluate all ISE combinations, prune
the ones violating the resource constraints, keep the best total profit --
purely as a yardstick for the heuristic (Fig. 9), because its O(M^N) search
space (>78 million combinations for six kernels) is infeasible at run time.

Since one ISE choice per kernel with a two-dimensional area budget is a
(small) multi-dimensional knapsack, we implement the exact search as dynamic
programming over the ``(PRCs used, CG fabrics used)`` state space, which is
equivalent to full enumeration with resource pruning but polynomial in the
budget.  The sequential FG bitstream port is part of the objective: because
all partial bitstreams share the standard per-PRC size, a candidate's
reconfiguration schedule depends only on how many FG units earlier-committed
ISEs queued -- which is the DP's ``fg_used`` coordinate, so profits are
evaluated per backlog level and the DP stays exact for the joint
(area + port) model.  Data paths already configured on the fabric can
optionally be accounted as free and immediately available
(``respect_existing``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.packed import pack_library
from repro.core.profit import profit_kernel
from repro.core.selector import ISESelector, SelectionResult, packed_recT
from repro.fabric.reconfig import ReconfigurationController
from repro.ise.ise import ISE
from repro.ise.library import ISELibrary
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import ReproError, check_non_negative

#: A footprint's member: an ISE (or ``None``) and its profit per backlog.
Member = Tuple[Optional[ISE], List[float]]
_NO_PROFIT = float("-inf")


class OptimalSelector:
    """Exact joint profit maximisation under the (PRC, CG) budget.

    ``candidate_filter`` optionally restricts the per-kernel candidate sets
    (e.g. the Morpheus/4S-like baseline only admits single-granularity ISEs).
    """

    def __init__(
        self,
        library: ISELibrary,
        respect_existing: bool = True,
        candidate_filter=None,
        consider_greedy_plan: bool = True,
    ):
        """``consider_greedy_plan``: a selection plan includes its commit
        order.  The DP explores all ISE combinations under kernel-sorted
        commit order; the greedy heuristic produces a plan with
        profit-descending commit order.  A true optimum ranges over both, so
        by default the selector also evaluates the greedy plan and returns
        whichever predicts more profit."""
        self.library = library
        self.respect_existing = respect_existing
        self.candidate_filter = candidate_filter
        self.consider_greedy_plan = consider_greedy_plan

    def select(
        self,
        triggers: Sequence[TriggerInstruction],
        controller: ReconfigurationController,
        now: int,
    ) -> SelectionResult:
        """Optimal counterpart of :meth:`repro.core.selector.ISESelector.select`.

        Runs over the library's packing (:mod:`repro.core.packed`): the
        fabric state is read into id arrays once, candidates are packed
        rows, and each profit is the unchecked Eq. 2-4 kernel
        (:func:`~repro.core.profit.profit_kernel`, bit-identical to
        :func:`~repro.core.profit.ise_profit`'s total) after each trigger
        has been validated once.  The result is labelled ``"optimal"``,
        also when the greedy plan wins.
        """
        result = SelectionResult(mode="optimal")
        triggers_by_kernel: Dict[str, TriggerInstruction] = {}
        for trig in triggers:
            if trig.kernel in triggers_by_kernel:
                raise ReproError(f"duplicate trigger for kernel {trig.kernel!r}")
            check_non_negative("e", trig.executions)
            check_non_negative("tf", trig.time_to_first)
            check_non_negative("tb", trig.time_between)
            triggers_by_kernel[trig.kernel] = trig

        packed = pack_library(self.library)
        n_impls = packed.n_impls
        coverage = [0] * n_impls
        ready = [0.0] * n_impls
        exempt = [0] * n_impls
        budget_fg, budget_cg = controller.resources.selection_view(
            now, coverage, ready, exempt
        )
        if not self.respect_existing:
            coverage = [0] * n_impls
            exempt = [0] * n_impls

        kernels = sorted(triggers_by_kernel)
        # Profits per FG-port backlog (see the module docstring).  A
        # candidate with no FG data path left to load ignores the port: one
        # profit serves every backlog, each still a logical evaluation.
        # Candidates of one (fg, cg) footprint reach the same states, so a
        # kernel's options are its footprints in first-appearance order
        # ("no ISE" first): (fg, cg, best profit per backlog, members).
        options: List[List[Tuple[int, int, List[float], List[Member]]]] = []
        fg_unit_cycles = self._fg_unit_cycles()
        now_f = float(now)
        for kernel in kernels:
            trig = triggers_by_kernel[kernel]
            no_ise = [0.0] * (budget_fg + 1)
            footprints = {(0, 0): (list(no_ise), [(None, no_ise)])}
            for cid in packed.kernel_cids[kernel]:
                ise = packed.cand_ise[cid]
                if self.candidate_filter is not None and not self.candidate_filter(ise):
                    continue
                result.candidates_considered += 1
                rows = packed.cand_rows[cid]
                # reservation_charge with nothing reserved yet.
                fg = cg = 0
                needs_port = False
                for impl, quantity, is_fg, _, area in rows:
                    units = quantity - exempt[impl]
                    if units > 0:
                        if is_fg:
                            fg += area * units
                        else:
                            cg += area * units
                    if is_fg and coverage[impl] < quantity:
                        needs_port = True
                feasible = budget_fg - fg + 1  # backlogs that leave room
                result.profit_evaluations += max(feasible, 0)
                if feasible <= 0 or cg > budget_cg:
                    continue  # no state can take it
                backlogs = range(feasible) if needs_port else (0,)
                profits = [
                    profit_kernel(
                        packed.cand_latencies[cid],
                        packed_recT(
                            rows, coverage, ready, now,
                            now_f + backlog * fg_unit_cycles,
                        )[0],
                        trig.executions,
                        trig.time_to_first,
                        trig.time_between,
                    )
                    for backlog in backlogs
                ]
                if not needs_port:
                    profits *= feasible
                entry = footprints.setdefault((fg, cg), (list(profits), []))
                entry[1].append((ise, profits))
                best_profits = entry[0]
                for backlog, profit in enumerate(profits):
                    if profit > best_profits[backlog]:
                        best_profits[backlog] = profit
            options.append(
                [(fg, cg, top, members)
                 for (fg, cg), (top, members) in footprints.items()]
            )

        # DP over (fg_used, cg_used), one int per state; per kernel, each
        # state's (previous state, its total, the footprint's members).
        stride = budget_cg + 1
        best: Dict[int, float] = {0: 0.0}
        backtrace: List[Dict[int, Tuple[int, float, List[Member]]]] = []
        for kernel_options in options:
            new_best: Dict[int, float] = {}
            back: Dict[int, Tuple[int, float, List[Member]]] = {}
            for state, profit_so_far in best.items():
                fg_used, cg_used = divmod(state, stride)
                fg_room, cg_room = budget_fg - fg_used, budget_cg - cg_used
                for fg, cg, best_profits, members in kernel_options:
                    if fg > fg_room or cg > cg_room:
                        continue
                    total = profit_so_far + best_profits[fg_used]
                    key = state + fg * stride + cg
                    if total > new_best.get(key, _NO_PROFIT):
                        new_best[key] = total
                        back[key] = (state, profit_so_far, members)
            best = new_best
            backtrace.append(back)
            if not best:
                raise ReproError("optimal selection found no feasible state")

        # Backtrack from the best final state.  The DP's strict ``>`` keeps
        # the first of equal totals, so each step takes the footprint's
        # first member whose profit reaches the state's total (a smaller
        # profit can round to the same sum).
        key = max(best, key=best.__getitem__)
        total = best[key]
        chosen: List[Tuple[Optional[ISE], float]] = []
        for back in reversed(backtrace):
            state, profit_so_far, members = back[key]
            backlog = state // stride
            for ise, profits in members:
                if profit_so_far + profits[backlog] == total:
                    break
            chosen.append((ise, profits[backlog]))
            key, total = state, profit_so_far
        for kernel, (ise, profit) in zip(kernels, reversed(chosen)):
            result.profits[kernel] = profit
            # The selection is emitted in DP (kernel) order: the controller
            # commits -- and thus queues the FG port -- in exactly the order
            # the DP's backlog model assumed.
            result.selected[kernel] = ise
        result.rounds = 1

        if self.consider_greedy_plan and self.candidate_filter is None:
            greedy = ISESelector(self.library).select(triggers, controller, now)
            result.profit_evaluations += greedy.profit_evaluations
            if greedy.total_profit > result.total_profit:
                greedy.profit_evaluations = result.profit_evaluations
                greedy.candidates_considered = result.candidates_considered
                greedy.mode = result.mode
                return greedy
        return result

    @staticmethod
    def _fg_unit_cycles() -> int:
        """Port time of one FG area unit (all partial bitstreams share the
        standard per-PRC size)."""
        from repro.util.units import kb_to_reconfig_cycles

        return kb_to_reconfig_cycles(79.2)

    def search_space_size(self, triggers: Sequence[TriggerInstruction]) -> int:
        """Number of combinations plain enumeration would visit."""
        return self.library.search_space_size(t.kernel for t in triggers)


__all__ = ["OptimalSelector"]
