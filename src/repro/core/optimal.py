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
        # Pre-compute the profit of every candidate of every kernel for every
        # possible FG-port backlog.  The FG bitstream port is sequential and
        # shared: a candidate's recT depends on how many FG data-path units
        # earlier-committed ISEs queue before it.  All partial bitstreams
        # have the same size, so the backlog is fully described by the
        # number of FG units already claimed -- which is exactly the DP's
        # ``fg_used`` coordinate.  This keeps the DP exact for the joint
        # (area + port) model.
        #
        # options[k][j] = (profits_by_backlog, fg, cg, ise)
        options: List[List[Tuple[List[float], int, int, Optional[ISE]]]] = []
        fg_unit_cycles = self._fg_unit_cycles()
        now_f = float(now)
        for kernel in kernels:
            trig = triggers_by_kernel[kernel]
            kernel_options: List[Tuple[List[float], int, int, Optional[ISE]]] = [
                ([0.0] * (budget_fg + 1), 0, 0, None)
            ]
            for cid in packed.kernel_cids[kernel]:
                ise = packed.cand_ise[cid]
                if self.candidate_filter is not None and not self.candidate_filter(ise):
                    continue
                rows = packed.cand_rows[cid]
                latencies = packed.cand_latencies[cid]
                # reservation_charge with nothing reserved yet.
                fg = cg = 0
                for impl, quantity, is_fg, _, area in rows:
                    units = quantity - exempt[impl]
                    if units > 0:
                        if is_fg:
                            fg += area * units
                        else:
                            cg += area * units
                profits_by_backlog: List[float] = []
                for backlog in range(budget_fg + 1):
                    if backlog + fg > budget_fg:
                        profits_by_backlog.append(float("-inf"))
                        continue
                    result.profit_evaluations += 1
                    port = now_f + backlog * fg_unit_cycles
                    schedule, _ = packed_recT(
                        rows, coverage, ready, now, port if port > now_f else now_f
                    )
                    profits_by_backlog.append(
                        profit_kernel(
                            latencies,
                            schedule,
                            trig.executions,
                            trig.time_to_first,
                            trig.time_between,
                        )
                    )
                kernel_options.append((profits_by_backlog, fg, cg, ise))
            result.candidates_considered += len(kernel_options) - 1
            options.append(kernel_options)

        # DP over (fg_used, cg_used): best profit and choice backtrace.
        Key = Tuple[int, int]
        best: Dict[Key, float] = {(0, 0): 0.0}
        trace: Dict[Tuple[int, Key], Tuple[Key, Optional[ISE]]] = {}
        for k, kernel_options in enumerate(options):
            new_best: Dict[Key, float] = {}
            for (fg_used, cg_used), profit_so_far in best.items():
                for profits_by_backlog, fg, cg, ise in kernel_options:
                    nfg, ncg = fg_used + fg, cg_used + cg
                    if nfg > budget_fg or ncg > budget_cg:
                        continue
                    profit = profits_by_backlog[fg_used]
                    if profit == float("-inf"):
                        continue
                    total = profit_so_far + profit
                    key = (nfg, ncg)
                    if total > new_best.get(key, float("-inf")):
                        new_best[key] = total
                        trace[(k, key)] = ((fg_used, cg_used), ise)
            best = new_best
            if not best:
                raise ReproError("optimal selection found no feasible state")

        # Backtrack from the best final state.
        final_key = max(best, key=lambda key: best[key])
        key = final_key
        chosen: Dict[str, Optional[ISE]] = {}
        for k in range(len(kernels) - 1, -1, -1):
            prev_key, ise = trace[(k, key)]
            chosen[kernels[k]] = ise
            key = prev_key

        # Reconstruct per-kernel profits along the chosen path (the backlog
        # each kernel saw is the path's fg_used at that step).
        key = (0, 0)
        for k, kernel in enumerate(kernels):
            ise = chosen[kernel]
            if ise is None:
                result.profits[kernel] = 0.0
            else:
                for profits_by_backlog, fg, cg, option in options[k]:
                    if option is ise:
                        result.profits[kernel] = profits_by_backlog[key[0]]
                        key = (key[0] + fg, key[1] + cg)
                        break
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
