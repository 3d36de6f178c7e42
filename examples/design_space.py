"""Design-space exploration: Pareto fronts and budget sweeps.

Uses the library as an architect would: inspect a kernel's candidate-ISE
trade-off space (execution latency vs. reconfiguration time vs. area),
then sweep fabric budgets across seeds to find the smallest configuration
that meets a speedup target.

Usage::

    python examples/design_space.py [target_speedup]
"""

import sys

from repro import ResourceBudget
from repro.experiments.sweep import run_sweep
from repro.ise.pareto import dominated_fraction, render_front
from repro.workloads.h264 import h264_library


def explore_deblocking_front() -> None:
    budget = ResourceBudget(n_prcs=3, n_cg_fabrics=3)
    library = h264_library(budget)
    candidates = library.candidates("lf.deblock_luma")
    print(
        f"lf.deblock_luma: {len(candidates)} candidate ISEs, "
        f"{100 * dominated_fraction(candidates):.0f}% Pareto-dominated\n"
    )
    print(render_front(candidates, title="Deblocking-filter trade-off space"))


def smallest_budget_for(target: float) -> None:
    print(f"\nsearching the smallest fabric reaching {target:.1f}x "
          f"(seed-averaged over 3 seeds)...")
    budgets = [(cg, prc) for cg in range(4) for prc in range(4)][1:]
    sweep = run_sweep(
        budgets=budgets,
        seeds=[0, 7, 13],
        policies=["mrts"],
        workload_params={"frames": 6},
    )
    feasible = []
    for cg, prc in budgets:
        label = f"{cg}{prc}"
        mean = sweep.mean_speedup(label, "mrts")
        lo, hi = sweep.speedup_spread(label, "mrts")
        marker = " <- meets target" if lo >= target else ""
        print(f"  ({cg} CG, {prc} PRC): {mean:.2f}x  (worst seed {lo:.2f}x){marker}")
        if lo >= target:
            feasible.append((cg + prc, cg, prc, mean))
    if feasible:
        _, cg, prc, mean = min(feasible)
        print(f"\nsmallest fabric meeting {target:.1f}x on every seed: "
              f"{cg} CG fabrics + {prc} PRCs ({mean:.2f}x average)")
    else:
        print(f"\nno swept fabric meets {target:.1f}x on every seed")


if __name__ == "__main__":
    target = float(sys.argv[1]) if len(sys.argv) > 1 else 3.0
    explore_deblocking_front()
    smallest_budget_for(target)
