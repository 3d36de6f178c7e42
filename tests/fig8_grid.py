"""The Fig. 8 reference grid the hot-path pins run on: the H.264 encoder
(seed 7) over the (CG fabrics x PRCs) budget grid, in full and as the
three-budget cut tier-1 pins use."""

from repro.experiments.engine import SweepCell

#: The Fig. 8 budget grid ``(n_cg_fabrics, n_prcs)``: CG 0..4 x PRC 0..3.
FIG8_BUDGETS = tuple((cg, prc) for cg in range(5) for prc in range(4))

#: Representative cut of the grid for the tier-1 pins.
QUICK_BUDGETS = ((1, 1), (2, 2), (3, 2))

#: Every policy of the Fig. 8 comparison.
FIG8_POLICIES = ("risc", "rispp", "offline-optimal", "morpheus4s", "mrts")

#: Seed of the reference workload.
SEED = 7


def fig8_cells(policies, frames, budgets=QUICK_BUDGETS):
    """Sweep cells of the reference workload, budget-major."""
    return [
        SweepCell.make(
            budget, SEED, policy,
            workload="h264", workload_params={"frames": frames},
        )
        for budget in budgets
        for policy in policies
    ]
