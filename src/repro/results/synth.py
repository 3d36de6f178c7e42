"""Deterministic synthetic sweep rows for the store's memory tests.

The store's perf claim is about *memory shape*, not simulation content,
so the tests feed it synthetic records that mimic ``execute_cell``
output (same key set, same type mix: packed ints, floats, interned
strings, nested JSON) without paying for simulations.  Every row is
derived from ``random.Random(f"{seed}:...")`` keyed by its index alone,
so the streaming leg can regenerate any row on demand and never holds
the sweep in memory — which is exactly the property being measured.

Rows come in groups of ``len(POLICIES)``: one synthetic budget/seed
combination evaluated under every policy, with the RISC reference
slowest, so the KPI layer has real speedup structure to aggregate.
"""

import random
from typing import Dict, Iterator, Tuple

#: Policy names cycled through the synthetic sweep (RISC reference first).
POLICIES = ("risc", "mrts", "rispp", "morpheus4s", "offline-optimal")

#: Distinct synthetic (CG, PRC) budgets (20 labels, like the fig8 grid).
BUDGETS = tuple((cg, prc) for cg in range(4) for prc in range(5))

_MODES = ("risc", "monocg", "ise")


def synthetic_row(
    index: int, seed: int = 0
) -> Tuple[int, Dict[str, object], Dict[str, object]]:
    """Row ``index`` of the synthetic sweep: ``(index, cell, record)``.

    Pure function of ``(index, seed)`` — regenerating row ``i`` twice
    yields identical dicts, which the round-trip identity check relies on.
    """
    group, slot = divmod(index, len(POLICIES))
    policy = POLICIES[slot]
    budget = BUDGETS[group % len(BUDGETS)]
    sweep_seed = group // len(BUDGETS)
    base_rng = random.Random(f"{seed}:group:{group}")
    base_cycles = base_rng.randrange(10**6, 10**7)
    rng = random.Random(f"{seed}:row:{index}")
    # The reference runs at base speed; accelerated policies divide it.
    divisor = 1.0 if policy == "risc" else 1.0 + slot + rng.random()
    total = max(1, int(base_cycles / divisor))
    kernel = int(total * 0.8)
    gap = total - kernel
    overhead = rng.randrange(0, max(1, total // 50))
    executions = {mode: rng.randrange(0, 500) for mode in _MODES}
    cell = {
        "budget": list(budget),
        "seed": sweep_seed,
        "policy": policy,
        "policy_params": [],
        "workload": "synthetic",
        "workload_params": [["index", index]],
    }
    record = {
        "accelerated_fraction": 0.0 if policy == "risc" else rng.random(),
        "budget_label": f"{budget[0]}{budget[1]}",
        "executions_by_mode": {mode: executions[mode] for mode in _MODES},
        "gap_cycles": gap,
        "kernel_cycles": kernel,
        "overhead_cycles_charged": overhead,
        "overhead_cycles_full": overhead * 2,
        "policy": policy,
        "reconfigurations": rng.randrange(0, 64),
        "seed": sweep_seed,
        "selections": rng.randrange(0, 128),
        "total_cycles": total,
        "workload": "synthetic",
    }
    return index, cell, record


def synthetic_rows(
    n: int, seed: int = 0
) -> Iterator[Tuple[int, Dict[str, object], Dict[str, object]]]:
    """Yield rows ``0..n-1`` one at a time (never materialises the sweep)."""
    for index in range(n):
        yield synthetic_row(index, seed)


__all__ = ["BUDGETS", "POLICIES", "synthetic_row", "synthetic_rows"]
