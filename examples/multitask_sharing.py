"""Two applications, two run-time systems, one reconfigurable fabric.

Co-schedules an H.264 encoder and a JPEG encoder at functional-block
granularity on one processor: both policies select against the same pool of
PRCs and CG context slots, the same sequential bitstream port, and each
other's pinned configurations.  Prints per-task interference relative to
running alone.

Usage::

    python examples/multitask_sharing.py [cg] [prc]
"""

import sys

from repro import MRTS, ResourceBudget, Simulator
from repro.sim import Task
from repro.workloads import jpeg_application, jpeg_library
from repro.workloads.h264 import h264_application, h264_library


def main() -> None:
    cg = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    prc = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)

    h264 = h264_application(frames=6, seed=7)
    jpeg = jpeg_application(images=6, seed=8)
    lib_h = h264_library(budget)
    lib_j = jpeg_library(budget)

    alone = {
        "h264": Simulator(h264, lib_h, budget, MRTS()).run().stats.total_cycles,
        "jpeg": Simulator(jpeg, lib_j, budget, MRTS()).run().stats.total_cycles,
    }

    result = Simulator.co_run(
        [Task("h264", h264, lib_h, MRTS()), Task("jpeg", jpeg, lib_j, MRTS())],
        budget,
    )

    print(f"fabric: {prc} PRCs, {cg} CG fabrics "
          f"({budget.n_cg_slots} context slots)\n")
    print(f"{'task':>6s} {'alone':>14s} {'co-run busy':>14s} "
          f"{'interference':>13s} {'accelerated':>12s}")
    for name in ("h264", "jpeg"):
        task = result.task(name)
        busy = task.stats.total_cycles
        print(
            f"{name:>6s} {alone[name]:>14,} {busy:>14,} "
            f"{busy / alone[name]:>12.2f}x "
            f"{100 * task.stats.accelerated_fraction():>11.1f}%"
        )
    print(
        f"\nwall clock: {result.total_cycles:,} cycles "
        f"(sum of alone runs: {sum(alone.values()):,}); the difference is "
        "fabric interference -- try a larger budget to watch it vanish."
    )


if __name__ == "__main__":
    main()
