"""Golden-trace regression machinery.

A *golden trace* is a committed JSON snapshot of one complete simulation --
every execution record plus the aggregate statistics -- for a small,
deterministic reference scenario.  The regression test asserts an **exact**
match, so any refactor of the selector, ECU, MPU or simulator that shifts
even a single execution's cycle or mode is caught before it silently moves
the paper figures.

Three reference scenarios are committed (:data:`GOLDEN_SCENARIOS`):

* ``deblocking`` -- mRTS on the H.264 deblocking workload (the paper's
  Section 2 case study) at (1 CG fabric, 2 PRCs): small enough for a
  committed snapshot, rich enough to exercise the full ECU cascade (risc,
  intermediate and selected executions all occur).
* ``jpeg`` -- mRTS on the JPEG encoder at the same budget: a second
  workload family so the lock does not overfit to H.264 (risc, monocg and
  selected executions all occur).
* ``h264`` -- mRTS on one frame of the whole H.264 encoder at (3 CG
  fabrics, 2 PRCs), with execution counts scaled down to keep the
  snapshot small: its kernels choose among several close-profit
  candidates, so a selector that ranks candidates wrongly moves this
  trace even where the winner of the other two scenarios is clear.

Every scenario replays byte-identically under both simulator engines and
both ISE selectors (:func:`golden_payload` takes ``engine`` and
``selector`` arguments, and ``tests/test_golden_trace.py`` asserts the
stepped and packed engines, each with the naive and the packed selector,
against the same snapshot).

Beside the traces, ``tests/golden/fig8_records.json`` pins the plain
sweep records of every Fig. 8 policy (:data:`FIG8_RECORDS_SPEC`): the
traces lock mRTS execution by execution, the records lock the RISPP,
offline-optimal and Morpheus/4S baselines as well, cell by cell.

Regenerate the snapshots after an *intentional* behaviour change with::

    PYTHONPATH=src python -m repro.verification.golden

``--out DIR`` writes them into ``DIR`` instead of ``tests/golden/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.program import Application
from repro.sim.simulator import Simulator
from repro.workloads.h264 import (
    deblocking_application,
    deblocking_library,
    h264_application,
    h264_library,
)
from repro.workloads.jpeg import jpeg_application, jpeg_library

#: The reference scenarios, each recorded inside its snapshot for
#: self-description.  Keys double as snapshot base names
#: (``<name>_mrts.json``).
GOLDEN_SCENARIOS: Dict[str, Dict[str, object]] = {
    "deblocking": {
        "workload": "deblocking",
        "frames": 2,
        "seed": 0,
        "scale": 0.05,
        "budget": [1, 2],  # (n_cg_fabrics, n_prcs)
        "policy": "mrts",
    },
    "jpeg": {
        "workload": "jpeg",
        "images": 3,
        "blocks_per_image": 60,
        "seed": 0,
        "budget": [1, 2],  # (n_cg_fabrics, n_prcs)
        "policy": "mrts",
    },
    "h264": {
        "workload": "h264",
        "frames": 1,
        "seed": 0,
        "scale": 0.02,
        "budget": [3, 2],  # (n_cg_fabrics, n_prcs)
        "policy": "mrts",
    },
}

#: Execution modes each scenario must keep exercising (a run that only
#: ever executes in one mode would let whole ECU branches drift
#: unpinned).  Deliberately *not* part of the spec: the spec is embedded
#: in the snapshots and describes the scenario, not the test.
REQUIRED_MODES: Dict[str, frozenset] = {
    "deblocking": frozenset({"risc", "intermediate", "selected"}),
    "jpeg": frozenset({"risc", "monocg", "selected"}),
    "h264": frozenset({"risc", "monocg", "selected"}),
}

#: The historical single-scenario spec (the deblocking reference).
GOLDEN_SPEC: Dict[str, object] = GOLDEN_SCENARIOS["deblocking"]

#: Snapshot directory: tests/golden/ at the repository root.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(scenario: str = "deblocking") -> Path:
    """Snapshot location of ``scenario`` (``tests/golden/<name>_mrts.json``)."""
    if scenario not in GOLDEN_SCENARIOS:
        raise KeyError(
            f"unknown golden scenario {scenario!r}; "
            f"valid: {sorted(GOLDEN_SCENARIOS)}"
        )
    return GOLDEN_DIR / f"{scenario}_mrts.json"


#: Default snapshot location (the deblocking reference), kept for
#: single-scenario callers.
GOLDEN_PATH = GOLDEN_DIR / "deblocking_mrts.json"


def _build_scenario(
    scenario: str,
) -> Tuple[Application, ISELibrary, ResourceBudget]:
    """Construct the application/library/budget triple of ``scenario``."""
    spec = GOLDEN_SCENARIOS[scenario]
    cg, prc = spec["budget"]
    budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
    if spec["workload"] == "deblocking":
        application = deblocking_application(
            frames=spec["frames"], seed=spec["seed"], scale=spec["scale"]
        )
        library = deblocking_library(budget)
    elif spec["workload"] == "h264":
        application = h264_application(
            frames=spec["frames"], seed=spec["seed"], scale=spec["scale"]
        )
        library = h264_library(budget)
    else:
        application = jpeg_application(
            images=spec["images"],
            blocks_per_image=spec["blocks_per_image"],
            seed=spec["seed"],
        )
        library = jpeg_library(budget)
    return application, library, budget


def golden_payload(
    scenario: str = "deblocking",
    engine: Optional[str] = None,
    selector: Optional[str] = None,
    collect_trace: bool = True,
) -> Dict[str, object]:
    """Simulate ``scenario`` and return its canonical payload.

    ``engine`` picks the simulator engine (``None`` = honour
    ``$REPRO_SIM``) and ``selector`` mRTS's ISE selector (``None`` =
    honour ``$REPRO_SELECTOR``); the payload depends on neither by the
    byte-identity contract, which the regression suite asserts
    explicitly.  Without ``collect_trace`` the payload has no ``trace``
    and the run takes the packed engine's untraced folds.
    """
    application, library, budget = _build_scenario(scenario)
    result = Simulator(
        application, library, budget,
        MRTS(MRTSConfig(selector_mode=selector)),
        collect_trace=collect_trace, engine=engine,
    ).run()
    payload = {
        "spec": dict(GOLDEN_SCENARIOS[scenario]),
        "stats": result.stats.to_payload(),
    }
    if collect_trace:
        payload["trace"] = result.trace.to_payload()
    return payload


#: The Fig. 8 record snapshot: every budget of the grid (CG fabrics 0..4 x
#: PRCs 0..3) under the five policies the figure compares, on one H.264
#: application.
FIG8_RECORDS_SPEC: Dict[str, object] = {
    "workload": "h264",
    "frames": 2,
    "seed": 7,
    "budgets": [[cg, prc] for cg in range(5) for prc in range(4)],
    "policies": ["risc", "rispp", "offline-optimal", "morpheus4s", "mrts"],
}

#: Location of the Fig. 8 record snapshot.
FIG8_RECORDS_PATH = GOLDEN_DIR / "fig8_records.json"


def fig8_records_text() -> str:
    """The canonical text of the Fig. 8 record snapshot: a JSON object
    holding the spec and one ``[cell payload, execute_cell record]`` pair
    per grid cell, keys sorted, one line per cell (a diff names the cells
    that moved)."""
    # Imported lazily: the engine imports half the package.
    from repro.experiments.engine import SweepCell, execute_cell

    spec = FIG8_RECORDS_SPEC
    cells = [
        SweepCell.make(
            tuple(budget), spec["seed"], policy,
            workload=spec["workload"],
            workload_params={"frames": spec["frames"]},
        )
        for budget in spec["budgets"]
        for policy in spec["policies"]
    ]
    lines = ",\n".join(
        json.dumps([cell.payload(), execute_cell(cell)], sort_keys=True)
        for cell in cells
    )
    return (
        '{"cells": [\n' + lines + '\n], "spec": '
        + json.dumps(spec, sort_keys=True) + "}\n"
    )


def write_fig8_records(path: Path = FIG8_RECORDS_PATH) -> Path:
    """Regenerate the Fig. 8 record snapshot (intentional changes only)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fig8_records_text(), encoding="utf-8")
    return path


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    """Read a committed golden snapshot from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(
    path: Optional[Path] = None, scenario: str = "deblocking"
) -> Path:
    """Regenerate the snapshot of ``scenario`` (intentional changes only)."""
    if path is None:
        path = golden_path(scenario)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden_payload(scenario), handle, sort_keys=True)
        handle.write("\n")
    return path


def write_all_golden(directory: Path = GOLDEN_DIR) -> List[Path]:
    """Regenerate every scenario's snapshot and the Fig. 8 record snapshot
    into ``directory`` (intentional changes only)."""
    paths = [
        write_golden(directory / golden_path(name).name, scenario=name)
        for name in sorted(GOLDEN_SCENARIOS)
    ]
    return paths + [write_fig8_records(directory / FIG8_RECORDS_PATH.name)]


def diff_golden(expected: Dict, actual: Dict) -> List[str]:
    """Human-readable mismatch summary (empty when payloads are equal).

    The exact-match assertion compares whole payloads; this pinpoints
    *where* a regression bit: a stats counter, the execution count, or the
    first diverging execution record.
    """
    if expected == actual:
        return []
    problems: List[str] = []
    if expected.get("spec") != actual.get("spec"):
        problems.append(
            f"spec changed: {expected.get('spec')} -> {actual.get('spec')}"
        )
    exp_stats, act_stats = expected.get("stats", {}), actual.get("stats", {})
    for counter in sorted(set(exp_stats) | set(act_stats)):
        if exp_stats.get(counter) != act_stats.get(counter):
            problems.append(
                f"stats.{counter}: {exp_stats.get(counter)} -> {act_stats.get(counter)}"
            )
    exp_trace = expected.get("trace", {}).get("executions", [])
    act_trace = actual.get("trace", {}).get("executions", [])
    if len(exp_trace) != len(act_trace):
        problems.append(
            f"execution count: {len(exp_trace)} -> {len(act_trace)}"
        )
    for index, (exp_record, act_record) in enumerate(zip(exp_trace, act_trace)):
        if exp_record != act_record:
            problems.append(
                f"first diverging execution #{index}: "
                f"{exp_record} -> {act_record}"
            )
            break
    if expected.get("trace", {}).get("block_windows") != actual.get(
        "trace", {}
    ).get("block_windows"):
        problems.append("block windows differ")
    return problems or ["payloads differ (outside stats/trace)"]


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.verification.golden [--out DIR]``: regenerate
    every snapshot and print the path of each."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verification.golden",
        description="Regenerate the golden traces and the golden Fig. 8 "
                    "records (intentional behaviour changes only).",
    )
    parser.add_argument(
        "--out", type=Path, default=GOLDEN_DIR, metavar="DIR",
        help="directory to write the snapshots into (default: tests/golden)",
    )
    args = parser.parse_args(argv)
    for path in write_all_golden(args.out):
        print(f"wrote {path}")
    return 0


__all__ = [
    "FIG8_RECORDS_PATH",
    "FIG8_RECORDS_SPEC",
    "GOLDEN_DIR",
    "GOLDEN_PATH",
    "GOLDEN_SCENARIOS",
    "GOLDEN_SPEC",
    "REQUIRED_MODES",
    "diff_golden",
    "fig8_records_text",
    "golden_path",
    "golden_payload",
    "load_golden",
    "main",
    "write_all_golden",
    "write_fig8_records",
    "write_golden",
]


if __name__ == "__main__":
    sys.exit(main())
