"""Golden Fig. 8 records: every policy of the figure, cell by cell.

``tests/golden/fig8_records.json`` holds the plain ``execute_cell``
records of the Fig. 8 grid (20 budgets x risc, rispp, offline-optimal,
morpheus4s and mrts) on one H.264 application.  The golden traces pin
mRTS execution by execution; this snapshot also pins the baselines, whose
selectors (the greedy one with RISPP's profit, the offline DP) share the
fabric state and the ECU with mRTS.  The regenerated text must equal the
committed file byte for byte, under whichever ``REPRO_SIM`` engine and
``REPRO_SELECTOR`` selector the run selects.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python scripts/check_determinism.py --update-golden
"""

import json

from repro.verification.golden import (
    FIG8_RECORDS_PATH,
    FIG8_RECORDS_SPEC,
    fig8_records_text,
)


def test_fig8_records_byte_equal():
    committed = FIG8_RECORDS_PATH.read_text(encoding="utf-8")
    fresh = fig8_records_text()
    if fresh != committed:
        old = committed.splitlines()
        new = fresh.splitlines()
        moved = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        raise AssertionError(
            f"{len(moved)} Fig. 8 record line(s) changed, first: "
            f"{new[moved[0]] if moved else '(line count differs)'}"
        )


def test_fig8_records_cover_the_grid():
    """Every (budget, policy) of the spec has exactly one record, and the
    snapshot is not degenerate: each accelerating policy leaves RISC mode
    somewhere on the grid."""
    committed = json.loads(FIG8_RECORDS_PATH.read_text(encoding="utf-8"))
    assert committed["spec"] == FIG8_RECORDS_SPEC
    cells = committed["cells"]
    keys = {(tuple(cell["budget"]), cell["policy"]) for cell, _ in cells}
    assert len(keys) == len(cells) == (
        len(FIG8_RECORDS_SPEC["budgets"]) * len(FIG8_RECORDS_SPEC["policies"])
    )
    for policy in FIG8_RECORDS_SPEC["policies"]:
        if policy == "risc":
            continue
        assert any(
            record["accelerated_fraction"] > 0
            for cell, record in cells
            if cell["policy"] == policy
        ), policy
