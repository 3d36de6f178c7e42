"""Golden Fig. 8 records: every policy of the figure, cell by cell.

``tests/golden/fig8_records.json`` holds the plain ``execute_cell``
records of the Fig. 8 grid (20 budgets x risc, rispp, offline-optimal,
morpheus4s and mrts) on one H.264 application.  The golden traces pin
mRTS execution by execution; this snapshot also pins the baselines, whose
selectors (the greedy one with RISPP's profit, the offline DP) share the
fabric state and the ECU with mRTS.  The regenerated text must equal the
committed file byte for byte on the default pair (the packed engine and
the packed selector) and on every oracle pair: the stepped Fig. 7 loop
and the naive Fig. 6 rescan selector, alone and together.
``execute_cell`` reads both only from ``REPRO_SIM`` and
``REPRO_SELECTOR``, so each test sets both explicitly.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python -m repro.verification.golden
"""

import json

import pytest

from repro.config_env import ENGINE_MODE_ENV, SELECTOR_MODE_ENV
from repro.core.selector import SELECTOR_MODES
from repro.sim.simulator import ENGINE_MODES
from repro.verification.golden import (
    FIG8_RECORDS_PATH,
    FIG8_RECORDS_SPEC,
    fig8_records_text,
)

#: Every (engine, selector) pair but the default one.
ORACLE_PAIRS = [
    (engine, selector)
    for engine in ENGINE_MODES
    for selector in SELECTOR_MODES
    if (engine, selector) != ("packed", "packed")
]


def _assert_records_byte_equal(monkeypatch, engine, selector):
    monkeypatch.setenv(ENGINE_MODE_ENV, engine)
    monkeypatch.setenv(SELECTOR_MODE_ENV, selector)
    committed = FIG8_RECORDS_PATH.read_text(encoding="utf-8")
    fresh = fig8_records_text()
    if fresh != committed:
        old = committed.splitlines()
        new = fresh.splitlines()
        moved = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        raise AssertionError(
            f"{len(moved)} Fig. 8 record line(s) changed, first: "
            f"{new[moved[0]] if moved else '(line count differs)'} "
            f"(engine={engine}, selector={selector})"
        )


def test_fig8_records_byte_equal(monkeypatch):
    _assert_records_byte_equal(monkeypatch, "packed", "packed")


@pytest.mark.parametrize(
    "engine, selector", ORACLE_PAIRS,
    ids=[f"{engine}-{selector}" for engine, selector in ORACLE_PAIRS],
)
def test_fig8_records_byte_equal_on_oracles(monkeypatch, engine, selector):
    _assert_records_byte_equal(monkeypatch, engine, selector)


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
