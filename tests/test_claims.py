"""The paper's claims, evaluated at the canonical size.

One canonical run (``python -m repro.experiments``'s experiments and
sizes, plus the claims-only experiments of
:mod:`repro.verification.claims`) feeds three checks:

* every claim of :data:`~repro.verification.claims.CLAIMS` holds;
* the report it renders is ``results/full_report.txt`` byte for byte
  (the ``  [N.Ns]`` elapsed times stripped);
* EXPERIMENTS.md prints the claims' paper and measured values for
  Figs. 8-10 and Section 5.4, at the precision it prints them.
"""

import io
import re
from pathlib import Path
from typing import Dict, List

import pytest

from repro.verification.claims import CLAIMS, evaluate, run_canonical

ROOT = Path(__file__).resolve().parent.parent

_ELAPSED = re.compile(r"  \[\d+\.\ds\]")


@pytest.fixture(scope="module")
def canonical():
    """``(rendered report, claim id -> verdict)`` of one canonical run."""
    stream = io.StringIO()
    results = run_canonical(stream)
    verdicts = {verdict.claim.id: verdict for verdict in evaluate(results)}
    return stream.getvalue(), verdicts


def test_paper_claims_hold(canonical):
    _, verdicts = canonical
    assert sorted(verdicts) == sorted(claim.id for claim in CLAIMS)
    failed = [
        f"{v.claim.id} ({v.claim.place}): measured {v.measured!r}, "
        f"needs {v.claim.op} {v.claim.threshold!r}"
        for v in verdicts.values()
        if not v.ok
    ]
    assert not failed, "paper claims failed:\n" + "\n".join(failed)


def test_full_report_byte_equal(canonical):
    report, _ = canonical
    committed = (ROOT / "results" / "full_report.txt").read_text(encoding="utf-8")
    assert _ELAPSED.sub("", report) == _ELAPSED.sub("", committed), (
        "results/full_report.txt differs from `python -m repro.experiments`"
    )


def _rows(section: str) -> Dict[str, List[str]]:
    """First cell -> cells, for each table row under EXPERIMENTS.md's
    ``## <section> —`` heading."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section} —", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in body.splitlines():
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[cells[0]] = cells
    return rows


def test_experiments_md_prints_the_claims(canonical):
    _, verdicts = canonical

    def measured(claim_id):
        return verdicts[claim_id].measured

    def paper(claim_id):
        return verdicts[claim_id].claim.paper

    fig8 = _rows("Fig. 8")
    for label, versus in (
        ("RISPP-like [6]", "rispp"),
        ("offline-optimal", "offline-optimal"),
        ("Morpheus/4S-like [8][7]", "morpheus4s"),
    ):
        paper_avg, paper_max, avg, best = fig8[label][1:5]
        assert paper_avg == f"{paper('fig8.avg-vs-' + versus):g}×", label
        assert paper_max == f"{paper('fig8.max-vs-' + versus):g}×", label
        assert avg == f"{measured('fig8.avg-vs-' + versus):.2f}×", label
        assert best == f"{measured('fig8.max-vs-' + versus):.2f}×", label

    worst = _rows("Fig. 9")["Worst case"]
    assert worst[1].startswith(f"≈{paper('fig9.worst-gap'):g} %")
    assert worst[2].startswith(f"{measured('fig9.worst-gap'):.1f} %")

    fig10 = _rows("Fig. 10")
    fg_only = fig10["FG-only combinations"]
    assert fg_only[1] == (
        f"{paper('fig10.fg-only-low'):g}–{paper('fig10.fg-only-high'):g}×"
    )
    assert fg_only[2] == (
        f"{measured('fig10.fg-only-low'):.2f}–"
        f"{measured('fig10.fg-only-high'):.2f}×"
    )
    multi = fig10["Multi-grained combinations"]
    assert multi[1].startswith(f">{paper('fig10.mg-top'):g}×")
    assert f"–{measured('fig10.mg-top'):.2f}×" in multi[2]

    overhead = _rows("Section 5.4")
    cycles = overhead["Cycles per kernel selection"]
    assert cycles[1].startswith(f"< {paper('overhead.cycles-per-kernel')}")
    assert cycles[2] == f"{measured('overhead.cycles-per-kernel'):.0f}"
    fraction = overhead["Fraction of block execution time"]
    assert fraction[1] == f"≈{100 * paper('overhead.block-fraction'):g} %"
    assert fraction[2] == f"{100 * measured('overhead.block-fraction'):.2f} %"
    hiding = overhead["Hiding"][2]
    assert f"{100 * measured('overhead.hidden-fraction'):.1f} % of selector" in hiding
    assert f"{100 * measured('overhead.charged-share'):.2f} % of total" in hiding
