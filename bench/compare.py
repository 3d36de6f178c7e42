"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage::

    python bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a report written by
``bench/run.py --out FILE``, or a directory of such reports (one per run).
Each workload x end-to-end metric gets one row: both medians, the change,
the bound, the run-to-run spread and a verdict.  A metric whose spread is
wider than its bound is ``unresolved`` rather than ``unchanged``, unless
every run of B beats every run of A.  ``error_rate`` (failed over
attempted operations) may not increase at all.  Exit status 1 when any
row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import load_benchmark, spread, worse_by


def load_reports(path: Path) -> List[Dict[str, object]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, Optional[float]]:
    """``(verdict, change, spread)``; ``change`` is signed so that a
    positive value is worse, ``spread`` is ``None`` with one run a side."""
    change = worse_by(statistics.median(before), statistics.median(after), better)
    spreads = [spread(values) for values in (before, after) if len(values) >= 2]
    run_spread = max(spreads) if spreads else None
    if better == "lower":
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if run_spread is not None and run_spread > bound:
        return ("improved" if all_better else "unresolved"), change, run_spread
    if change > bound:
        return "regressed", change, run_spread
    if -change > bound:
        return "improved", change, run_spread
    return "unchanged", change, run_spread


def error_verdict(before: Sequence[Dict], after: Sequence[Dict]) -> Tuple[str, float, float]:
    def rate(entries):
        attempted = sum(e["attempted"] for e in entries)
        return sum(e["failed"] for e in entries) / attempted if attempted else 1.0

    a, b = rate(before), rate(after)
    return ("regressed" if b > a else "unchanged"), a, b


def compare(before: List[Dict], after: List[Dict], benchmark: Dict) -> List[Dict]:
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        a_entries = [r["workloads"][workload] for r in before if workload in r["workloads"]]
        b_entries = [r["workloads"][workload] for r in after if workload in r["workloads"]]
        if not a_entries or not b_entries:
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            a = [e["metrics"][name] for e in a_entries]
            b = [e["metrics"][name] for e in b_entries]
            result, change, run_spread = verdict(a, b, spec["better"], spec["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "before": statistics.median(a), "after": statistics.median(b),
                "change": change, "bound": spec["bound"], "spread": run_spread,
                "runs": (len(a), len(b)), "verdict": result,
            })
        result, a_rate, b_rate = error_verdict(a_entries, b_entries)
        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "ratio",
            "before": a_rate, "after": b_rate, "change": b_rate - a_rate,
            "bound": 0.0, "spread": None, "runs": (len(a_entries), len(b_entries)),
            "verdict": result,
        })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="report file or directory (parent)")
    parser.add_argument("after", type=Path, help="report file or directory (change)")
    args = parser.parse_args(argv)
    rows = compare(load_reports(args.before), load_reports(args.after), load_benchmark())
    print(f"{'workload':<14} {'metric':<12} {'unit':<5} {'before':>12} {'after':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7} {'runs':>6}  verdict")
    for row in rows:
        spread_text = "n/a" if row["spread"] is None else f"{100 * row['spread']:.1f}%"
        print(f"{row['workload']:<14} {row['metric']:<12} {row['unit']:<5} "
              f"{row['before']:>12.4f} {row['after']:>12.4f} "
              f"{100 * row['change']:>8.1f}% {100 * row['bound']:>5.0f}% "
              f"{spread_text:>7} {'%d/%d' % row['runs']:>6}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
