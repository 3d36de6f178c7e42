"""KPI analytics over stored sweeps: figure aggregates and fleet stats.

Everything here consumes a :class:`~repro.results.store.ResultReader`
through its streamed fold/group-fold API, so aggregate memory stays
O(groups) regardless of sweep size.  Two families of consumers:

* **figure rebuilders** (:func:`fig8_from_store` /9/10) reconstruct the
  exact ``Fig8Result``/``Fig9Result``/``Fig10Result`` dataclasses the
  in-memory experiment runners produce, from a stored sweep that covers
  the figure's (budget x policy) grid — the identity gates compare their
  rendered output byte-for-byte against the in-memory path;
* **summaries** (:func:`speedup_summary`, :func:`fleet_summary`)
  aggregate arbitrary stored sweeps: per-policy speedup distributions
  versus the RISC reference, and the engine/cache counters recorded at
  commit time.

Order independence: executor backends may stream rows in any order, so
every accumulator here holds integers keyed by group, and floats are
only derived after grouping, iterating groups in sorted key order.
"""

from typing import Dict, List, Optional, Tuple

from repro.results.store import ResultReader, ResultWriter
from repro.util.validation import ReproError

#: The record fields the summary KPIs project out of each shard.
SUMMARY_FIELDS = ("budget_label", "policy", "seed", "workload", "total_cycles")

#: The reference policy speedups are measured against.
REFERENCE_POLICY = "risc"


def _geometric_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _group_cycles(
    reader: ResultReader,
) -> Dict[Tuple[str, str, int], Dict[str, int]]:
    """(workload, budget_label, seed) -> {policy: total_cycles} (all ints)."""

    def fold_row(acc: Dict[str, int], row) -> Dict[str, int]:
        _, _, record = row
        acc[record["policy"]] = record["total_cycles"]
        return acc

    return reader.group_fold(
        key=lambda row: (
            row[2]["workload"],
            row[2]["budget_label"],
            row[2]["seed"],
        ),
        fn=fold_row,
        init=dict,
        fields=SUMMARY_FIELDS,
    )


def speedup_summary(
    reader: ResultReader, reference: str = REFERENCE_POLICY
) -> Dict[str, object]:
    """Per-policy speedup distribution versus ``reference``.

    Groups rows by (workload, budget label, seed), pairs each policy's
    cycle count with the reference's in the same group, and aggregates
    the resulting speedups per (workload, policy): count, min, max,
    arithmetic mean and geometric mean.  Groups without a reference row
    are counted but contribute no speedups.
    """
    groups = _group_cycles(reader)
    series: Dict[Tuple[str, str], List[float]] = {}
    unreferenced = 0
    for group_key in sorted(groups):
        cycles = groups[group_key]
        base = cycles.get(reference)
        if base is None:
            unreferenced += 1
            continue
        workload = group_key[0]
        for policy in sorted(cycles):
            if policy == reference:
                continue
            series.setdefault((workload, policy), []).append(
                base / cycles[policy]
            )
    policies: Dict[str, Dict[str, object]] = {}
    for workload, policy in sorted(series):
        values = series[(workload, policy)]
        policies.setdefault(workload, {})[policy] = {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "geomean": _geometric_mean(values),
        }
    return {
        "reference": reference,
        "groups": len(groups),
        "groups_without_reference": unreferenced,
        "rows": reader.rows,
        "speedups": policies,
    }


def fleet_summary(reader: ResultReader) -> Dict[str, object]:
    """Store shape + the engine/cache counters recorded at commit time.

    The counter block is the ``EngineStats.engine_payload()`` the sweep
    stored when the writer committed: cache hits, builds saved, frames
    sent, worker restarts, remote cache hits, jobs completed.  Derived
    rates (cache hit rate, builds-saved ratio) are computed here so the
    CLI has one canonical definition.
    """

    def fold_row(acc: Dict[str, object], row) -> Dict[str, object]:
        _, _, record = row
        acc["rows"] += 1
        acc["policies"].add(record["policy"])
        acc["workloads"].add(record["workload"])
        acc["budgets"].add(record["budget_label"])
        acc["seeds"].add(record["seed"])
        return acc

    shape = reader.fold(
        fold_row,
        {"rows": 0, "policies": set(), "workloads": set(),
         "budgets": set(), "seeds": set()},
        fields=SUMMARY_FIELDS,
    )
    stats = dict(reader.engine_stats)
    cells = stats.get("cells", 0)
    hits = stats.get("cache_hits", 0)
    manifest = reader.manifest
    return {
        "sweep": manifest["sweep"],
        "rows": shape["rows"],
        "shards": len(manifest["shards"]),
        "stored_bytes": sum(entry["bytes"] for entry in manifest["shards"]),
        "policies": sorted(shape["policies"]),
        "workloads": sorted(shape["workloads"]),
        "budgets": sorted(shape["budgets"]),
        "seeds": sorted(shape["seeds"]),
        "engine_stats": stats,
        "cache_hit_rate": (hits / cells) if cells else 0.0,
        "builds_saved": stats.get("builds_saved", 0),
    }


# ------------------------------------------------- figure reconstruction


def _budget_cycles(
    reader: ResultReader,
) -> Dict[Tuple[int, int], Dict[str, int]]:
    """(cg, prc) -> {policy: total_cycles} from a stored figure sweep."""

    def fold_row(acc: Dict[str, int], row) -> Dict[str, int]:
        _, cell, record = row
        acc[record["policy"]] = record["total_cycles"]
        return acc

    return reader.group_fold(
        key=lambda row: tuple(row[1]["budget"]),
        fn=fold_row,
        init=dict,
        fields=("policy", "total_cycles"),
    )


def _grid(groups: Dict[Tuple[int, int], Dict[str, int]], needed: Tuple[str, ...]):
    """Sorted (cg, prc) grid — CG-major, exactly ``budget_grid`` order —
    with every ``needed`` policy present in every group."""
    from repro.fabric.resources import ResourceBudget

    budgets = []
    for cg, prc in sorted(groups):
        missing = [name for name in needed if name not in groups[(cg, prc)]]
        if missing:
            raise ReproError(
                f"stored sweep lacks policies {missing} at budget ({cg},{prc})"
            )
        budgets.append(ResourceBudget(n_prcs=prc, n_cg_fabrics=cg))
    if not budgets:
        raise ReproError("stored sweep holds no rows to rebuild a figure from")
    return budgets


def fig8_from_store(reader: ResultReader):
    """Rebuild the exact ``Fig8Result`` from a stored fig8-shaped sweep."""
    from repro.experiments.fig8_comparison import APPROACHES, Fig8Result

    needed = (REFERENCE_POLICY,) + tuple(APPROACHES)
    groups = _budget_cycles(reader)
    budgets = _grid(groups, needed)
    key = lambda b: (b.n_cg_fabrics, b.n_prcs)  # noqa: E731
    return Fig8Result(
        budgets=budgets,
        cycles={
            name: [groups[key(b)][name] for b in budgets] for name in APPROACHES
        },
        risc_cycles=[groups[key(b)][REFERENCE_POLICY] for b in budgets],
    )


def fig9_from_store(reader: ResultReader):
    """Rebuild the exact ``Fig9Result`` from a stored fig9-shaped sweep."""
    from repro.experiments.fig9_optimality import Fig9Result

    groups = _budget_cycles(reader)
    budgets = _grid(groups, ("mrts", "online-optimal"))
    key = lambda b: (b.n_cg_fabrics, b.n_prcs)  # noqa: E731
    return Fig9Result(
        budgets=budgets,
        heuristic_cycles=[groups[key(b)]["mrts"] for b in budgets],
        optimal_cycles=[groups[key(b)]["online-optimal"] for b in budgets],
    )


def fig10_from_store(reader: ResultReader):
    """Rebuild the exact ``Fig10Result`` from a stored fig10-shaped sweep."""
    from repro.experiments.fig10_speedup import Fig10Result

    groups = _budget_cycles(reader)
    budgets = _grid(groups, (REFERENCE_POLICY, "mrts"))
    key = lambda b: (b.n_cg_fabrics, b.n_prcs)  # noqa: E731
    return Fig10Result(
        budgets=budgets,
        speedups=[
            groups[key(b)][REFERENCE_POLICY] / groups[key(b)]["mrts"]
            for b in budgets
        ],
    )


# ------------------------------------------------ stored figure runners


def _run_figure_stored(
    policy_names: List[str],
    rebuild,
    store: str,
    frames: int,
    seed: int,
    max_cg: int,
    max_prc: int,
    sweep: Optional[str],
    shard_rows: int,
    engine,
    engine_kwargs: Dict[str, object],
):
    """Run a figure grid streamed through a result store, rebuild from disk.

    The cells are the ones the in-memory figure runs
    (:func:`repro.experiments.common.grid_cycles`), so the reconstructed
    figure matches it exactly.
    """
    from repro.experiments.common import budget_grid, h264_cell
    from repro.experiments.engine import resolve_engine
    from repro.results.store import DEFAULT_SHARD_ROWS

    cells = [
        h264_cell((budget.n_cg_fabrics, budget.n_prcs), seed, name, frames)
        for budget in budget_grid(max_cg, max_prc)
        for name in policy_names
    ]
    writer = ResultWriter(
        store,
        sweep=sweep,
        shard_rows=shard_rows or DEFAULT_SHARD_ROWS,
        meta={"figure": rebuild.__name__, "frames": frames, "seed": seed},
    )
    with resolve_engine(engine, **engine_kwargs) as eng:
        eng.run_streamed(cells, writer.sink)
        path = writer.close(engine_stats=eng.stats.engine_payload())
    return rebuild(ResultReader(path)), path


def run_fig8_stored(
    store: str,
    frames: int = 16,
    seed: int = 7,
    max_cg: int = 4,
    max_prc: int = 3,
    sweep: Optional[str] = None,
    shard_rows: int = 0,
    engine=None,
    **engine_kwargs,
):
    """Fig. 8 streamed through a result store; returns (Fig8Result, path)."""
    from repro.experiments.fig8_comparison import APPROACHES

    return _run_figure_stored(
        [REFERENCE_POLICY] + list(APPROACHES), fig8_from_store, store,
        frames, seed, max_cg, max_prc, sweep, shard_rows, engine,
        engine_kwargs,
    )


def run_fig9_stored(
    store: str,
    frames: int = 16,
    seed: int = 7,
    max_cg: int = 3,
    max_prc: int = 6,
    sweep: Optional[str] = None,
    shard_rows: int = 0,
    engine=None,
    **engine_kwargs,
):
    """Fig. 9 streamed through a result store; returns (Fig9Result, path)."""
    return _run_figure_stored(
        ["mrts", "online-optimal"], fig9_from_store, store,
        frames, seed, max_cg, max_prc, sweep, shard_rows, engine,
        engine_kwargs,
    )


def run_fig10_stored(
    store: str,
    frames: int = 16,
    seed: int = 7,
    max_cg: int = 3,
    max_prc: int = 3,
    sweep: Optional[str] = None,
    shard_rows: int = 0,
    engine=None,
    **engine_kwargs,
):
    """Fig. 10 streamed through a result store; returns (Fig10Result, path)."""
    return _run_figure_stored(
        [REFERENCE_POLICY, "mrts"], fig10_from_store, store,
        frames, seed, max_cg, max_prc, sweep, shard_rows, engine,
        engine_kwargs,
    )


__all__ = [
    "REFERENCE_POLICY",
    "SUMMARY_FIELDS",
    "fig10_from_store",
    "fig8_from_store",
    "fig9_from_store",
    "fleet_summary",
    "run_fig10_stored",
    "run_fig8_stored",
    "run_fig9_stored",
    "speedup_summary",
]
