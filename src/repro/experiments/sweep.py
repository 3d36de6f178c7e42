"""Generic parameter sweeps over (budget x seed x policy x workload).

The figure modules answer the paper's questions; this utility answers
yours: run a cartesian sweep, collect per-cell metrics, aggregate across
seeds, and dump everything as records for plotting.  Used by the
calibration scripts and the robustness tests (are the headline shapes
stable across seeds?).

Sweeps name a registered workload and registered policies and run as
cells through :class:`repro.experiments.engine.SweepEngine`: pass ``jobs``
to fan cells out over worker processes and ``use_cache``/``cache_dir`` to
reuse cell records across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.engine import (
    POLICIES,
    SweepCell,
    SweepEngine,
    policy_name_of,
    resolve_engine,
)
from repro.util.tables import render_table
from repro.util.validation import ReproError


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep."""

    budget_label: str
    seed: int
    policy: str
    total_cycles: int
    speedup_vs_risc: float
    accelerated_fraction: float
    reconfigurations: int


#: Legal criteria names for :meth:`SweepResult.filtered`.
_POINT_ATTRIBUTES = frozenset(f.name for f in fields(SweepPoint))


@dataclass
class SweepResult:
    points: List[SweepPoint] = field(default_factory=list)

    def filtered(self, **criteria) -> List[SweepPoint]:
        """Points matching all keyword criteria (attribute == value).

        Unknown attribute names raise :class:`ReproError` -- a typo in a
        criteria keyword must not masquerade as an empty result.
        """
        unknown = sorted(set(criteria) - _POINT_ATTRIBUTES)
        if unknown:
            raise ReproError(
                f"unknown sweep point attribute(s) {unknown}; "
                f"valid: {sorted(_POINT_ATTRIBUTES)}"
            )
        out = []
        for point in self.points:
            if all(getattr(point, key) == value for key, value in criteria.items()):
                out.append(point)
        return out

    def mean_speedup(self, budget_label: str, policy: str) -> float:
        """Seed-averaged speedup of one (budget, policy) cell."""
        cells = self.filtered(budget_label=budget_label, policy=policy)
        if not cells:
            raise ReproError(f"no sweep points for ({budget_label}, {policy})")
        return sum(p.speedup_vs_risc for p in cells) / len(cells)

    def speedup_spread(self, budget_label: str, policy: str) -> Tuple[float, float]:
        """(min, max) speedup across seeds for one cell."""
        cells = self.filtered(budget_label=budget_label, policy=policy)
        values = [p.speedup_vs_risc for p in cells]
        return min(values), max(values)

    def records(self) -> Tuple[List[str], List[List[object]]]:
        headers = [
            "budget", "seed", "policy", "cycles", "speedup",
            "accelerated", "reconfigs",
        ]
        rows = [
            [
                p.budget_label, p.seed, p.policy, p.total_cycles,
                p.speedup_vs_risc, p.accelerated_fraction, p.reconfigurations,
            ]
            for p in self.points
        ]
        return headers, rows

    def render(self) -> str:
        headers, rows = self.records()
        return render_table(headers, rows, title="Parameter sweep")


PolicySpec = Union[Dict[str, Optional[Callable]], Sequence[str]]


def _policy_names(policies: PolicySpec) -> List[str]:
    """The registered policy names ``policies`` asks for.

    Accepts a sequence of registered names, or a name->factory dict whose
    factories are exactly the registered ones (or ``None``).  Anything
    else raises :class:`ReproError`: a cell names its policy through the
    registry, so an ad-hoc factory cannot be cached or shipped to workers.
    """
    if isinstance(policies, dict):
        adhoc = sorted(
            name for name, factory in policies.items()
            if factory is not None and policy_name_of(factory) != name
        )
        if adhoc:
            raise ReproError(
                f"policy factories {adhoc} are not the registered ones; "
                "register them with register_policy"
            )
    names = list(policies)
    unknown = sorted(str(name) for name in names if name not in POLICIES)
    if unknown:
        raise ReproError(
            f"unknown policy name(s) {unknown}; "
            f"registered: {sorted(POLICIES)}"
        )
    return names


def run_sweep(
    budgets: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    policies: PolicySpec,
    *,
    workload: str = "h264",
    workload_params: Optional[Dict[str, object]] = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Union[str, Path, None] = None,
    cache_max_bytes: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    coordinator: Optional[str] = None,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Run every (budget, seed, policy) combination.

    ``budgets`` are ``(n_cg_fabrics, n_prcs)`` pairs.  ``policies`` is a
    sequence of registered policy names, or a ``name -> factory`` dict of
    registered factories.  ``workload``/``workload_params`` select a
    registered workload.  A RISC reference is simulated once per (budget,
    seed) for the speedup column.  Cells run on ``engine`` or, without
    one, on an engine built from ``jobs``, ``use_cache``/``cache_dir`` and
    the backend knobs (serial and uncached by default).
    """
    names = _policy_names(policies)
    params = _sweep_params(workload, workload_params)
    cells = _sweep_cells(budgets, seeds, names, workload, params)
    with resolve_engine(
        engine, jobs, use_cache, cache_dir, cache_max_bytes,
        backend=backend, workers=workers, coordinator=coordinator,
    ) as eng:
        records = eng.run(cells)
    return _points_from_records(
        dict(zip(cells, records)), budgets, seeds, names, workload, params
    )


def run_sweep_stored(
    budgets: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    policies: PolicySpec,
    *,
    store: str,
    sweep: Optional[str] = None,
    shard_rows: int = 0,
    workload: str = "h264",
    workload_params: Optional[Dict[str, object]] = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Union[str, Path, None] = None,
    cache_max_bytes: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    coordinator: Optional[str] = None,
    engine: Optional[SweepEngine] = None,
) -> Tuple[SweepResult, str]:
    """:func:`run_sweep`, streamed through a result store.

    Cells flow through ``SweepEngine.run_streamed`` into a
    :class:`~repro.results.store.ResultWriter` (bounded memory on the
    execution side), the sweep commits under ``store``/``sweep``, and the
    returned :class:`SweepResult` is rebuilt *from the stored shards* —
    so byte-identical CLI output doubles as a round-trip check.  Returns
    ``(result, sweep_path)``.
    """
    from repro.results.store import DEFAULT_SHARD_ROWS, ResultReader, ResultWriter

    names = _policy_names(policies)
    params = _sweep_params(workload, workload_params)
    cells = _sweep_cells(budgets, seeds, names, workload, params)
    writer = ResultWriter(
        store,
        sweep=sweep,
        shard_rows=shard_rows or DEFAULT_SHARD_ROWS,
        meta={"workload": workload, "policies": ["risc"] + list(names)},
    )
    with resolve_engine(
        engine, jobs, use_cache, cache_dir, cache_max_bytes,
        backend=backend, workers=workers, coordinator=coordinator,
    ) as eng:
        eng.run_streamed(cells, writer.sink)
        path = writer.close(engine_stats=eng.stats.engine_payload())
    records: List[Optional[Dict[str, object]]] = [None] * len(cells)
    for index, _, record in ResultReader(path).iter_rows():
        records[index] = record
    return (
        _points_from_records(
            dict(zip(cells, records)), budgets, seeds, names, workload, params
        ),
        path,
    )


def _sweep_params(
    workload: str, workload_params: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """The workload params of every cell (h264 defaults to 8 frames)."""
    params = dict(workload_params) if workload_params is not None else {}
    if workload == "h264":
        params.setdefault("frames", 8)
    return params


def _sweep_cells(
    budgets: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    policy_names: Sequence[str],
    workload: str,
    workload_params: Dict[str, object],
) -> List[SweepCell]:
    """The declarative sweep's cell list, in canonical submission order."""
    cells: List[SweepCell] = []
    for budget in budgets:
        for seed in seeds:
            for name in ["risc"] + list(policy_names):
                cells.append(
                    SweepCell.make(
                        budget,
                        seed,
                        name,
                        workload=workload,
                        workload_params=workload_params,
                    )
                )
    return cells


def _points_from_records(
    per_cell: Dict[SweepCell, Dict[str, object]],
    budgets: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    policy_names: Sequence[str],
    workload: str,
    workload_params: Dict[str, object],
) -> SweepResult:
    """Assemble :class:`SweepResult` points from per-cell records."""
    result = SweepResult()
    for budget in budgets:
        for seed in seeds:
            def record_of(name: str) -> Dict[str, object]:
                return per_cell[
                    SweepCell.make(
                        budget,
                        seed,
                        name,
                        workload=workload,
                        workload_params=workload_params,
                    )
                ]

            risc_cycles = record_of("risc")["total_cycles"]
            for name in policy_names:
                record = record_of(name)
                result.points.append(
                    SweepPoint(
                        budget_label=record["budget_label"],
                        seed=seed,
                        policy=name,
                        total_cycles=record["total_cycles"],
                        speedup_vs_risc=risc_cycles / record["total_cycles"],
                        accelerated_fraction=record["accelerated_fraction"],
                        reconfigurations=record["reconfigurations"],
                    )
                )
    return result


__all__ = ["SweepPoint", "SweepResult", "run_sweep", "run_sweep_stored"]
