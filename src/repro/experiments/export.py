"""Export experiment results to CSV / JSON for downstream plotting.

Every experiment's result object renders as an ASCII table for humans;
this module extracts the same data as ``(headers, rows)`` records and
writes them to files, so the paper's figures can be re-plotted with any
tool without re-running the simulations.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.experiments.ablations import AblationResult
from repro.experiments.contention import ContentionResult, POLICIES
from repro.experiments.fig1_pif import Fig1Result
from repro.experiments.fig2_executions import Fig2Result
from repro.experiments.fig5_timeline import Fig5Result
from repro.experiments.fig8_comparison import APPROACHES, Fig8Result
from repro.experiments.fig9_optimality import Fig9Result
from repro.experiments.fig10_speedup import Fig10Result, classify
from repro.experiments.granularity import GranularityResult
from repro.experiments.multitask import MultiTaskExperimentResult
from repro.experiments.energy import EnergyResult
from repro.experiments.sweep import SweepResult
from repro.experiments.sensitivity import SensitivityResult
from repro.experiments.overhead import OverheadResult
from repro.experiments.search_space import SearchSpaceResult
from repro.util.validation import ReproError

Records = Tuple[List[str], List[List[object]]]


def figure_records(result: object) -> Records:
    """``(headers, rows)`` of the primary data series of ``result``."""
    if isinstance(result, Fig1Result):
        headers = ["executions"] + list(result.curves) + ["best"]
        rows = [
            [e] + [result.curves[name][i] for name in result.curves] + [result.best[i]]
            for i, e in enumerate(result.executions)
        ]
        return headers, rows
    if isinstance(result, Fig2Result):
        return (
            ["frame", "executions", "best_ise"],
            [
                [i + 1, e, b]
                for i, (e, b) in enumerate(
                    zip(result.executions_per_frame, result.best_ise_per_frame)
                )
            ],
        )
    if isinstance(result, Fig5Result):
        return (
            ["mode", "level", "executions", "latency", "start", "ise"],
            [
                [p.mode, p.level, p.executions, p.latency, p.start, p.ise_name or ""]
                for p in result.timeline.phases
            ],
        )
    if isinstance(result, Fig8Result):
        headers = ["combo", "risc"] + list(APPROACHES)
        rows = [
            [b.label, result.risc_cycles[i]]
            + [result.cycles[name][i] for name in APPROACHES]
            for i, b in enumerate(result.budgets)
        ]
        return headers, rows
    if isinstance(result, Fig9Result):
        diffs = result.percent_difference()
        return (
            ["combo", "heuristic_cycles", "optimal_cycles", "diff_percent"],
            [
                [b.label, h, o, d]
                for b, h, o, d in zip(
                    result.budgets,
                    result.heuristic_cycles,
                    result.optimal_cycles,
                    diffs,
                )
            ],
        )
    if isinstance(result, Fig10Result):
        return (
            ["combo", "group", "speedup"],
            [
                [b.label, classify(b), s]
                for b, s in zip(result.budgets, result.speedups)
            ],
        )
    if isinstance(result, OverheadResult):
        return (
            ["metric", "value"],
            [
                ["cycles_per_kernel_selection", result.cycles_per_kernel],
                ["cycles_per_block_selection", result.cycles_per_selection],
                ["fraction_of_block_time", result.fraction_of_block_time],
                ["hidden_fraction", result.hidden_fraction],
            ],
        )
    if isinstance(result, SearchSpaceResult):
        return (
            ["kernel", "candidates"],
            [[k, result.candidates_per_kernel[k]] for k in result.kernels]
            + [["<combinations>", result.combinations],
               ["<heuristic_evaluations>", result.heuristic_evaluations]],
        )
    if isinstance(result, AblationResult):
        return (
            ["variant", "cycles", "slowdown"],
            [
                [name, result.cycles[name], result.slowdown(name)]
                for name in result.cycles
            ],
        )
    if isinstance(result, ContentionResult):
        return (
            ["policy", "baseline_cycles", "contended_cycles", "degradation"],
            [
                [
                    name,
                    result.baseline_cycles[name],
                    result.contended_cycles[name],
                    result.degradation(name),
                ]
                for name in POLICIES
            ],
        )
    if isinstance(result, MultiTaskExperimentResult):
        rows = []
        for label, tasks in result.cells.items():
            for task, (alone, shared) in tasks.items():
                rows.append([label, task, alone, shared, shared / alone])
        return ["combo", "task", "alone_cycles", "shared_cycles", "interference"], rows
    if isinstance(result, EnergyResult):
        rows = []
        for name, b in result.breakdowns.items():
            rows.append([
                name, b.total_mj, b.reconfig_mj, b.static_mj,
                b.energy_delay_product,
            ])
        return ["policy", "total_mj", "reconfig_mj", "static_mj", "edp"], rows
    if isinstance(result, SweepResult):
        return result.records()
    if isinstance(result, SensitivityResult):
        rows = [
            [name, s33, s11, s30, s03, result.mg_beats_single(name)]
            for name, (s33, s11, s30, s03) in result.cells.items()
        ]
        return ["variant", "s33", "s11", "s30", "s03", "mg_wins"], rows
    if isinstance(result, GranularityResult):
        rows: List[List[object]] = [["mrts", 0, result.mrts_cycles]]
        for period, cycles in sorted(result.task_level_cycles.items()):
            rows.append(["task-level", period, cycles])
        return ["policy", "period_blocks", "cycles"], rows
    raise ReproError(f"no exporter for result type {type(result).__name__}")


def export_csv(result: object, path: Union[str, Path]) -> Path:
    """Write the primary data of ``result`` as CSV; returns the path."""
    headers, rows = figure_records(result)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)
    return path


def export_json(result: object, path: Union[str, Path]) -> Path:
    """Write the primary data of ``result`` as JSON records; returns the path."""
    headers, rows = figure_records(result)
    records = [dict(zip(headers, row)) for row in rows]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(records, handle, indent=2, default=str)
    return path


__all__ = ["figure_records", "export_csv", "export_json"]
