"""Experiments: one module per figure/table of the paper's evaluation.

Every experiment exposes a ``run_*`` function returning a structured result
object with a ``render()`` method that prints the same rows/series the
paper's figure shows.  ``repro.experiments.runner`` executes all of them
(``python -m repro.experiments``).  Each simulation, a co-run of several
applications included, is a :class:`SweepCell` run through a
:class:`SweepEngine` (the ``engine`` argument of every simulating
``run_*``); the cells column names what an experiment varies.

| Paper item | Module | Cells |
|---|---|---|
| Fig. 1 (pif of the case-study ISEs)        | ``fig1_pif`` | none (analytic) |
| Fig. 2 (executions per frame)              | ``fig2_executions`` | ``deblock_frame_winners`` metric |
| Fig. 5 (measured reconfiguration timeline) | ``fig5_timeline`` | traced ``kernel_timeline`` metric |
| Fig. 8 (comparison with the state of the art) | ``fig8_comparison`` | budget x policy grid |
| Fig. 9 (heuristic vs. optimal)             | ``fig9_optimality`` | budget x policy grid |
| Fig. 10 (speedup vs. RISC mode)            | ``fig10_speedup`` | budget x policy grid |
| Section 5.4 (mRTS overhead)                | ``overhead`` | one ``mrts`` cell, ``block_profile`` metric |
| Section 4.1 (search-space size)            | ``search_space`` | none (counts) |
| DESIGN.md ablations                        | ``ablations`` | ``mrts`` with ``MRTSConfig`` overrides as policy params |
| Section 1, variation (b): contention       | ``contention`` | the cell's ``contention`` schedule |
| Section 1, task-level manager [11]         | ``granularity`` | ``task-level`` re-decision periods |
| Section 1, variation (b): multi-task       | ``multitask`` | each task alone; the co-run as a cell with a ``co_tasks`` entry |
| Energy (extension)                         | ``energy`` | traced ``energy`` metric |
| Cost-model sensitivity (extension)         | ``sensitivity`` | cost-model / context-count params |
"""

from repro.experiments.engine import (
    POLICIES,
    SweepCell,
    SweepEngine,
    WORKLOADS,
    execute_cell,
    register_policy,
    register_workload,
)
from repro.experiments.fig1_pif import run_fig1, Fig1Result
from repro.experiments.fig2_executions import run_fig2, Fig2Result
from repro.experiments.fig5_timeline import run_fig5, Fig5Result
from repro.experiments.contention import run_contention, ContentionResult
from repro.experiments.granularity import run_granularity, GranularityResult
from repro.experiments.multitask import run_multitask, MultiTaskExperimentResult
from repro.experiments.energy import run_energy, EnergyResult
from repro.experiments.sweep import run_sweep, run_sweep_stored, SweepResult
from repro.experiments.sensitivity import run_sensitivity, SensitivityResult
from repro.experiments.fig8_comparison import run_fig8, Fig8Result
from repro.experiments.fig9_optimality import run_fig9, Fig9Result
from repro.experiments.fig10_speedup import run_fig10, Fig10Result
from repro.experiments.overhead import run_overhead, OverheadResult
from repro.experiments.search_space import run_search_space, SearchSpaceResult
from repro.experiments.ablations import run_ablations, AblationResult

__all__ = [
    "POLICIES",
    "SweepCell",
    "SweepEngine",
    "WORKLOADS",
    "execute_cell",
    "register_policy",
    "register_workload",
    "run_fig1",
    "Fig1Result",
    "run_fig2",
    "Fig2Result",
    "run_fig5",
    "Fig5Result",
    "run_contention",
    "ContentionResult",
    "run_granularity",
    "GranularityResult",
    "run_multitask",
    "MultiTaskExperimentResult",
    "run_energy",
    "EnergyResult",
    "run_sweep",
    "run_sweep_stored",
    "SweepResult",
    "run_sensitivity",
    "SensitivityResult",
    "run_fig8",
    "Fig8Result",
    "run_fig9",
    "Fig9Result",
    "run_fig10",
    "Fig10Result",
    "run_overhead",
    "OverheadResult",
    "run_search_space",
    "SearchSpaceResult",
    "run_ablations",
    "AblationResult",
]
