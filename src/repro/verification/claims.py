"""The paper's claims as one table, evaluated against the canonical run.

Each row of :data:`CLAIMS` names one shape the reproduction must show: an
id, its place in the paper (``Fig. N``, ``§N``, or ``ext.`` for an
extension beyond the paper), the paper's value where the paper states one,
the experiment whose result it reads, and the predicate
``measure(result) <op> threshold``.  The rules are data; :func:`evaluate`
is the one evaluator.  The experiments run at the size
``python -m repro.experiments`` runs them (:func:`run_canonical`), plus
three experiments the report does not render (:data:`CLAIMS_ONLY`): JPEG
generality, lookahead prefetching and the named workload scenarios.

``tests/test_claims.py`` evaluates every claim in tier-1, and
``repro report`` prints the table with measured over paper values.
Nothing in the package imports this module at import time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.riscmode import RiscModePolicy
from repro.core.config import MRTSConfig
from repro.core.mrts import MRTS
from repro.experiments.engine import SweepCell, resolve_engine
from repro.experiments.runner import each_experiment, run_all
from repro.extensions import LookaheadMRTS
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.simulator import Simulator
from repro.util.validation import ReproError
from repro.workloads.h264 import h264_application, h264_library
from repro.workloads.scenarios import SCENARIOS, scenario

#: comparison name -> ``predicate(measured, threshold)``
OPS: Dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One shape: ``measure(results[experiment]) <op> threshold``."""

    id: str
    place: str
    paper: Optional[float]
    experiment: str
    measure: Callable[[object], object]
    op: str
    threshold: object


@dataclass(frozen=True)
class Verdict:
    """A claim and the value its measure read from one result."""

    claim: Claim
    measured: object

    @property
    def ok(self) -> bool:
        return bool(OPS[self.claim.op](self.measured, self.claim.threshold))

    @property
    def ratio(self) -> Optional[float]:
        """Measured over the paper's value, where the paper states one."""
        if self.claim.paper is None or isinstance(self.measured, bool):
            return None
        return self.measured / self.claim.paper


# ------------------------------------------------- measures over results


def _fig1_regions_ordered(r) -> bool:
    """CG -> MG -> FG along the execution axis (ISE-2, ISE-3, ISE-1)."""
    r2, r3, r1 = (r.dominance_region(n) for n in ("ISE-2", "ISE-3", "ISE-1"))
    return None not in (r1, r2, r3) and r2[1] < r3[0] <= r3[1] < r1[0]


def _fig5_accelerated_share(r) -> float:
    phases = r.timeline.phases
    accelerated = sum(p.executions for p in phases if p.mode != "risc")
    return accelerated / r.timeline.total_executions


def _fig8_rispp_cg0_gap(r) -> float:
    """Largest distance from parity with RISPP where no CG fabric exists."""
    return max(
        abs(s - 1.0)
        for b, s in zip(r.budgets, r.speedup_series("rispp"))
        if b.n_cg_fabrics == 0
    )


def _fig8_mg_max(versus: str) -> Callable[[object], float]:
    """Best mRTS speedup over ``versus`` on a multi-grained combination."""
    return lambda r: max(
        s
        for b, s in zip(r.budgets, r.speedup_series(versus))
        if b.n_cg_fabrics > 0 and b.n_prcs > 0
    )


def _fig9_near_equal_share(r) -> float:
    diffs = r.percent_difference()
    return sum(1 for d in diffs if abs(d) <= 3.0) / len(diffs)


def _granularity_coarse_over_fine(r) -> float:
    periods = sorted(r.task_level_cycles)
    return r.task_level_cycles[periods[-1]] / r.task_level_cycles[periods[0]]


def _multitask_mean(r, label: str) -> float:
    return (r.interference(label, "h264") + r.interference(label, "jpeg")) / 2


def _multitask_interferences(r) -> List[float]:
    return [r.interference(label, task) for label in r.cells
            for task in ("h264", "jpeg")]


def _multitask_growth(r) -> float:
    """Mean interference on the largest combination minus the smallest."""
    labels = list(r.cells)
    return _multitask_mean(r, labels[-1]) - _multitask_mean(r, labels[0])


_ACCELERATING = ("rispp", "morpheus4s", "offline-optimal", "mrts")
_COMPETITORS = ("rispp", "offline-optimal", "morpheus4s")

_ROBUST_VARIANTS = (
    "baseline",
    "CG bit-op penalty 2x (worse CG for control code)",
    "FG multiplies cheap (hard DSP blocks)",
    "2 contexts per CG fabric (scarcer CG)",
    "8 contexts per CG fabric (abundant CG)",
)
#: bit ops as cheap on CG as on FG: the multi-grained advantage must vanish
_DEGENERATE_VARIANT = "CG bit-op penalty 1 cycle (CG as good as FG at bits)"


def _jpeg_speedup(cg: int, prc: int) -> Callable[[dict], float]:
    return lambda r: r[(cg, prc)][0] / r[(cg, prc)][1]


def _scenario_mpu_value(r, name: str) -> float:
    """Cycles without MPU adaptation over cycles with it."""
    _, full, no_mpu, _ = r[name]
    return no_mpu / full


_MPU_STEADY = ("streaming-stable", "bursty", "compute-heavy", "control-heavy")


# ------------------------------------------------------------- the table

#: ``(id, place, paper value, experiment, measure, op, threshold)``
_TABLE: Sequence[Tuple] = (
    # Fig. 1: three dominance regions, CG -> MG -> FG.
    ("fig1.ise2-region", "Fig. 1", None, "fig1",
     lambda r: r.dominance_region("ISE-2") is not None, "==", True),
    ("fig1.ise3-region", "Fig. 1", None, "fig1",
     lambda r: r.dominance_region("ISE-3") is not None, "==", True),
    ("fig1.ise1-region", "Fig. 1", None, "fig1",
     lambda r: r.dominance_region("ISE-1") is not None, "==", True),
    ("fig1.region-order", "Fig. 1", None, "fig1",
     _fig1_regions_ordered, "==", True),
    ("fig1.ise1-over-ise3-at-10k", "Fig. 1", None, "fig1",
     lambda r: r.curves["ISE-1"][-1] / r.curves["ISE-3"][-1], ">", 1.0),
    ("fig1.ise3-over-ise2-at-10k", "Fig. 1", None, "fig1",
     lambda r: r.curves["ISE-3"][-1] / r.curves["ISE-2"][-1], ">", 1.0),
    ("fig1.ise1-pif-at-10k", "Fig. 1", 8.5, "fig1",
     lambda r: r.curves["ISE-1"][-1], ">", 4.0),
    # Fig. 2: run-time variation large enough to change the best ISE.
    ("fig2.frames", "Fig. 2", 16, "fig2",
     lambda r: len(r.executions_per_frame), "==", 16),
    ("fig2.count-swing", "Fig. 2", None, "fig2",
     lambda r: max(r.executions_per_frame) / min(r.executions_per_frame),
     ">", 3.0),
    ("fig2.winner-switches", "Fig. 2", None, "fig2",
     lambda r: r.switches, ">=", 1),
    ("fig2.distinct-winners", "Fig. 2", 3, "fig2",
     lambda r: r.distinct_best, ">=", 2),
    # Fig. 5: the intermediate-ISE staircase Eq. 3 models.
    ("fig5.phases", "Fig. 5", None, "fig5", lambda r: r.n_phases, ">=", 3),
    ("fig5.monotone", "Fig. 5", None, "fig5",
     lambda r: r.staircase_is_monotone, "==", True),
    ("fig5.ends-selected", "Fig. 5", None, "fig5",
     lambda r: r.timeline.phases[-1].mode == "selected", "==", True),
    ("fig5.accelerated-share", "Fig. 5", None, "fig5",
     _fig5_accelerated_share, ">", 0.8),
    ("fig5.saved-cycles", "Fig. 5", None, "fig5",
     lambda r: r.timeline.saved_cycles, ">", 0),
    # Fig. 8: mRTS against the state of the art.
    ("fig8.min-vs-rispp", "Fig. 8", None, "fig8",
     lambda r: min(r.speedup_series("rispp")), ">", 0.9),
    ("fig8.min-vs-offline-optimal", "Fig. 8", None, "fig8",
     lambda r: min(r.speedup_series("offline-optimal")), ">", 0.9),
    ("fig8.min-vs-morpheus4s", "Fig. 8", None, "fig8",
     lambda r: min(r.speedup_series("morpheus4s")), ">", 0.9),
    ("fig8.avg-vs-rispp", "Fig. 8", 1.3, "fig8",
     lambda r: r.average_speedup("rispp"), ">", 1.0),
    ("fig8.avg-vs-offline-optimal", "Fig. 8", 1.45, "fig8",
     lambda r: r.average_speedup("offline-optimal"), ">", 1.1),
    ("fig8.avg-vs-morpheus4s", "Fig. 8", 1.78, "fig8",
     lambda r: r.average_speedup("morpheus4s"), ">", 1.15),
    ("fig8.rispp-parity-cg0", "Fig. 8", None, "fig8",
     _fig8_rispp_cg0_gap, "<", 0.05),
    ("fig8.max-vs-rispp", "Fig. 8", 1.8, "fig8",
     _fig8_mg_max("rispp"), ">", 1.1),
    ("fig8.max-vs-offline-optimal", "Fig. 8", 2.2, "fig8",
     _fig8_mg_max("offline-optimal"), ">", 1.1),
    ("fig8.max-vs-morpheus4s", "Fig. 8", 2.3, "fig8",
     _fig8_mg_max("morpheus4s"), ">", 1.1),
    # Fig. 9: the heuristic against the optimal selection (% difference).
    ("fig9.worst-gap", "Fig. 9", 11.0, "fig9",
     lambda r: max(r.percent_difference()), "<", 12.0),
    ("fig9.mean-gap", "Fig. 9", None, "fig9",
     lambda r: sum(r.percent_difference()) / len(r.percent_difference()),
     "<", 3.0),
    ("fig9.optimal-never-loses", "Fig. 9", None, "fig9",
     lambda r: min(r.percent_difference()), ">", -5.0),
    ("fig9.near-equal-share", "Fig. 9", None, "fig9",
     _fig9_near_equal_share, ">=", 0.5),
    # Fig. 10: speedup over RISC mode by fabric mix.
    ("fig10.fg-only-low", "Fig. 10", 1.8, "fig10",
     lambda r: r.group_range("fg-only")[0], ">", 1.3),
    ("fig10.fg-only-high", "Fig. 10", 2.2, "fig10",
     lambda r: r.group_range("fg-only")[1], "<", 2.7),
    ("fig10.mg-top", "Fig. 10", 5.0, "fig10",
     lambda r: r.group_range("multi-grained")[1], ">", 4.5),
    ("fig10.mg-over-fg", "Fig. 10", None, "fig10",
     lambda r: r.group_range("multi-grained")[1] / r.group_range("fg-only")[1],
     ">", 1.0),
    ("fig10.mg-over-cg", "Fig. 10", None, "fig10",
     lambda r: r.group_range("multi-grained")[1] / r.group_range("cg-only")[1],
     ">", 1.0),
    ("fig10.11-over-03", "Fig. 10", None, "fig10",
     lambda r: r.speedup_of("11") / r.speedup_of("03"), ">", 1.0),
    ("fig10.11-over-30", "Fig. 10", None, "fig10",
     lambda r: r.speedup_of("11") / r.speedup_of("30"), ">", 1.0),
    ("fig10.00-is-risc", "Fig. 10", None, "fig10",
     lambda r: abs(r.speedup_of("00") - 1.0), "<", 0.01),
    # Section 5.4: the run-time system's own cost.
    ("overhead.cycles-per-kernel", "§5.4", 3000, "overhead",
     lambda r: r.cycles_per_kernel, "<", 3000),
    ("overhead.block-fraction", "§5.4", 0.019, "overhead",
     lambda r: r.fraction_of_block_time, "<", 0.05),
    ("overhead.hidden-fraction", "§5.4", None, "overhead",
     lambda r: r.hidden_fraction, ">", 0.4),
    ("overhead.charged-share", "§5.4", None, "overhead",
     lambda r: r.charged_overhead_cycles / r.total_cycles, "<", 0.01),
    # Section 4.1: the search space that motivates the heuristic.
    ("search.kernels", "§4.1", None, "search_space",
     lambda r: len(r.kernels), "==", 7),
    ("search.combinations", "§4.1", 78_000_000, "search_space",
     lambda r: r.combinations, ">", 500_000),
    ("search.heuristic-evaluations", "§4.1", None, "search_space",
     lambda r: r.heuristic_evaluations, "<", 5_000),
    ("search.reduction", "§4.1", None, "search_space",
     lambda r: r.reduction_factor, ">", 1_000),
    # Ablations: every mRTS ingredient pulls its weight.
    ("ablations.min-slowdown", "ext.", None, "ablations",
     lambda r: min(r.slowdown(name) for name in r.cycles), ">", 0.995),
    ("ablations.no-intermediate", "ext.", None, "ablations",
     lambda r: r.slowdown("no intermediate ISEs"), ">", 1.01),
    ("ablations.no-monocg", "ext.", None, "ablations",
     lambda r: r.slowdown("no monoCG-Extension"), ">", 1.005),
    # Section 1, variation (b): a background task claims fabric.
    ("contention.mrts", "§1 (b)", None, "contention",
     lambda r: r.degradation("mrts"), "<", 1.5),
    ("contention.rispp", "§1 (b)", None, "contention",
     lambda r: r.degradation("rispp"), "<", 1.5),
    ("contention.offline-optimal", "§1 (b)", None, "contention",
     lambda r: r.degradation("offline-optimal"), ">", 1.5),
    ("contention.morpheus4s", "§1 (b)", None, "contention",
     lambda r: r.degradation("morpheus4s"), ">", 1.5),
    ("contention.offline-over-mrts", "§1 (b)", None, "contention",
     lambda r: r.degradation("offline-optimal") / r.degradation("mrts"),
     ">", 1.5),
    ("contention.mrts-fastest", "§1 (b)", None, "contention",
     lambda r: max(r.contended_cycles["mrts"] / r.contended_cycles[other]
                   for other in _COMPETITORS), "<=", 1.0),
    # Section 1, the critique of [11]: task-level selection.
    ("granularity.min-advantage", "§1 [11]", None, "granularity",
     lambda r: min(r.advantage(p) for p in r.task_level_cycles), ">", 1.05),
    ("granularity.coarse-over-fine", "§1 [11]", None, "granularity",
     _granularity_coarse_over_fine, ">=", 0.97),
    ("granularity.task-level-over-risc", "§1 [11]", None, "granularity",
     lambda r: r.risc_cycles / max(r.task_level_cycles.values()), ">", 1.5),
    # Section 1, variation (b): two applications share one fabric.
    ("multitask.min-interference", "§1 (b)", None, "multitask",
     lambda r: min(_multitask_interferences(r)), ">=", 0.95),
    ("multitask.max-interference", "§1 (b)", None, "multitask",
     lambda r: max(_multitask_interferences(r)), "<", 3.5),
    ("multitask.shrinks-with-fabric", "§1 (b)", None, "multitask",
     _multitask_growth, "<=", 0.05),
    # Energy (extension).
    ("energy.min-saving", "ext.", None, "energy",
     lambda r: min(r.saving_vs_risc(p) for p in _ACCELERATING), ">", 0.2),
    ("energy.mrts-lowest", "ext.", None, "energy",
     lambda r: max(r.total_mj("mrts") / r.total_mj(p) for p in _COMPETITORS),
     "<=", 1.02),
    ("energy.reconfig-share", "ext.", None, "energy",
     lambda r: max(b.reconfig_mj / b.total_mj
                   for b in r.breakdowns.values() if b.total_mj > 0),
     "<", 0.2),
    ("energy.edp-over-risc", "ext.", None, "energy",
     lambda r: (r.breakdowns["mrts"].energy_delay_product
                / r.breakdowns["risc"].energy_delay_product), "<", 0.2),
    # Cost-model sensitivity (extension).
    ("sensitivity.robust-mg-wins", "ext.", None, "sensitivity",
     lambda r: all(r.mg_beats_single(v) for v in _ROBUST_VARIANTS),
     "==", True),
    ("sensitivity.robust-speedup-33", "ext.", None, "sensitivity",
     lambda r: min(r.speedup_33(v) for v in _ROBUST_VARIANTS), ">", 3.0),
    ("sensitivity.degenerate-mg-loses", "ext.", None, "sensitivity",
     lambda r: r.mg_beats_single(_DEGENERATE_VARIANT), "==", False),
    # JPEG generality (extension): (cg, prc) -> (risc, mrts, offline).
    ("jpeg.min-speedup", "ext.", None, "jpeg",
     lambda r: min(risc / mrts for risc, mrts, _ in r.values()), ">", 1.4),
    ("jpeg.mrts-over-offline", "ext.", None, "jpeg",
     lambda r: max(mrts / offline for _, mrts, offline in r.values()),
     "<=", 1.12),
    ("jpeg.cg-over-fg", "ext.", None, "jpeg",
     lambda r: _jpeg_speedup(2, 0)(r) / _jpeg_speedup(0, 2)(r), ">", 1.3),
    ("jpeg.mixed-over-fg", "ext.", None, "jpeg",
     lambda r: _jpeg_speedup(1, 1)(r) / _jpeg_speedup(0, 2)(r), ">", 1.0),
    ("jpeg.big-mixed", "ext.", None, "jpeg", _jpeg_speedup(2, 2), ">", 3.5),
    # Lookahead prefetching (extension): (cg, prc) -> cycles over mRTS's.
    ("lookahead.safe-low", "ext.", None, "lookahead",
     lambda r: min(safe for safe, _ in r.values()), ">=", 0.95),
    ("lookahead.safe-high", "ext.", None, "lookahead",
     lambda r: max(safe for safe, _ in r.values()), "<=", 1.02),
    ("lookahead.aggressive-low", "ext.", None, "lookahead",
     lambda r: min(aggressive for _, aggressive in r.values()), ">=", 0.94),
    ("lookahead.aggressive-high", "ext.", None, "lookahead",
     lambda r: max(aggressive for _, aggressive in r.values()), "<=", 1.06),
    # Named scenarios (extension): name -> (risc, full, no MPU, no intermediate).
    ("scenarios.min-speedup", "ext.", None, "scenarios",
     lambda r: min(risc / full for risc, full, _, _ in r.values()), ">", 1.3),
    ("scenarios.intermediate-never-hurts", "ext.", None, "scenarios",
     lambda r: min(no_im / full for _, full, _, no_im in r.values()),
     ">=", 0.99),
    ("scenarios.mpu-helps-steady", "ext.", None, "scenarios",
     lambda r: min(_scenario_mpu_value(r, n) for n in _MPU_STEADY), ">=", 0.99),
    ("scenarios.mpu-lags-alternating-low", "ext.", None, "scenarios",
     lambda r: _scenario_mpu_value(r, "scene-cut-heavy"), ">=", 0.90),
    ("scenarios.mpu-lags-alternating-high", "ext.", None, "scenarios",
     lambda r: _scenario_mpu_value(r, "scene-cut-heavy"), "<=", 1.02),
)


def load_claims(rows: Sequence[Tuple]) -> Tuple[Claim, ...]:
    """Build the claims of ``rows``, refusing duplicate ids and unknown ops."""
    claims = tuple(Claim(*row) for row in rows)
    ids = [claim.id for claim in claims]
    if len(set(ids)) != len(ids):
        raise ReproError(f"duplicate claim ids in {ids}")
    for claim in claims:
        if claim.op not in OPS:
            raise ReproError(f"claim {claim.id}: unknown op {claim.op!r}")
    return claims


CLAIMS: Tuple[Claim, ...] = load_claims(_TABLE)


def evaluate(results: Dict[str, object]) -> List[Verdict]:
    """A verdict for every claim whose experiment is in ``results``."""
    return [
        Verdict(claim, claim.measure(results[claim.experiment]))
        for claim in CLAIMS
        if claim.experiment in results
    ]


# ------------------------------------------- the claims-only experiments

#: The JPEG generality budgets, ``(cg, prc)``.
_JPEG_BUDGETS = ((0, 2), (2, 0), (1, 1), (2, 2))
_JPEG_POLICIES = ("risc", "mrts", "offline-optimal")


def _run_jpeg(fast, engine) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """The JPEG encoder (a near-static contrast workload) under RISC mode,
    mRTS and the offline-optimal selection: ``(cg, prc) -> cycles``."""
    cells = [
        SweepCell.make(budget, 3, policy, workload="jpeg",
                       workload_params={"images": 8, "blocks_per_image": 700})
        for budget in _JPEG_BUDGETS
        for policy in _JPEG_POLICIES
    ]
    cycles = [record["total_cycles"] for record in engine.run(cells)]
    width = len(_JPEG_POLICIES)
    return {
        budget: tuple(cycles[i * width:(i + 1) * width])
        for i, budget in enumerate(_JPEG_BUDGETS)
    }


def _run_lookahead(fast, engine) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """Lookahead prefetching on the saturated H.264 budgets, 8 frames:
    ``(cg, prc) -> (safe, aggressive)`` cycles over plain mRTS's."""
    app = h264_application(frames=8, seed=7)
    rows = {}
    for cg, prc in ((2, 3), (3, 3)):
        budget = ResourceBudget(n_prcs=prc, n_cg_fabrics=cg)
        library = h264_library(budget)
        base, safe, aggressive = (
            Simulator(app, library, budget, policy).run().total_cycles
            for policy in (MRTS(), LookaheadMRTS(),
                           LookaheadMRTS(allow_eviction=True))
        )
        rows[(cg, prc)] = (safe / base, aggressive / base)
    return rows


def _run_scenarios(fast, engine) -> Dict[str, Tuple[int, int, int, int]]:
    """mRTS on every named scenario at (2 CG, 2 PRC), seed 11: ``name ->
    (risc, full mRTS, no MPU adaptation, no intermediate ISEs)`` cycles."""
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
    rows = {}
    for name in sorted(SCENARIOS):
        app = scenario(name, seed=11)
        library = ISELibrary(app.all_kernels(), budget)
        rows[name] = tuple(
            Simulator(app, library, budget, policy).run().total_cycles
            for policy in (RiscModePolicy(), MRTS(),
                           MRTS(MRTSConfig(mpu_alpha=0.0)),
                           MRTS(MRTSConfig(enable_intermediate=False)))
        )
    return rows


#: Experiments only the claims read, each at its own fixed size (they
#: ignore ``fast``): ``(key, title, run(fast, engine))`` like the report's.
CLAIMS_ONLY: List[Tuple[str, str, Callable]] = [
    ("jpeg", "JPEG generality", _run_jpeg),
    ("lookahead", "Lookahead prefetching", _run_lookahead),
    ("scenarios", "Workload scenarios", _run_scenarios),
]


def run_claims_only(engine) -> Dict[str, object]:
    """The :data:`CLAIMS_ONLY` results by key (JPEG's cells on ``engine``)."""
    return {key: result
            for key, _, result, _ in each_experiment(engine, False, CLAIMS_ONLY)}


def run_canonical(stream) -> Dict[str, object]:
    """Every result the claims read, at the canonical size.

    ``run_all``'s experiments run as ``python -m repro.experiments`` runs
    them, rendering the report to ``stream``; the claims-only experiments
    follow on a serial, uncached engine.
    """
    results = run_all(stream=stream)
    with resolve_engine() as engine:
        results.update(run_claims_only(engine))
    return results


__all__ = [
    "CLAIMS_ONLY",
    "CLAIMS",
    "Claim",
    "OPS",
    "Verdict",
    "evaluate",
    "load_claims",
    "run_claims_only",
    "run_canonical",
]
