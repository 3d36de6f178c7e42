"""The analysis package: timelines, utilisation, churn, summary."""

import pytest

from repro.analysis import (
    fabric_utilization,
    kernel_timeline,
    run_summary,
    selection_churn,
)
from repro.baselines.riscmode import RiscModePolicy
from repro.core.mrts import MRTS
from repro.fabric.datapath import FabricType
from repro.fabric.resources import ResourceBudget
from repro.ise.library import ISELibrary
from repro.sim.program import Application, BlockIteration, FunctionalBlock, KernelIteration
from repro.sim.simulator import Simulator
from repro.util.validation import ReproError


@pytest.fixture(scope="module")
def traced_result():
    from repro.workloads.h264 import h264_application, h264_library

    app = h264_application(frames=3, seed=7, scale=0.4)
    budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
    library = h264_library(budget)
    return Simulator(app, library, budget, MRTS(), collect_trace=True).run()


class TestKernelTimeline:
    def test_phases_partition_executions(self, traced_result):
        timeline = kernel_timeline(traced_result, "lf.deblock_luma")
        records = traced_result.trace.executions_of("lf.deblock_luma")
        assert timeline.total_executions == len(records)

    def test_phases_are_chronological(self, traced_result):
        timeline = kernel_timeline(traced_result, "lf.deblock_luma")
        starts = [p.start for p in timeline.phases]
        assert starts == sorted(starts)
        for p in timeline.phases:
            assert p.start <= p.end

    def test_window_restriction(self, traced_result):
        full = kernel_timeline(traced_result, "lf.deblock_luma")
        window = kernel_timeline(traced_result, "lf.deblock_luma", block_window=0)
        assert window.total_executions <= full.total_executions
        lo, hi = traced_result.trace.block_windows["LF"][0]
        for p in window.phases:
            assert lo <= p.start <= hi

    def test_upgrade_points_have_decreasing_latency(self, traced_result):
        timeline = kernel_timeline(traced_result, "lf.deblock_luma", block_window=0)
        points = timeline.upgrade_points()
        assert all(
            earlier < later for earlier, later in zip(points, points[1:])
        )

    def test_saved_cycles_non_negative(self, traced_result):
        timeline = kernel_timeline(traced_result, "me.sad")
        assert timeline.saved_cycles >= 0

    def test_unknown_kernel_raises(self, traced_result):
        with pytest.raises(ReproError):
            kernel_timeline(traced_result, "nope")

    def test_bad_window_raises(self, traced_result):
        with pytest.raises(ReproError, match="windows"):
            kernel_timeline(traced_result, "lf.deblock_luma", block_window=999)

    def test_needs_trace(self, kernel, budget):
        app = Application(
            "t",
            [FunctionalBlock("B", [kernel])],
            [BlockIteration("B", [KernelIteration("k", 3, 10)])],
        )
        library = ISELibrary([kernel], budget)
        result = Simulator(app, library, budget, MRTS()).run()
        with pytest.raises(ReproError, match="collect_trace"):
            kernel_timeline(result, "k")

    def test_render(self, traced_result):
        text = kernel_timeline(traced_result, "lf.deblock_luma").render()
        assert "Fig. 5" in text and "NoE" in text


class TestFabricUtilization:
    def test_occupancy_bounded(self, traced_result):
        util = fabric_utilization(traced_result)
        for fabric in FabricType:
            assert 0.0 <= util.mean_occupancy[fabric] <= 1.0
            assert 0 <= util.peak_occupancy[fabric] <= traced_result.budget.total(fabric)

    def test_port_busy_fraction_bounded(self, traced_result):
        util = fabric_utilization(traced_result)
        assert 0.0 <= util.fg_port_busy_fraction <= 1.0

    def test_reconfiguration_counts_match_controller(self, traced_result):
        util = fabric_utilization(traced_result)
        total = sum(util.reconfigurations.values())
        assert total == traced_result.controller.reconfig_count

    def test_risc_run_has_dark_fabric(self, kernel, budget):
        app = Application(
            "t",
            [FunctionalBlock("B", [kernel])],
            [BlockIteration("B", [KernelIteration("k", 3, 10)])],
        )
        library = ISELibrary([kernel], budget)
        result = Simulator(app, library, budget, RiscModePolicy()).run()
        util = fabric_utilization(result)
        assert util.mean_occupancy[FabricType.FG] == 0.0
        assert util.evictions == 0

    def test_render(self, traced_result):
        text = fabric_utilization(traced_result).render()
        assert "bitstream port" in text


class TestSelectionChurn:
    def test_history_lengths_match_block_entries(self, traced_result):
        churn = selection_churn(traced_result)
        assert len(churn.servings["lf.deblock_luma"]) == 3  # 3 frames -> 3 LF windows

    def test_changes_consistent_with_history(self, traced_result):
        churn = selection_churn(traced_result)
        for kernel, history in churn.servings.items():
            recomputed = sum(1 for a, b in zip(history, history[1:]) if a != b)
            assert churn.changes[kernel] == recomputed

    def test_change_rate_bounds(self, traced_result):
        churn = selection_churn(traced_result)
        for kernel in churn.servings:
            assert 0.0 <= churn.change_rate(kernel) <= 1.0

    def test_reconfig_split(self, traced_result):
        churn = selection_churn(traced_result)
        assert (
            churn.fg_reconfigurations + churn.cg_reconfigurations
            == traced_result.controller.reconfig_count
        )

    def test_render(self, traced_result):
        assert "Selection churn" in selection_churn(traced_result).render()


class TestRunSummary:
    def test_contains_all_sections(self, traced_result):
        text = run_summary(traced_result)
        assert "Run summary" in text
        assert "Fabric utilisation" in text
        assert "Selection churn" in text

    def test_works_without_trace(self, kernel, budget):
        app = Application(
            "t",
            [FunctionalBlock("B", [kernel])],
            [BlockIteration("B", [KernelIteration("k", 3, 10)])],
        )
        library = ISELibrary([kernel], budget)
        result = Simulator(app, library, budget, MRTS()).run()
        result.trace = None
        assert "Run summary" in run_summary(result)


class TestCompareRuns:
    @pytest.fixture(scope="class")
    def comparison(self, traced_result):
        from repro.analysis import compare_runs
        from repro.workloads.h264 import h264_application, h264_library

        app = h264_application(frames=3, seed=7, scale=0.4)
        budget = ResourceBudget(n_prcs=2, n_cg_fabrics=2)
        library = h264_library(budget)
        baseline = Simulator(
            app, library, budget, RiscModePolicy(), collect_trace=True
        ).run()
        return compare_runs(baseline, traced_result)

    def test_total_speedup_positive(self, comparison):
        assert comparison.total_speedup > 1.0

    def test_deltas_cover_all_kernels(self, comparison):
        assert len(comparison.deltas) == 11

    def test_saved_cycles_consistent(self, comparison):
        for delta in comparison.deltas:
            assert delta.saved_cycles == (
                delta.baseline_cycles - delta.candidate_cycles
            )
            assert delta.saved_cycles >= 0  # mRTS never slows a kernel down

    def test_top_contributors_sorted(self, comparison):
        top = comparison.top_contributors(3)
        savings = [d.saved_cycles for d in top]
        assert savings == sorted(savings, reverse=True)

    def test_render(self, comparison):
        text = comparison.render()
        assert "Run comparison" in text and "total:" in text

    def test_mismatched_workloads_rejected(self, traced_result, kernel, budget):
        from repro.analysis import compare_runs
        from repro.ise.library import ISELibrary
        from repro.sim.program import (
            Application, BlockIteration, FunctionalBlock, KernelIteration,
        )
        from repro.util.validation import ReproError

        other_app = Application(
            "o", [FunctionalBlock("B", [kernel])],
            [BlockIteration("B", [KernelIteration("k", 2, 10)])],
        )
        library = ISELibrary([kernel], budget)
        other = Simulator(
            other_app, library, budget, RiscModePolicy(), collect_trace=True
        ).run()
        with pytest.raises(ReproError, match="different kernels"):
            compare_runs(other, traced_result)

    def test_untraced_run_rejected(self, traced_result):
        from repro.analysis import compare_runs
        from repro.util.validation import ReproError
        import copy

        untraced = copy.copy(traced_result)
        untraced.trace = None
        with pytest.raises(ReproError, match="traced"):
            compare_runs(untraced, traced_result)


class TestPortReport:
    def test_report_shape(self, traced_result):
        from repro.analysis.port import port_report

        report = port_report(traced_result)
        assert report.transfers >= 0
        assert 0.0 <= report.busy_fraction <= 1.0
        assert 0.0 <= report.cancellation_rate <= 1.0
        assert report.mean_wait_cycles <= report.max_wait_cycles
        assert len(report.wait_cycles) == report.transfers + report.cancelled

    def test_queueing_delays_nonnegative(self, traced_result):
        from repro.analysis.port import port_report

        report = port_report(traced_result)
        assert all(w >= 0 for w in report.wait_cycles)

    def test_render(self, traced_result):
        from repro.analysis.port import port_report

        assert "bitstream port" in port_report(traced_result).render()

    def test_risc_run_has_idle_port(self, kernel, budget):
        from repro.analysis.port import port_report

        app = Application(
            "t", [FunctionalBlock("B", [kernel])],
            [BlockIteration("B", [KernelIteration("k", 3, 10)])],
        )
        library = ISELibrary([kernel], budget)
        result = Simulator(app, library, budget, RiscModePolicy()).run()
        report = port_report(result)
        assert report.transfers == 0
        assert report.busy_fraction == 0.0


# --------------------------------------------------------------------------
# The static determinism & invariant linter (repro.analysis.lint).
# One known-bad and one known-good fixture per rule, the suppression and
# allowlist machinery, the project invariant checkers, the CLI gate, and
# the self-check that the shipped tree lints clean.


def _rules_hit(source, path="fixture.py", **kwargs):
    from repro.analysis.lint import lint_source

    return {f.rule for f in lint_source(source, path=path, **kwargs)}


class TestWallClockRule:
    BAD = "import time\n\ndef stamp():\n    return time.time()\n"
    GOOD = "def stamp(sim_now):\n    return sim_now\n"

    def test_bad(self):
        assert "wall-clock" in _rules_hit(self.BAD)

    def test_good(self):
        assert "wall-clock" not in _rules_hit(self.GOOD)

    def test_from_import_alias(self):
        src = "from time import perf_counter as pc\nx = pc()\n"
        assert "wall-clock" in _rules_hit(src)

    def test_datetime_now(self):
        src = "from datetime import datetime\nx = datetime.now()\n"
        assert "wall-clock" in _rules_hit(src)

    def test_allowlisted_timing_paths(self):
        # Only the report/runner progress timing is sanctioned by config.
        assert "wall-clock" not in _rules_hit(
            self.BAD, path="src/repro/experiments/report.py"
        )
        assert "wall-clock" in _rules_hit(self.BAD, path="src/repro/bench.py")


class TestUnseededRandomRule:
    BAD = "import random\nx = random.random()\n"
    GOOD = (
        "from repro.util.rng import make_rng\n"
        "rng = make_rng(7)\nx = rng.integers(10)\n"
    )

    def test_bad(self):
        assert "unseeded-random" in _rules_hit(self.BAD)

    def test_good(self):
        assert "unseeded-random" not in _rules_hit(self.GOOD)

    def test_numpy_global_state(self):
        src = "import numpy as np\nnp.random.seed(0)\nx = np.random.rand()\n"
        assert "unseeded-random" in _rules_hit(src)

    def test_seeded_default_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert "unseeded-random" not in _rules_hit(src)

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "unseeded-random" in _rules_hit(src)


class TestUnsortedIterationRule:
    BAD = "def f(items):\n    for x in set(items):\n        print(x)\n"
    GOOD = "def f(items):\n    for x in sorted(set(items)):\n        print(x)\n"

    def test_bad(self):
        assert "unsorted-iteration" in _rules_hit(self.BAD)

    def test_good(self):
        assert "unsorted-iteration" not in _rules_hit(self.GOOD)

    def test_comprehension_over_set_literal(self):
        src = "ys = [y for y in {3, 1, 2}]\n"
        assert "unsorted-iteration" in _rules_hit(src)

    def test_list_of_set_call(self):
        src = "def f(items):\n    return list(set(items))\n"
        assert "unsorted-iteration" in _rules_hit(src)

    def test_order_insensitive_consumers_ok(self):
        src = "def f(items):\n    return sum(set(items)) + len(set(items))\n"
        assert "unsorted-iteration" not in _rules_hit(src)


class TestFloatEqualityRule:
    BAD = "def eq(profit: float, other: float):\n    return profit == other\n"
    GOOD = (
        "import math\n\n"
        "def eq(profit: float, other: float):\n"
        "    return math.isclose(profit, other)\n"
    )

    def test_bad(self):
        assert "float-equality" in _rules_hit(self.BAD)

    def test_good(self):
        assert "float-equality" not in _rules_hit(self.GOOD)

    def test_float_literal(self):
        assert "float-equality" in _rules_hit("ok = (x == 0.5)\n")

    def test_inf_sentinel_exempt(self):
        src = (
            "def f(horizon: float):\n"
            "    return horizon == float('inf')\n"
        )
        assert "float-equality" not in _rules_hit(src)

    def test_ordering_comparison_ok(self):
        src = "def f(profit: float, other: float):\n    return profit > other\n"
        assert "float-equality" not in _rules_hit(src)


class TestMutableDefaultRule:
    BAD = "def f(acc=[]):\n    acc.append(1)\n    return acc\n"
    GOOD = (
        "def f(acc=None):\n"
        "    if acc is None:\n        acc = []\n"
        "    acc.append(1)\n    return acc\n"
    )

    def test_bad(self):
        assert "mutable-default" in _rules_hit(self.BAD)

    def test_good(self):
        assert "mutable-default" not in _rules_hit(self.GOOD)

    def test_dict_constructor_default(self):
        assert "mutable-default" in _rules_hit("def f(cfg=dict()):\n    return cfg\n")


class TestEnvReadRule:
    BAD = "import os\nmode = os.environ.get('REPRO_SELECTOR')\n"
    GOOD = (
        "from repro.config_env import selector_mode\n"
        "mode = selector_mode()\n"
    )

    def test_bad(self):
        assert "env-read" in _rules_hit(self.BAD)

    def test_good(self):
        assert "env-read" not in _rules_hit(self.GOOD)

    def test_getenv_and_subscript(self):
        assert "env-read" in _rules_hit("import os\nx = os.getenv('X')\n")
        assert "env-read" in _rules_hit("import os\nx = os.environ['X']\n")

    def test_from_import_alias(self):
        src = "from os import environ\nx = environ.get('X')\n"
        assert "env-read" in _rules_hit(src)

    def test_config_env_is_allowlisted(self):
        assert "env-read" not in _rules_hit(
            self.BAD, path="src/repro/config_env.py"
        )


class TestBlockingCallInAsyncRule:
    BAD = (
        "import time\n"
        "async def handler():\n"
        "    time.sleep(1)\n"
    )
    GOOD = (
        "import asyncio\n"
        "async def handler():\n"
        "    await asyncio.sleep(1)\n"
    )

    def test_bad(self):
        assert "blocking-call-in-async" in _rules_hit(self.BAD)

    def test_good(self):
        assert "blocking-call-in-async" not in _rules_hit(self.GOOD)

    def test_sync_file_io_flagged(self):
        src = (
            "async def handler():\n"
            "    with open('x') as fh:\n"
            "        return fh.read()\n"
        )
        assert "blocking-call-in-async" in _rules_hit(src)

    def test_blocking_socket_flagged(self):
        src = (
            "import socket\n"
            "async def handler():\n"
            "    socket.create_connection(('h', 1))\n"
        )
        assert "blocking-call-in-async" in _rules_hit(src)

    def test_sqlite_connect_flagged(self):
        src = (
            "import sqlite3\n"
            "async def handler(path):\n"
            "    return sqlite3.connect(path)\n"
        )
        assert "blocking-call-in-async" in _rules_hit(src)

    def test_to_thread_offload_is_clean(self):
        src = (
            "import asyncio\n"
            "async def handler(store, key):\n"
            "    return await asyncio.to_thread(store.get, key)\n"
        )
        assert "blocking-call-in-async" not in _rules_hit(src)

    def test_sync_code_untouched(self):
        src = "import time\ndef poll():\n    time.sleep(1)\n"
        assert "blocking-call-in-async" not in _rules_hit(src)

    def test_nested_sync_helper_exempt(self):
        src = (
            "import time\n"
            "async def handler():\n"
            "    def helper():\n"
            "        time.sleep(1)\n"
            "    return helper\n"
        )
        assert "blocking-call-in-async" not in _rules_hit(src)

    def test_suppression_comment(self):
        src = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)  # repro-lint: disable=blocking-call-in-async\n"
        )
        assert "blocking-call-in-async" not in _rules_hit(src)


class TestSuppressionAndConfig:
    def test_line_suppression(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=wall-clock\n"
        )
        assert "wall-clock" not in _rules_hit(src)

    def test_file_suppression(self):
        src = (
            "# repro-lint: disable-file=wall-clock\n"
            "import time\nt = time.time()\n"
        )
        assert "wall-clock" not in _rules_hit(src)

    def test_suppression_is_rule_specific(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=env-read\n"
        )
        assert "wall-clock" in _rules_hit(src)

    def test_severity_override_does_not_gate(self):
        from repro.analysis.lint import LintConfig, lint_source
        from repro.analysis.lint.core import LintReport

        findings = lint_source(
            TestWallClockRule.BAD,
            path="fixture.py",
            config=LintConfig(severity={"wall-clock": "warning"}),
        )
        assert [f.severity for f in findings] == ["warning"]
        report = LintReport(findings=findings, files_checked=1)
        assert report.ok

    def test_invalid_severity_rejected(self):
        from repro.analysis.lint import LintConfig

        with pytest.raises(ReproError):
            LintConfig(severity={"wall-clock": "fatal"})

    def test_syntax_error_is_a_finding(self):
        assert "syntax" in _rules_hit("def broken(:\n")


class TestInvariantCheckers:
    def test_shipped_tree_contracts_hold(self):
        import repro
        from pathlib import Path
        from repro.analysis.lint import run_invariants

        root = Path(repro.__file__).parent
        sources = {
            p.as_posix(): p.read_text(encoding="utf-8")
            for p in root.rglob("*.py")
        }
        assert run_invariants(sources) == []

    def test_signature_drift_detected(self):
        from repro.analysis.lint import run_invariants

        sources = {
            "core/selector.py": (
                "class ISESelector:\n"
                "    def _select_naive(self, triggers, controller, now):\n"
                "        pass\n"
                "    def _select_packed(self, triggers, controller):\n"
                "        pass\n"
            )
        }
        rules = {f.rule for f in run_invariants(sources)}
        assert "dual-impl-signature" in rules

    def test_missing_dual_impl_detected(self):
        from repro.analysis.lint import run_invariants

        # The engine pair is stepped|packed: a tree that kept some other
        # engine but lost the packed one breaks the contract.
        sources = {
            "sim/simulator.py": (
                "class Simulator:\n"
                "    def _run_kernels_stepped(self, iteration, t):\n"
                "        pass\n"
                "    def _run_kernels_event(self, iteration, t):\n"
                "        pass\n"
            )
        }
        findings = [
            f for f in run_invariants(sources) if f.rule == "dual-impl-signature"
        ]
        assert [f.message for f in findings if "_run_kernels_packed()" in f.message]

        sources["sim/simulator.py"] = sources["sim/simulator.py"].replace(
            "_run_kernels_event", "_run_kernels_packed"
        )
        assert not any(
            f.rule == "dual-impl-signature" for f in run_invariants(sources)
        )

    def test_payload_key_leak_detected(self):
        from repro.analysis.lint import run_invariants

        sources = {
            "sim/stats.py": (
                "class SimulationStats:\n"
                "    def to_payload(self):\n"
                "        return {'total_cycles': 1}\n"
                "    def selector_payload(self):\n"
                "        return {'total_cycles': 2}\n"
                "    def engine_payload(self):\n"
                "        return {'ecu_calls': 3}\n"
            )
        }
        findings = run_invariants(sources)
        assert any(
            f.rule == "golden-payload-exclusion" and "total_cycles" in f.message
            for f in findings
        )

    def test_cache_key_field_omission_detected(self):
        from repro.analysis.lint import run_invariants

        sources = {
            "experiments/engine.py": (
                "class SweepCell:\n"
                "    budget: tuple\n"
                "    seed: int\n"
                "    budget_params: tuple\n"
                "    def payload(self):\n"
                "        return {'budget': self.budget, 'seed': self.seed}\n"
                "def cell_key(cell):\n"
                "    return hashit(cell.payload())\n"
            )
        }
        findings = run_invariants(sources)
        messages = [f.message for f in findings if f.rule == "cache-key-fields"]
        assert any("budget_params" in m for m in messages)

    def test_results_schema_gap_detected(self):
        from repro.analysis.lint import run_invariants

        sources = {
            "experiments/engine.py": (
                "class SweepCell:\n"
                "    def payload(self):\n"
                "        payload = {'budget': self.budget, 'seed': self.seed}\n"
                "        payload['metrics'] = tuple(self.metrics)\n"
                "        return payload\n"
            ),
            "results/schema.py": "CELL_FIELDS = ('budget', 'seed')\n",
        }
        findings = run_invariants(sources)
        messages = [
            f.message for f in findings
            if f.rule == "results-schema-coverage"
        ]
        assert any("metrics" in m for m in messages)

    def test_results_schema_anchor_missing_detected(self):
        from repro.analysis.lint import run_invariants

        sources = {
            "experiments/engine.py": (
                "class SweepCell:\n"
                "    def payload(self):\n"
                "        return {'budget': self.budget}\n"
            ),
            "results/schema.py": "OTHER = ('budget',)\n",
        }
        rules = {f.rule for f in run_invariants(sources)}
        assert "results-schema-coverage" in rules

    def test_results_schema_coverage_clean(self):
        from repro.analysis.lint import run_invariants

        sources = {
            "experiments/engine.py": (
                "class SweepCell:\n"
                "    def payload(self):\n"
                "        payload = {'budget': self.budget, 'seed': self.seed}\n"
                "        payload['metrics'] = tuple(self.metrics)\n"
                "        return payload\n"
            ),
            "results/schema.py": (
                "CELL_FIELDS = ('budget', 'metrics', 'seed')\n"
            ),
        }
        rules = {f.rule for f in run_invariants(sources)}
        assert "results-schema-coverage" not in rules

    def test_out_of_scope_sources_skip_checkers(self):
        from repro.analysis.lint import run_invariants

        assert run_invariants({"somewhere/else.py": "x = 1\n"}) == []


class TestLintGate:
    def test_shipped_tree_is_clean(self, shipped_lint):
        report = shipped_lint
        assert report.findings == []
        assert report.ok
        assert report.files_checked > 100

    def test_report_payload_shape(self, shipped_lint):
        payload = shipped_lint.to_payload()
        assert payload["gate"] == "lint"
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert "wall-clock" in payload["rules"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out

        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(good)]) == 0

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n", encoding="utf-8")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"] == "lint"
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "mutable-default"

    def test_cli_rule_subset(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        assert main(["lint", "--rules", "env-read", str(bad)]) == 0
        assert main(["lint", "--rules", "wall-clock", str(bad)]) == 1
        capsys.readouterr()

    def test_cli_unknown_rule(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["lint", "--rules", "nope", str(tmp_path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_missing_path(self, capsys):
        from repro.cli import main

        assert main(["lint", "/nonexistent/lint/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_each_bad_fixture_fails_each_good_passes(self, tmp_path):
        from repro.cli import main

        fixtures = [
            (TestWallClockRule.BAD, TestWallClockRule.GOOD),
            (TestUnseededRandomRule.BAD, TestUnseededRandomRule.GOOD),
            (TestUnsortedIterationRule.BAD, TestUnsortedIterationRule.GOOD),
            (TestFloatEqualityRule.BAD, TestFloatEqualityRule.GOOD),
            (TestMutableDefaultRule.BAD, TestMutableDefaultRule.GOOD),
            (TestEnvReadRule.BAD, TestEnvReadRule.GOOD),
        ]
        for index, (bad, good) in enumerate(fixtures):
            bad_path = tmp_path / f"bad_{index}.py"
            bad_path.write_text(bad, encoding="utf-8")
            good_path = tmp_path / f"good_{index}.py"
            good_path.write_text(good, encoding="utf-8")
            assert main(["lint", str(bad_path)]) == 1, f"fixture {index}"
            assert main(["lint", str(good_path)]) == 0, f"fixture {index}"


class TestUnusedSuppression:
    def test_stale_suppression_is_a_warning(self):
        from repro.analysis.lint import lint_source

        src = "x = 1  # repro-lint: disable=wall-clock\n"
        [finding] = [
            f
            for f in lint_source(src, path="fixture.py")
            if f.rule == "unused-suppression"
        ]
        assert finding.severity == "warning"
        assert finding.line == 1
        assert "masks no finding" in finding.message

    def test_live_suppression_is_not_reported(self):
        from repro.analysis.lint import lint_source

        src = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=wall-clock\n"
        )
        rules = {f.rule for f in lint_source(src, path="fixture.py")}
        assert "unused-suppression" not in rules
        assert "wall-clock" not in rules

    def test_file_suppression_staleness(self):
        stale = "# repro-lint: disable-file=wall-clock\nx = 1\n"
        assert "unused-suppression" in _rules_hit(stale)
        live = (
            "# repro-lint: disable-file=wall-clock\n"
            "import time\nt = time.time()\n"
        )
        assert "unused-suppression" not in _rules_hit(live)

    def test_not_checked_under_rule_subset(self):
        from repro.analysis.lint import lint_source
        from repro.analysis.lint.rules import default_rules

        subset = [r for r in default_rules() if r.name == "env-read"]
        src = "x = 1  # repro-lint: disable=wall-clock\n"
        findings = lint_source(src, path="fixture.py", rules=subset)
        assert findings == []

    def test_docstring_example_is_not_a_comment(self):
        src = (
            'def helper():\n'
            '    """Use ``# repro-lint: disable=wall-clock`` inline."""\n'
            '    return 1\n'
        )
        assert "unused-suppression" not in _rules_hit(src)

    def test_fix_suppressions_cli(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "mod.py"
        target.write_text(
            "x = 1  # repro-lint: disable=wall-clock\n", encoding="utf-8"
        )
        assert main(["lint", "--fix-suppressions", str(target)]) == 0
        out = capsys.readouterr().out
        assert "1 stale suppression comment(s) to remove" in out
        assert f"{target.as_posix()}:1:" in out

    def test_fix_suppressions_rejects_rule_subset(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "mod.py"
        target.write_text("x = 1\n", encoding="utf-8")
        code = main(
            ["lint", "--fix-suppressions", "--rules", "wall-clock",
             str(target)]
        )
        assert code == 2
        assert "full rule set" in capsys.readouterr().err


class TestReexportResolution:
    SOURCES = {
        "fix/pkg/__init__.py": "",
        "fix/pkg/shim.py": "from time import time as hidden_time\n",
        "fix/pkg/use.py": (
            "from pkg.shim import hidden_time\n"
            "def stamp():\n"
            "    return hidden_time()\n"
        ),
    }

    def test_reexported_wall_clock_is_caught(self):
        from repro.analysis.lint import lint_source
        from repro.analysis.lint.core import build_export_map

        export_map = build_export_map(self.SOURCES)
        findings = lint_source(
            self.SOURCES["fix/pkg/use.py"],
            path="fix/pkg/use.py",
            export_map=export_map,
            module_name="pkg.use",
        )
        assert [(f.rule, f.line) for f in findings] == [("wall-clock", 3)]

    def test_without_export_map_the_alias_hides_it(self):
        from repro.analysis.lint import lint_source

        findings = lint_source(
            self.SOURCES["fix/pkg/use.py"], path="fix/pkg/use.py"
        )
        assert findings == []

    def test_chain_through_package_init(self):
        from repro.analysis.lint import lint_source
        from repro.analysis.lint.core import build_export_map

        sources = dict(self.SOURCES)
        sources["fix/pkg/__init__.py"] = (
            "from pkg.shim import hidden_time\n"
        )
        sources["fix/pkg/use.py"] = (
            "from pkg import hidden_time\n"
            "def stamp():\n"
            "    return hidden_time()\n"
        )
        export_map = build_export_map(sources)
        findings = lint_source(
            sources["fix/pkg/use.py"],
            path="fix/pkg/use.py",
            export_map=export_map,
            module_name="pkg.use",
        )
        assert {f.rule for f in findings} == {"wall-clock"}

    def test_run_lint_applies_the_map_end_to_end(self, tmp_path):
        from repro.analysis.lint import run_lint

        package = tmp_path / "pkg"
        package.mkdir()
        for path, source in self.SOURCES.items():
            (tmp_path / path.split("fix/", 1)[1]).write_text(
                source, encoding="utf-8"
            )
        report = run_lint(paths=[tmp_path], invariants=False)
        assert not report.ok
        assert any(
            f.rule == "wall-clock" and f.path.endswith("use.py")
            for f in report.findings
        )

    def test_module_name_for_path(self):
        from repro.analysis.lint.core import module_name_for_path

        known = set(self.SOURCES)
        assert (
            module_name_for_path("fix/pkg/use.py", known_paths=known)
            == "pkg.use"
        )
        assert (
            module_name_for_path("fix/pkg/__init__.py", known_paths=known)
            == "pkg"
        )
