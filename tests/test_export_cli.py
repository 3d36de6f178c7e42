"""The export layer and the command-line interface."""

import csv
import json

import pytest

from repro.experiments import run_fig1, run_fig2, run_search_space
from repro.experiments.export import export_csv, export_json, figure_records
from repro.util.validation import ReproError
from repro.cli import build_parser, main
from repro.config_env import CACHE_DIR_ENV


class TestFigureRecords:
    def test_fig1_records(self):
        headers, rows = figure_records(run_fig1(max_executions=1000, points=5))
        assert headers[0] == "executions"
        assert len(rows) == 5

    def test_fig2_records(self):
        headers, rows = figure_records(run_fig2(frames=4, seed=0))
        assert headers == ["frame", "executions", "best_ise"]
        assert len(rows) == 4

    def test_search_space_records(self):
        headers, rows = figure_records(run_search_space())
        assert ["<combinations>", pytest.approx(885735, rel=1)] or rows

    def test_unknown_type_raises(self):
        with pytest.raises(ReproError):
            figure_records(object())


class TestExportFiles:
    def test_csv_roundtrip(self, tmp_path):
        result = run_fig2(frames=4, seed=0)
        path = export_csv(result, tmp_path / "fig2.csv")
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["frame", "executions", "best_ise"]
        assert len(rows) == 5

    def test_json_roundtrip(self, tmp_path):
        result = run_fig2(frames=4, seed=0)
        path = export_json(result, tmp_path / "fig2.json")
        records = json.loads(path.read_text())
        assert len(records) == 4
        assert set(records[0]) == {"frame", "executions", "best_ise"}

    def test_creates_parent_directories(self, tmp_path):
        result = run_fig1(max_executions=500, points=3)
        path = export_csv(result, tmp_path / "deep" / "dir" / "fig1.csv")
        assert path.exists()


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--policy", "mrts"])
        assert args.command == "run"
        for command in ("compare", "library", "case-study", "experiments"):
            parser.parse_args([command] + (["--fast"] if command == "experiments" else []))

    def test_run_command(self, capsys):
        assert main(["run", "--frames", "1", "--cg", "1", "--prc", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_run_with_trace(self, capsys):
        assert main(["run", "--frames", "1", "--cg", "1", "--prc", "1", "--trace"]) == 0
        assert "Run summary" in capsys.readouterr().out

    def test_library_command_jpeg(self, capsys):
        assert main(["library", "--workload", "jpeg", "--cg", "1", "--prc", "1"]) == 0
        out = capsys.readouterr().out
        assert "jpeg.entropy" in out

    def test_case_study_command(self, capsys):
        assert main(["case-study", "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "Fig. 2" in out

    def test_export_command(self, tmp_path, capsys, monkeypatch):
        # fig2 simulates, so its cells go to the default cell cache.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        code = main(
            ["export", "fig2", "--out", str(tmp_path), "--format", "json"]
        )
        assert code == 0
        assert (tmp_path / "fig2.json").exists()

    def test_export_runs_on_the_engine_flags(self, tmp_path, capsys):
        """Every simulating experiment runs its cells on the engine the
        flags describe: a non-grid one leaves its records in --cache-dir,
        and the same export again is served from them."""
        from repro.experiments.engine import cache_stats

        cache = tmp_path / "cache"
        argv = ["export", "overhead", "--frames", "2", "--cache-dir", str(cache),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        records = cache_stats(cache)["records"]
        assert records > 0
        first = (tmp_path / "out" / "overhead.csv").read_text()
        assert main(argv) == 0
        assert cache_stats(cache)["records"] == records
        assert (tmp_path / "out" / "overhead.csv").read_text() == first

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "nonsense"])
        # An unknown subcommand is a usage error (exit 2).
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench"])
        assert exit_info.value.code == 2


class TestMarkdownReport:
    def test_report_writer(self, tmp_path, monkeypatch):
        """The dossier writer runs the report's experiment list, then the
        claims table over its results (exercised with two fast experiments
        to keep the test quick)."""
        import repro.experiments.report as report
        from repro.experiments import run_fig1, run_fig2, runner

        monkeypatch.setattr(
            runner,
            "EXPERIMENTS",
            [
                ("fig1", "Fig. 1", lambda fast, engine: run_fig1(points=5)),
                ("fig2", "Fig. 2",
                 lambda fast, engine: run_fig2(frames=4, engine=engine)),
            ],
        )
        path = report.write_markdown_report(tmp_path / "dossier.md", fast=True)
        text = path.read_text()
        assert "# mRTS reproduction" in text
        assert "## Fig. 1" in text and "## Fig. 2" in text
        assert "```text" in text
        assert "## The paper's claims" in text
        assert "| `fig1.region-order` | Fig. 1 | - | " in text
        # The claims-only experiments always run; claims over experiments
        # the dossier did not run are left out.
        assert "| `jpeg.big-mixed` | ext. |" in text
        assert "fig8." not in text
