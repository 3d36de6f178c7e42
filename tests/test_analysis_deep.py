"""Deep-tier static analysis: call graph, taint paths, protocol gate."""

import json
from pathlib import Path

import pytest

from repro.analysis.deep import (
    CallGraph,
    ModuleGraph,
    analyze_taint,
    dump_callgraph,
    run_conformance,
    run_deep,
)


def _graph(sources):
    return CallGraph(ModuleGraph(sources))


# --------------------------------------------------------- call-graph core


class TestCallGraphCore:
    def test_direct_call_resolution_through_aliases(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": "",
                "fix/pkg/a.py": "def helper():\n    return 1\n",
                "fix/pkg/b.py": (
                    "from pkg.a import helper as h\n"
                    "def caller():\n"
                    "    return h()\n"
                ),
            }
        )
        edges = {
            (e.caller, e.callee, e.kind) for e in graph.edges
        }
        assert ("pkg.b:caller", "pkg.a:helper", "direct") in edges

    def test_import_cycle_does_not_break_the_graph(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": "",
                "fix/pkg/a.py": (
                    "def ping(n):\n"
                    "    from pkg.b import pong\n"
                    "    return pong(n - 1) if n else 0\n"
                ),
                "fix/pkg/b.py": (
                    "from pkg.a import ping\n"
                    "def pong(n):\n"
                    "    return ping(n - 1) if n else 0\n"
                ),
            }
        )
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("pkg.b:pong", "pkg.a:ping") in edges
        # Recursion through the cycle also terminates the taint fixpoint.
        assert analyze_taint(graph) == []

    def test_subclass_method_resolution(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": "",
                "fix/pkg/base.py": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                    "    def step(self):\n"
                    "        return 0\n"
                ),
                "fix/pkg/sub.py": (
                    "from pkg.base import Base\n"
                    "class Sub(Base):\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
            }
        )
        callees = {
            e.callee
            for e in graph.edges
            if e.caller == "pkg.base:Base.run" and e.kind == "method"
        }
        # Both the base implementation and the override are possible.
        assert callees == {"pkg.base:Base.step", "pkg.sub:Sub.step"}

    def test_inherited_method_found_on_subclass_instance(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": "",
                "fix/pkg/base.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        return 0\n"
                ),
                "fix/pkg/use.py": (
                    "from pkg.base import Base\n"
                    "class Sub(Base):\n"
                    "    pass\n"
                    "def drive():\n"
                    "    s = Sub()\n"
                    "    return s.shared()\n"
                ),
            }
        )
        edges = {(e.caller, e.callee, e.kind) for e in graph.edges}
        assert (
            "pkg.use:drive", "pkg.base:Base.shared", "method"
        ) in edges

    def test_decorated_functions_are_nodes_with_decorators(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": "",
                "fix/pkg/deco.py": (
                    "import functools\n"
                    "@functools.lru_cache(maxsize=None)\n"
                    "def cached():\n"
                    "    return 7\n"
                    "def caller():\n"
                    "    return cached()\n"
                ),
            }
        )
        info = graph.functions["pkg.deco:cached"]
        assert "functools.lru_cache" in info.decorators
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("pkg.deco:caller", "pkg.deco:cached") in edges

    def test_reexport_through_package_init_resolves(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": (
                    "from pkg.impl import thing\n"
                    "__all__ = [\"thing\"]\n"
                ),
                "fix/pkg/impl.py": "def thing():\n    return 3\n",
                "fix/use.py": (
                    "from pkg import thing\n"
                    "def go():\n"
                    "    return thing()\n"
                ),
            }
        )
        edges = {(e.caller, e.callee, e.kind) for e in graph.edges}
        assert ("use:go", "pkg.impl:thing", "direct") in edges

    def test_may_alias_fallback_on_untyped_receiver(self):
        graph = _graph(
            {
                "fix/pkg/__init__.py": "",
                "fix/pkg/impls.py": (
                    "class A:\n"
                    "    def finalize(self):\n"
                    "        return 1\n"
                    "class B:\n"
                    "    def finalize(self):\n"
                    "        return 2\n"
                ),
                "fix/pkg/use.py": (
                    "def drive(obj):\n"
                    "    return obj.finalize()\n"
                ),
            }
        )
        callees = {
            e.callee
            for e in graph.edges
            if e.caller == "pkg.use:drive" and e.kind == "may-alias"
        }
        assert callees == {
            "pkg.impls:A.finalize",
            "pkg.impls:B.finalize",
        }

    def test_callgraph_dump_lists_edges(self):
        text = dump_callgraph(
            sources={
                "fix/pkg/__init__.py": "",
                "fix/pkg/a.py": (
                    "def f():\n"
                    "    return g()\n"
                    "def g():\n"
                    "    return 0\n"
                ),
            }
        )
        assert "pkg.a:f -> pkg.a:g [direct]" in text


# ------------------------------------------------------- taint: golden paths


#: The seeded regression of the acceptance criteria: a helper laundering
#: ``time.time()`` through two call hops into a ``payload()``.
LAUNDER_SOURCES = {
    "fix/pkg/__init__.py": "",
    "fix/pkg/clockmod.py": (
        "import time\n"
        "\n"
        "def read_clock():\n"
        "    return time.time()\n"
    ),
    "fix/pkg/mid.py": (
        "from pkg.clockmod import read_clock\n"
        "\n"
        "def stamp():\n"
        "    return read_clock()\n"
    ),
    "fix/pkg/cell.py": (
        "from pkg.mid import stamp\n"
        "\n"
        "class Cell:\n"
        "    def payload(self):\n"
        "        return {\"t\": stamp()}\n"
    ),
}


class TestTaintPaths:
    def test_two_hop_wall_clock_laundering_into_payload(self):
        report = run_deep(sources=LAUNDER_SOURCES, protocol=False)
        assert not report.ok
        [finding] = report.findings
        assert finding.rule == "nondet-flow"
        assert finding.path == "fix/pkg/cell.py"
        # The full source->sink call path, exactly.
        assert "time.time() at fix/pkg/clockmod.py:4" in finding.message
        assert "read_clock -> stamp -> Cell.payload" in finding.message

    def test_env_read_through_helper_into_fingerprint(self):
        report = run_deep(
            sources={
                "fix/pkg/__init__.py": "",
                "fix/pkg/env.py": (
                    "import os\n"
                    "def tag():\n"
                    "    return os.environ.get(\"HOSTNAME\", \"\")\n"
                ),
                "fix/pkg/keys.py": (
                    "from pkg.env import tag\n"
                    "def cache_fingerprint():\n"
                    "    return \"v1-\" + tag()\n"
                ),
            },
            protocol=False,
        )
        assert not report.ok
        [finding] = report.findings
        assert "env-read" in finding.message
        assert "tag -> cache_fingerprint" in finding.message

    def test_unordered_set_reaches_wire_sink_and_sorted_launders(self):
        tainted = {
            "fix/pkg/__init__.py": "",
            "fix/pkg/wire.py": (
                "def write_frame(sock, frame):\n"
                "    return frame\n"
                "def send(sock, names):\n"
                "    bag = set(names)\n"
                "    write_frame(sock, {\"names\": list(bag)})\n"
            ),
        }
        report = run_deep(sources=tainted, protocol=False)
        assert not report.ok
        assert any(
            "unordered" in f.message and "write_frame" in f.message
            for f in report.findings
        )
        clean = dict(tainted)
        clean["fix/pkg/wire.py"] = tainted["fix/pkg/wire.py"].replace(
            "list(bag)", "sorted(bag)"
        )
        assert run_deep(sources=clean, protocol=False).ok

    def test_id_keyed_memo_read_is_not_a_finding(self):
        report = run_deep(
            sources={
                "fix/pkg/__init__.py": "",
                "fix/pkg/memo.py": (
                    "_MEMO = {}\n"
                    "def payload(obj):\n"
                    "    key = id(obj)\n"
                    "    if key not in _MEMO:\n"
                    "        _MEMO[key] = {\"n\": 1}\n"
                    "    return _MEMO[key]\n"
                ),
            },
            protocol=False,
        )
        assert report.ok

    def test_analyze_suppression_comment_is_honoured(self):
        sources = dict(LAUNDER_SOURCES)
        sources["fix/pkg/cell.py"] = (
            "from pkg.mid import stamp\n"
            "\n"
            "class Cell:\n"
            "    def payload(self):  # repro-analyze: disable=nondet-flow\n"
            "        return {\"t\": stamp()}\n"
        )
        assert run_deep(sources=sources, protocol=False).ok


# -------------------------------------------------- protocol conformance


def _real_sources():
    from repro.analysis.deep import collect_sources

    return collect_sources()


class TestProtocolConformance:
    def test_shipped_endpoints_conform(self):
        findings, table = run_conformance(_real_sources())
        assert findings == []
        worker = table["endpoints"]["worker"]
        assert worker["sends"] == worker["declared_outgoing"]
        assert worker["handles"] == worker["declared_incoming"]

    def test_deleting_cache_hit_handler_turns_gate_red(self):
        # The second seeded regression of the acceptance criteria.
        sources = _real_sources()
        [client_path] = [
            p for p in sources if p.endswith("repro/service/client.py")
        ]
        broken = sources[client_path].replace(
            '        if ftype == CACHE_HIT:\n'
            '            record = frame.get("record")\n'
            '            return record if isinstance(record, dict) '
            'else None\n',
            "",
        )
        assert broken != sources[client_path]
        sources[client_path] = broken
        report = run_deep(sources=sources, taint=False)
        assert not report.ok
        assert any(
            "'client'" in f.message and "'cache_hit'" in f.message
            for f in report.findings
        )

    def test_sending_undeclared_type_is_reported(self):
        sources = _real_sources()
        [worker_path] = [
            p
            for p in sources
            if p.endswith("experiments/backends/worker.py")
        ]
        sources[worker_path] += (
            "\n\ndef rogue(sock):\n"
            "    send_frame(sock, {\"type\": \"job_done\"})\n"
        )
        findings, _table = run_conformance(sources)
        assert any(
            "'worker' sends 'job_done'" in f.message for f in findings
        )

    def test_unknown_frame_type_is_reported(self):
        sources = _real_sources()
        [worker_path] = [
            p
            for p in sources
            if p.endswith("experiments/backends/worker.py")
        ]
        sources[worker_path] += (
            "\n\ndef rogue(sock):\n"
            "    send_frame(sock, {\"type\": \"telemetry\"})\n"
        )
        findings, _table = run_conformance(sources)
        assert any(
            "unknown frame type 'telemetry'" in f.message
            for f in findings
        )

    def test_pairings_are_realizable_on_declared_channels(self):
        _findings, table = run_conformance(_real_sources())
        assert table["pairings"]["cache_get"] == ["cache_hit", "cache_miss"]
        assert table["pairings"]["job"] == ["job_accepted", "reject"]


# ------------------------------------------------------- tree self-checks


class TestShippedTree:
    def test_full_tree_is_self_clean(self, shipped_deep):
        report, _ = shipped_deep
        assert report.findings == []
        assert report.ok
        assert report.stats["functions"] > 500
        assert report.stats["call_edges"] > 1000

    def test_timing_budget_under_30s(self, shipped_deep):
        _, elapsed = shipped_deep
        assert elapsed < 30.0, f"deep tier took {elapsed:.1f}s (budget 30s)"


# ------------------------------------------------------------------- CLI


class TestAnalyzeCli:
    def test_self_clean_exit_zero_and_json_shape(self, tmp_path, capsys,
                                                 shipped_deep):
        from repro.cli import main

        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "ok.py").write_text(
            "def f():\n    return 1\n", encoding="utf-8"
        )
        assert main(["analyze", "--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"] == "analyze"
        assert payload["ok"] is True
        # The shipped tree's own payload, through the same JSON encoding.
        shipped = json.loads(
            json.dumps(shipped_deep[0].to_payload(), indent=2, sort_keys=True)
        )
        assert shipped["gate"] == "analyze"
        assert shipped["ok"] is True
        assert shipped["engines"] == ["taint", "protocol"]
        assert shipped["protocol"]["endpoints"]["client"]["handles"]

    def test_tainted_fixture_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "bad.py").write_text(
            "import time\n"
            "def to_payload():\n"
            "    return {\"t\": time.time()}\n",
            encoding="utf-8",
        )
        assert main(["analyze", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "nondet-flow" in out
        assert "to_payload" in out

    def test_callgraph_dump(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "m.py").write_text(
            "def f():\n    return g()\ndef g():\n    return 0\n",
            encoding="utf-8",
        )
        assert main(["analyze", "--callgraph", str(tmp_path)]) == 0
        assert "m:f -> m:g [direct]" in capsys.readouterr().out

    def test_engine_toggles(self, tmp_path, capsys):
        import repro
        from repro.cli import main
        from repro.service.frames import ENDPOINT_PATHS

        # The protocol engine runs on a tree holding the frame endpoints:
        # copies of the shipped ones, not the whole shipped tree.
        shipped = Path(repro.__file__).parent
        for suffixes in ENDPOINT_PATHS.values():
            for suffix in suffixes:
                target = tmp_path / "repro" / suffix
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(
                    (shipped / suffix).read_text(encoding="utf-8"),
                    encoding="utf-8",
                )
        assert main(
            ["analyze", "--no-taint", "--format", "json", str(tmp_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == ["protocol"]

    def test_missing_path_exits_two(self, capsys):
        from repro.cli import main

        assert main(["analyze", "/nonexistent/deep/path"]) == 2
        assert "error" in capsys.readouterr().err
