"""Whole-program static analysis (``repro analyze``): the deep tier.

The per-file rules of :mod:`repro.analysis.lint` are the fast tier --
they catch a wall-clock read in the file that makes it.  This package is
the deep tier: it parses the whole shipped tree once, links it into a
module graph and an interprocedural call graph, and runs two engines on
that shared core:

* :mod:`repro.analysis.deep.taint` -- interprocedural nondeterminism
  taint analysis.  Taint is seeded at nondeterminism sources (wall-clock
  calls, unseeded RNG, ``os.environ`` reads, unordered ``set``
  construction and filesystem listings, ``id()``/``hash()`` ordering),
  propagated through assignments, calls and returns, and reported when
  it reaches a determinism sink -- ``payload()``/``to_payload()``
  methods, cache-key fingerprint functions, golden-trace writers,
  ``repro.results`` shard columns, and the ``encode_binary_frame`` /
  ``send_frame`` / ``write_frame`` wire boundaries -- with the full source-to-sink call
  path in every finding.
* :mod:`repro.analysis.deep.conformance` -- the frame-protocol
  conformance checker.  It extracts, per endpoint, the frame types
  actually sent (dict literals carrying a ``"type"`` key) and actually
  handled (dispatch comparisons on ``frame["type"]``), and verifies both
  against the declared channel table in :mod:`repro.service.frames` --
  the single source of truth the runtime dispatch imports too.

:mod:`repro.analysis.deep.modgraph` and
:mod:`repro.analysis.deep.callgraph` hold the shared core;
:mod:`repro.analysis.deep.report` drives both engines and renders the
``{"gate": "analyze", ...}`` payload the CLI and CI consume.  See the
"deep tier" section of ``docs/analysis.md``.
"""

from repro.analysis.deep.callgraph import CallEdge, CallGraph, FunctionInfo
from repro.analysis.deep.conformance import run_conformance
from repro.analysis.deep.modgraph import ModuleGraph
from repro.analysis.deep.report import (
    DeepReport,
    collect_sources,
    dump_callgraph,
    run_deep,
)
from repro.analysis.deep.taint import analyze_taint

__all__ = [
    "CallEdge",
    "CallGraph",
    "DeepReport",
    "FunctionInfo",
    "ModuleGraph",
    "analyze_taint",
    "collect_sources",
    "dump_callgraph",
    "run_conformance",
    "run_deep",
]
