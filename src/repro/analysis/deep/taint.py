"""Interprocedural nondeterminism taint analysis.

Five taint kinds, each a way a value can differ between two runs of the
same seed:

========== =========================================================
kind       seeded at
========== =========================================================
``wall-clock``      any call in ``WALL_CLOCK_CALLS`` (``time.time``, ...)
``env-read``        ``os.environ`` / ``os.getenv`` outside ``config_env``
``unseeded-random`` stdlib/numpy global-state RNG calls
``unordered``       ``set``/``frozenset`` construction, set literals and
                    comprehensions, unsorted filesystem listings
``id-hash``         ``id()`` and builtin ``hash()`` (PYTHONHASHSEED)
========== =========================================================

The analysis computes one *summary* per function -- which taint kinds
its return value can carry (with a witness call chain back to the
source) and which parameters flow to its return -- by iterating
intra-procedural evaluation over the call graph to a fixpoint.  The
kind/param lattice is finite and summaries only grow, so the fixpoint
terminates; witnesses record the *first* chain that produced each kind
and are never replaced, so chains stay finite under recursion.

Findings fire when taint reaches a determinism sink:

* **sink returns** -- functions whose return value must be
  deterministic: ``payload``/``to_payload``/``engine_payload``/
  ``golden_payload`` methods, cache-key functions (``cell_key``,
  ``_stable_hash``, anything ending in ``fingerprint``);
* **sink calls** -- callees whose arguments must be deterministic:
  the wire boundary (``encode_binary_frame``/``send_frame``/
  ``write_frame``),
  the golden-trace writer (``write_golden``) and the result store's
  row writer (``ResultWriter.append``).

Sanitizers mirror the determinism reasoning the code base relies on:
``sorted()`` launders ``unordered`` (order is re-established), ``len``/
``bool`` launder everything (a count carries no ordering or clock),
``in``-comparisons launder everything (membership is order-free), and a
subscript *key* launders ``id-hash`` (an ``id()``-keyed memo read does
not leak the id into the value).

The per-path allowlist of :mod:`repro.analysis.lint.config` applies at
the *source*: a wall-clock read in an allowlisted progress-reporting
file seeds no taint at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.deep.callgraph import CallGraph, FunctionInfo, iter_own_nodes
from repro.analysis.lint.core import FileContext, Finding
from repro.analysis.lint.rules import WALL_CLOCK_CALLS

#: Taint kind -> lint rule whose per-path allowlist exempts its sources.
KIND_ALLOW_RULE = {
    "wall-clock": "wall-clock",
    "env-read": "env-read",
    "unseeded-random": "unseeded-random",
    "unordered": "unsorted-iteration",
    "id-hash": "id-hash",
}

#: Function names whose *return value* is a determinism sink.
SINK_RETURN_NAMES = frozenset(
    {
        "payload",
        "to_payload",
        "engine_payload",
        "golden_payload",
        "cell_key",
        "_stable_hash",
    }
)

#: Callee qualnames whose *arguments* are a determinism sink.
SINK_CALL_QUALNAMES = frozenset(
    {"encode_binary_frame", "send_frame", "write_frame", "write_golden"}
)

#: Method sinks, matched by ``fid`` suffix (class-qualified).
SINK_CALL_METHOD_SUFFIXES = (":ResultWriter.append",)

#: ``sorted`` re-establishes order; aggregates are order-free.
_DROPS_UNORDERED = frozenset({"sorted", "min", "max", "sum", "any", "all"})
#: A count or truth value carries no nondeterminism of any kind.
_DROPS_ALL = frozenset({"len", "bool"})
#: Receiver-mutating methods: taint of the argument lands in the object.
_MUTATORS = frozenset(
    {"add", "append", "appendleft", "extend", "insert", "setdefault", "update"}
)
#: Unordered filesystem/directory listings, matched by attribute name.
_UNORDERED_ATTR_CALLS = frozenset({"glob", "iterdir", "rglob"})


@dataclass(frozen=True)
class Witness:
    """How one taint kind got somewhere: origin plus the call chain."""

    kind: str
    origin: str              #: ``<desc> at <path>:<line>``
    chain: Tuple[str, ...]   #: function hops, source-first

    def render(self) -> str:
        hops = " -> ".join(
            hop.split(":", 1)[-1].split(" ")[0] for hop in self.chain
        )
        return f"{self.kind} from {self.origin} via {hops}"


@dataclass
class Summary:
    """Converged facts about one function."""

    ret: Dict[str, Witness] = field(default_factory=dict)
    param_ret: Set[int] = field(default_factory=set)


def _merge(
    into: Dict[str, Witness], new: Dict[str, Witness]
) -> bool:
    changed = False
    for kind, witness in new.items():
        if kind not in into:
            into[kind] = witness
            changed = True
    return changed


class _Evaluator:
    """One intra-procedural pass over one function body."""

    def __init__(
        self,
        graph: CallGraph,
        func: FunctionInfo,
        summaries: Dict[str, Summary],
        config,
        collect: bool,
    ):
        self.graph = graph
        self.func = func
        self.summaries = summaries
        self.config = config
        self.collect = collect
        self.ctx: FileContext = graph.modgraph.context(func.module)
        self.env: Dict[str, Dict[str, Witness]] = {}
        self.penv: Dict[str, Set[int]] = {
            name: {index} for index, name in enumerate(func.params)
        }
        self.ret: Dict[str, Witness] = {}
        self.ret_params: Set[int] = set()
        self.findings: List[Finding] = []
        self.local_types = graph.local_constructor_types(func.fid)

    # ------------------------------------------------------------- driving
    def run(self) -> None:
        node = self.graph.function_node(self.func.fid)
        body = getattr(node, "body", [])
        # Two passes approximate loop-carried flows (x built in a loop
        # from a value only tainted later in the body).
        for _ in range(2):
            self._exec_block(body)

    # ---------------------------------------------------------- statements
    def _exec_block(self, stmts) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            state = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            state = self._eval(stmt.value)
            self._bind(stmt.target, state, augment=True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                kinds, params = self._eval(stmt.value)
                _merge(self.ret, kinds)
                self.ret_params |= params
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            state = self._eval(stmt.iter)
            self._bind(stmt.target, state)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                state = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, state)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _bind(self, target: ast.expr, state, augment: bool = False) -> None:
        kinds, params = state
        if isinstance(target, ast.Name):
            if augment:
                _merge(self.env.setdefault(target.id, {}), kinds)
                self.penv.setdefault(target.id, set()).update(params)
            else:
                self.env[target.id] = dict(kinds)
                self.penv[target.id] = set(params)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, state, augment=augment)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, state, augment=augment)
        elif isinstance(target, ast.Attribute):
            # self.x = v: remember the field, and taint the object.
            if isinstance(target.value, ast.Name):
                key = f"{target.value.id}.{target.attr}"
                _merge(self.env.setdefault(key, {}), kinds)
                self.penv.setdefault(key, set()).update(params)
                _merge(self.env.setdefault(target.value.id, {}), kinds)
        elif isinstance(target, ast.Subscript):
            # container[k] = v: container carries v's taint; an id() used
            # as the *key* stays in the key (memo-by-identity pattern).
            key_kinds, key_params = self._eval(target.slice)
            key_kinds = {
                kind: witness
                for kind, witness in key_kinds.items()
                if kind != "id-hash"
            }
            if isinstance(target.value, ast.Name):
                merged = dict(kinds)
                _merge(merged, key_kinds)
                _merge(self.env.setdefault(target.value.id, {}), merged)
                self.penv.setdefault(target.value.id, set()).update(
                    params | key_params
                )

    # --------------------------------------------------------- expressions
    def _eval(self, node: ast.expr) -> Tuple[Dict[str, Witness], Set[int]]:
        method = getattr(
            self, f"_eval_{type(node).__name__.lower()}", None
        )
        if method is not None:
            return method(node)
        # Default: union of child expressions.
        return self._eval_children(node)

    def _eval_children(self, node: ast.AST):
        kinds: Dict[str, Witness] = {}
        params: Set[int] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_kinds, child_params = self._eval(child)
                _merge(kinds, child_kinds)
                params |= child_params
            elif isinstance(child, ast.comprehension):
                iter_state = self._eval(child.iter)
                self._bind(child.target, iter_state)
                for condition in child.ifs:
                    self._eval(condition)
        return kinds, params

    def _source(self, kind: str, desc: str, node: ast.AST):
        rule = KIND_ALLOW_RULE[kind]
        if self.config.path_allowed(rule, self.func.path):
            return {}, set()
        origin = f"{desc} at {self.func.path}:{node.lineno}"
        witness = Witness(kind, origin, (self.func.fid,))
        return {kind: witness}, set()

    def _eval_name(self, node: ast.Name):
        kinds = dict(self.env.get(node.id, {}))
        params = set(self.penv.get(node.id, set()))
        dotted = self.ctx.dotted_name(node)
        if dotted == "os.environ":
            source_kinds, _ = self._source("env-read", "os.environ", node)
            _merge(kinds, source_kinds)
        return kinds, params

    def _eval_constant(self, node: ast.Constant):
        return {}, set()

    def _eval_lambda(self, node: ast.Lambda):
        return {}, set()

    def _eval_attribute(self, node: ast.Attribute):
        dotted = self.ctx.dotted_name(node)
        if dotted is not None and dotted.startswith("os.environ"):
            return self._source("env-read", dotted, node)
        kinds: Dict[str, Witness] = {}
        params: Set[int] = set()
        if isinstance(node.value, ast.Name):
            key = f"{node.value.id}.{node.attr}"
            _merge(kinds, self.env.get(key, {}))
            params |= self.penv.get(key, set())
        value_kinds, value_params = self._eval(node.value)
        _merge(kinds, value_kinds)
        return kinds, params | value_params

    def _eval_set(self, node: ast.Set):
        kinds, params = self._eval_children(node)
        source_kinds, _ = self._source("unordered", "set literal", node)
        _merge(kinds, source_kinds)
        return kinds, params

    def _eval_setcomp(self, node: ast.SetComp):
        kinds, params = self._eval_children(node)
        source_kinds, _ = self._source(
            "unordered", "set comprehension", node
        )
        _merge(kinds, source_kinds)
        return kinds, params

    def _eval_compare(self, node: ast.Compare):
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            # Membership is order-free; evaluate operands for sink
            # side effects only.
            self._eval_children(node)
            return {}, set()
        kinds, params = self._eval_children(node)
        kinds.pop("unordered", None)
        return kinds, params

    def _eval_subscript(self, node: ast.Subscript):
        value_kinds, value_params = self._eval(node.value)
        key_kinds, key_params = self._eval(node.slice)
        key_kinds = {
            kind: witness
            for kind, witness in key_kinds.items()
            if kind != "id-hash"
        }
        _merge(value_kinds, key_kinds)
        return value_kinds, value_params | key_params

    def _eval_call(self, node: ast.Call):
        arg_states = [self._eval(arg) for arg in node.args]
        keyword_states = [
            self._eval(keyword.value) for keyword in node.keywords
        ]
        all_states = arg_states + keyword_states
        dotted = self.ctx.dotted_name(node.func)

        union_kinds: Dict[str, Witness] = {}
        union_params: Set[int] = set()
        for state_kinds, state_params in all_states:
            _merge(union_kinds, state_kinds)
            union_params |= state_params

        # Sanitizing builtins.
        if dotted in _DROPS_ALL:
            return {}, set()
        if dotted in _DROPS_UNORDERED:
            cleaned = dict(union_kinds)
            cleaned.pop("unordered", None)
            return cleaned, union_params

        # Sources.
        source_kind = self._call_source_kind(dotted, node)
        if source_kind is not None:
            source_kinds, _ = self._source(
                source_kind, f"{dotted}()", node
            )
            _merge(source_kinds, union_kinds)
            return source_kinds, union_params

        # Receiver mutation: out.append(x) taints out.
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.attr in _MUTATORS
        ):
            name = node.func.value.id
            _merge(self.env.setdefault(name, {}), union_kinds)
            self.penv.setdefault(name, set()).update(union_params)

        # Interprocedural step: resolved callees contribute their
        # summaries; unresolved calls conservatively pass arguments
        # through.
        targets = [
            (fid, kind)
            for fid, kind in self.graph.resolve_call(
                self.func, node, self.local_types
            )
            if kind in ("direct", "method")
        ]
        if not targets:
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _UNORDERED_ATTR_CALLS
            ):
                source_kinds, _ = self._source(
                    "unordered", f".{node.func.attr}() listing", node
                )
                _merge(source_kinds, union_kinds)
                return source_kinds, union_params
            receiver_kinds, receiver_params = self._eval(node.func)
            _merge(union_kinds, receiver_kinds)
            return union_kinds, union_params | receiver_params

        result_kinds: Dict[str, Witness] = {}
        result_params: Set[int] = set()
        for fid, _edge_kind in targets:
            summary = self.summaries.get(fid)
            callee = self.graph.functions[fid]
            if self.collect:
                self._check_sink_call(fid, callee, node, all_states)
            if summary is None:
                continue
            hop = (
                f"{self.func.fid} "
                f"(call at {self.func.path}:{node.lineno})"
            )
            for kind, witness in summary.ret.items():
                if kind not in result_kinds:
                    result_kinds[kind] = Witness(
                        kind, witness.origin, witness.chain + (hop,)
                    )
            for index in summary.param_ret:
                state = self._argument_state(
                    callee, node, index, arg_states, keyword_states
                )
                if state is None:
                    continue
                passed_kinds, passed_params = state
                for kind, witness in passed_kinds.items():
                    if kind not in result_kinds:
                        result_kinds[kind] = Witness(
                            kind,
                            witness.origin,
                            witness.chain
                            + (f"{fid} (passes through)",),
                        )
                result_params |= passed_params
        return result_kinds, result_params

    def _argument_state(
        self, callee, node: ast.Call, index: int, arg_states, keyword_states
    ):
        """Taint state of the expression bound to callee parameter ``index``."""
        offset = index
        if callee.is_method and isinstance(node.func, ast.Attribute):
            if index == 0:
                # The receiver object itself.
                return self._eval(node.func.value)
            offset = index - 1
        if 0 <= offset < len(arg_states):
            return arg_states[offset]
        if index < len(callee.params):
            wanted = callee.params[index]
            for keyword, state in zip(node.keywords, keyword_states):
                if keyword.arg == wanted:
                    return state
        return None

    def _call_source_kind(
        self, dotted: Optional[str], node: ast.Call
    ) -> Optional[str]:
        if dotted is None:
            return None
        if dotted in WALL_CLOCK_CALLS:
            return "wall-clock"
        if dotted in ("os.getenv", "os.environ.get"):
            return "env-read"
        if dotted.startswith("random."):
            if dotted == "random.Random" and (node.args or node.keywords):
                return None
            return "unseeded-random"
        if dotted.startswith(("numpy.random.", "np.random.")):
            tail = dotted.split("random.", 1)[1]
            if tail in (
                "default_rng", "Generator", "SeedSequence", "RandomState"
            ) and (node.args or node.keywords):
                return None
            return "unseeded-random"
        if dotted in ("set", "frozenset"):
            return "unordered"
        if dotted in (
            "os.listdir", "os.scandir", "glob.glob", "glob.iglob"
        ):
            return "unordered"
        if dotted in ("id", "hash"):
            return "id-hash"
        return None

    # --------------------------------------------------------------- sinks
    def _check_sink_call(
        self, fid: str, callee, node: ast.Call, all_states
    ) -> None:
        is_sink = callee.qualname in SINK_CALL_QUALNAMES or any(
            fid.endswith(suffix) for suffix in SINK_CALL_METHOD_SUFFIXES
        )
        if not is_sink:
            return
        for state_kinds, _params in all_states:
            for kind, witness in sorted(state_kinds.items()):
                self.findings.append(
                    _taint_finding(
                        self.func.path,
                        node.lineno,
                        getattr(node, "col_offset", 0),
                        kind,
                        witness,
                        f"argument of sink {callee.qualname}()",
                    )
                )


def _taint_finding(
    path: str, line: int, col: int, kind: str, witness: Witness, sink: str
) -> Finding:
    return Finding(
        rule="nondet-flow",
        path=path,
        line=line,
        col=col,
        message=(
            f"{kind} value reaches {sink}: {witness.origin}; "
            f"path: {_render_chain(witness)}"
        ),
    )


def _render_chain(witness: Witness) -> str:
    hops = []
    for hop in witness.chain:
        name = hop.split(" ")[0]
        hops.append(name.split(":", 1)[-1])
    return " -> ".join(hops)


def is_sink_return(func: FunctionInfo) -> bool:
    name = func.name
    return name in SINK_RETURN_NAMES or name.endswith("fingerprint")


def analyze_taint(graph: CallGraph, config=None) -> List[Finding]:
    """Run the taint engine over a built call graph; returns findings."""
    from repro.analysis.lint.config import DEFAULT_CONFIG

    cfg = config if config is not None else DEFAULT_CONFIG
    summaries: Dict[str, Summary] = {
        fid: Summary() for fid in graph.functions
    }
    ordered = sorted(graph.functions)

    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for fid in ordered:
            evaluator = _Evaluator(
                graph, graph.functions[fid], summaries, cfg, collect=False
            )
            evaluator.run()
            summary = summaries[fid]
            if _merge(summary.ret, evaluator.ret):
                changed = True
            new_params = evaluator.ret_params - summary.param_ret
            if new_params:
                summary.param_ret |= new_params
                changed = True

    findings: List[Finding] = []
    for fid in ordered:
        func = graph.functions[fid]
        evaluator = _Evaluator(graph, func, summaries, cfg, collect=True)
        evaluator.run()
        findings.extend(evaluator.findings)
        if is_sink_return(func):
            for kind, witness in sorted(summaries[fid].ret.items()):
                findings.append(
                    _taint_finding(
                        func.path,
                        func.lineno,
                        0,
                        kind,
                        witness,
                        f"return of sink {func.qualname}()",
                    )
                )

    unique: Dict[Tuple[str, int, str, str], Finding] = {}
    for finding in findings:
        key = (finding.path, finding.line, finding.rule, finding.message)
        unique.setdefault(key, finding)
    result = list(unique.values())
    result.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return result


__all__ = [
    "KIND_ALLOW_RULE",
    "SINK_CALL_QUALNAMES",
    "SINK_RETURN_NAMES",
    "Summary",
    "Witness",
    "analyze_taint",
    "is_sink_return",
]
