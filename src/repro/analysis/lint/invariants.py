"""Project-level invariant checkers (the contract half of the linter).

Unlike the single-file determinism rules, these cross-check *pairs* of
declarations that must stay in lockstep for the repo's A/B identities to
hold:

* ``dual-impl-signature`` -- the naive and packed selector cores, and
  the stepped and packed simulator engines, must keep
  identical call signatures (one drifting silently breaks
  ``REPRO_SELECTOR`` / ``REPRO_SIM`` interchangeability), and the
  dual-entry methods (``RuntimePolicy.execute`` / ``execute_run``) must
  both exist;
* ``golden-payload-exclusion`` -- every key emitted by
  ``SimulationStats.selector_payload`` / ``engine_payload`` (how the
  *reproduction* computed the run) must stay out of ``to_payload`` (what
  the *modelled hardware* did), or golden traces start depending on the
  implementation choice;
* ``cache-key-fields`` -- every declared ``SweepCell`` override field must
  flow into the cache key: referenced by ``SweepCell.payload`` and carried
  into the ``library_fingerprint`` call inside ``cell_key``;
* ``backend-run-signature`` -- every registered executor backend's
  ``run()`` must keep the serial backend's arguments as a prefix, so the
  engine can route any grid through any backend unchanged;
* ``engine-stats-exclusion`` -- every key of
  ``EngineStats.engine_payload`` (how the *sweep* was executed) must stay
  out of ``SimulationStats.to_payload`` (what the modelled hardware did),
  or golden traces start depending on the executor backend;
* ``results-schema-coverage`` -- every field that ``SweepCell.payload``
  can emit must appear in the columnar store's ``CELL_FIELDS`` schema
  tuple, or ``ResultWriter`` starts rejecting (or silently dropping)
  cell coordinates that the engine actually produces.

Each checker targets a file by trailing path (e.g. ``sim/stats.py``), so
the same pass works on the shipped tree and on synthetic fixtures in
tests.  A checker that cannot find its anchors reports that as a finding
-- a contract that silently stops being checked is itself a regression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.core import INVARIANT_RULE_NAMES, FileContext, Finding

#: (file suffix, scope class or None, implementation A, implementation B,
#: mode).  ``exact`` pairs are drop-in interchangeable and must match
#: argument-for-argument; in ``extends`` pairs B is the batched form of A
#: and must keep A's arguments as a prefix (so every call site of A can be
#: routed through B).
DUAL_IMPLEMENTATIONS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("core/selector.py", "ISESelector", "_select_naive", "_select_packed",
     "exact"),
    ("sim/simulator.py", "Simulator", "_run_kernels_stepped",
     "_run_kernels_packed", "exact"),
    ("sim/policy.py", "RuntimePolicy", "execute", "execute_run", "extends"),
)

#: Methods of SimulationStats whose dict keys must avoid to_payload's.
PAYLOAD_EXCLUSIONS: Tuple[str, ...] = ("selector_payload", "engine_payload")

#: SweepCell fields that must reach both payload() and the fingerprint.
FINGERPRINT_FIELDS: Tuple[str, ...] = (
    "workload",
    "budget",
    "workload_params",
    "budget_params",
)


def _module_for(
    sources: Dict[str, str], suffix: str
) -> Optional[FileContext]:
    for path in sorted(sources):
        if path.replace("\\", "/").endswith(suffix):
            try:
                tree = ast.parse(sources[path])
            except SyntaxError:
                return None
            return FileContext(path, sources[path], tree)
    return None


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_function(scope: ast.AST, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _signature_of(fn: ast.FunctionDef) -> Tuple:
    """The comparable shape of a function: ordered argument names per kind
    (annotations and defaults excluded -- names and arity are the contract)."""
    args = fn.args
    return (
        tuple(a.arg for a in getattr(args, "posonlyargs", [])),
        tuple(a.arg for a in args.args),
        args.vararg.arg if args.vararg else None,
        tuple(a.arg for a in args.kwonlyargs),
        args.kwarg.arg if args.kwarg else None,
    )


def _finding(
    rule: str, ctx: Optional[FileContext], node: Optional[ast.AST],
    message: str, fallback_path: str = "<project>",
) -> Finding:
    return Finding(
        rule=rule,
        path=ctx.path if ctx is not None else fallback_path,
        line=getattr(node, "lineno", 1) if node is not None else 1,
        col=getattr(node, "col_offset", 0) if node is not None else 0,
        message=message,
    )


# ------------------------------------------------------ dual signatures


def _extends(sig_a: Tuple, sig_b: Tuple) -> bool:
    """True when B keeps A's positional arguments as a prefix."""
    args_a = [*sig_a[0], *sig_a[1]]
    args_b = [*sig_b[0], *sig_b[1]]
    return args_b[: len(args_a)] == args_a


def check_dual_signatures(sources: Dict[str, str]) -> Iterable[Finding]:
    rule = "dual-impl-signature"
    for suffix, class_name, impl_a, impl_b, mode in DUAL_IMPLEMENTATIONS:
        ctx = _module_for(sources, suffix)
        if ctx is None:
            continue  # file not part of this lint scope
        scope: ast.AST = ctx.tree
        if class_name is not None:
            scope = _find_class(ctx.tree, class_name)
            if scope is None:
                yield _finding(
                    rule, ctx, None,
                    f"class {class_name} not found; the "
                    f"{impl_a}/{impl_b} signature contract cannot be checked",
                )
                continue
        fn_a = _find_function(scope, impl_a)
        fn_b = _find_function(scope, impl_b)
        if fn_a is None or fn_b is None:
            missing = impl_a if fn_a is None else impl_b
            yield _finding(
                rule, ctx, scope if isinstance(scope, ast.AST) else None,
                f"dual implementation {missing}() is missing from "
                f"{class_name or ctx.path}; the A/B pair must keep both",
            )
            continue
        sig_a, sig_b = _signature_of(fn_a), _signature_of(fn_b)
        if mode == "exact":
            compatible = sig_a == sig_b
            requirement = "interchangeable implementations must share one signature"
        else:
            compatible = _extends(sig_a, sig_b)
            requirement = (
                f"the batched form must keep {impl_a}'s arguments as a prefix"
            )
        if not compatible:
            yield _finding(
                rule, ctx, fn_b,
                f"{impl_a}{_render(sig_a)} and "
                f"{impl_b}{_render(sig_b)} have drifted apart; {requirement}",
            )


def _render(signature: Tuple) -> str:
    posonly, args, vararg, kwonly, kwarg = signature
    parts = [*posonly, *args]
    if vararg:
        parts.append(f"*{vararg}")
    elif kwonly:
        parts.append("*")
    parts.extend(kwonly)
    if kwarg:
        parts.append(f"**{kwarg}")
    return "(" + ", ".join(parts) + ")"


# ------------------------------------------------- golden payload exclusion


def _dict_keys_returned(fn: ast.FunctionDef) -> Set[str]:
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return keys


def check_payload_exclusion(sources: Dict[str, str]) -> Iterable[Finding]:
    rule = "golden-payload-exclusion"
    ctx = _module_for(sources, "sim/stats.py")
    if ctx is None:
        return
    stats_class = _find_class(ctx.tree, "SimulationStats")
    if stats_class is None:
        yield _finding(
            rule, ctx, None,
            "class SimulationStats not found; golden-payload key exclusion "
            "cannot be checked",
        )
        return
    to_payload = _find_function(stats_class, "to_payload")
    if to_payload is None:
        yield _finding(
            rule, ctx, stats_class,
            "SimulationStats.to_payload missing; golden snapshots have no "
            "stats payload to protect",
        )
        return
    golden_keys = _dict_keys_returned(to_payload)
    for method_name in PAYLOAD_EXCLUSIONS:
        method = _find_function(stats_class, method_name)
        if method is None:
            yield _finding(
                rule, ctx, stats_class,
                f"SimulationStats.{method_name} missing; the "
                "implementation-observability counters must stay in their "
                "own payload",
            )
            continue
        overlap = sorted(_dict_keys_returned(method) & golden_keys)
        if overlap:
            yield _finding(
                rule, ctx, method,
                f"{method_name} keys {overlap} also appear in to_payload; "
                "implementation counters must never enter golden payloads",
            )


# --------------------------------------------------- backend run signatures


def check_backend_run_signatures(sources: Dict[str, str]) -> Iterable[Finding]:
    rule = "backend-run-signature"
    backend_paths = sorted(
        path for path in sources
        if "experiments/backends/" in path.replace("\\", "/")
        and path.replace("\\", "/").endswith(".py")
    )
    if not backend_paths:
        return  # backends not part of this lint scope
    serial_ctx = _module_for(sources, "experiments/backends/serial.py")
    serial_run = None
    if serial_ctx is not None:
        serial_class = _find_class(serial_ctx.tree, "SerialBackend")
        if serial_class is not None:
            serial_run = _find_function(serial_class, "run")
    if serial_run is None:
        yield _finding(
            rule, serial_ctx, None,
            "SerialBackend.run not found; the backend run() signature "
            "contract has no reference to check against",
            fallback_path=backend_paths[0],
        )
        return
    reference = _signature_of(serial_run)
    for path in backend_paths:
        try:
            tree = ast.parse(sources[path])
        except SyntaxError:
            continue  # the determinism rules already report unparsable files
        ctx = FileContext(path, sources[path], tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Backend")
            ):
                continue
            run_fn = _find_function(node, "run")
            if run_fn is None:
                continue  # abstract carriers without run() are fine
            signature = _signature_of(run_fn)
            if not _extends(reference, signature):
                yield _finding(
                    rule, ctx, run_fn,
                    f"{node.name}.run{_render(signature)} does not keep "
                    f"SerialBackend.run{_render(reference)}'s arguments as "
                    "a prefix; the engine must be able to route any grid "
                    "through any registered backend",
                )


# ----------------------------------------------------- engine stats exclusion


def check_engine_stats_exclusion(sources: Dict[str, str]) -> Iterable[Finding]:
    rule = "engine-stats-exclusion"
    engine_ctx = _module_for(sources, "experiments/engine.py")
    stats_ctx = _module_for(sources, "sim/stats.py")
    if engine_ctx is None or stats_ctx is None:
        return  # the pair is only checkable with both halves in scope
    stats_class = _find_class(stats_ctx.tree, "SimulationStats")
    to_payload = (
        _find_function(stats_class, "to_payload")
        if stats_class is not None else None
    )
    if to_payload is None:
        return  # golden-payload-exclusion already reports the broken anchor
    golden_keys = _dict_keys_returned(to_payload)
    engine_stats = _find_class(engine_ctx.tree, "EngineStats")
    if engine_stats is None:
        yield _finding(
            rule, engine_ctx, None,
            "class EngineStats not found; the engine counters have no "
            "payload to keep out of golden records",
        )
        return
    engine_payload = _find_function(engine_stats, "engine_payload")
    if engine_payload is None:
        yield _finding(
            rule, engine_ctx, engine_stats,
            "EngineStats.engine_payload missing; the sweep-executor "
            "counters must stay in their own payload",
        )
        return
    overlap = sorted(_dict_keys_returned(engine_payload) & golden_keys)
    if overlap:
        yield _finding(
            rule, engine_ctx, engine_payload,
            f"EngineStats.engine_payload keys {overlap} also appear in "
            "SimulationStats.to_payload; executor observability must never "
            "enter golden payloads",
        )


# ------------------------------------------------------ cache key coverage


def _dataclass_fields(cls: ast.ClassDef) -> List[str]:
    fields = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            fields.append(node.target.id)
    return fields


def _self_attrs(fn: ast.FunctionDef, receiver: str) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == receiver
        ):
            attrs.add(node.attr)
    return attrs


def check_cache_key_fields(sources: Dict[str, str]) -> Iterable[Finding]:
    rule = "cache-key-fields"
    ctx = _module_for(sources, "experiments/engine.py")
    if ctx is None:
        return
    cell_class = _find_class(ctx.tree, "SweepCell")
    if cell_class is None:
        yield _finding(
            rule, ctx, None,
            "class SweepCell not found; cache-key field coverage cannot be "
            "checked",
        )
        return
    fields = _dataclass_fields(cell_class)
    payload_fn = _find_function(cell_class, "payload")
    if payload_fn is None:
        yield _finding(
            rule, ctx, cell_class,
            "SweepCell.payload missing; cells cannot be content-addressed",
        )
    else:
        referenced = _self_attrs(payload_fn, "self")
        for name in fields:
            if name not in referenced:
                yield _finding(
                    rule, ctx, payload_fn,
                    f"SweepCell field {name!r} never reaches payload(); a "
                    "declared override that stays out of the cache key "
                    "serves stale records",
                )
    cell_key_fn = _find_function(ctx.tree, "cell_key")
    if cell_key_fn is None:
        yield _finding(
            rule, ctx, None,
            "cell_key() not found in experiments/engine.py; cells cannot be "
            "content-addressed",
        )
        return
    fingerprint_attrs: Set[str] = set()
    for node in ast.walk(cell_key_fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "library_fingerprint"
        ):
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                ):
                    fingerprint_attrs.add(arg.attr)
    missing = [f for f in FINGERPRINT_FIELDS if f not in fingerprint_attrs]
    if missing:
        yield _finding(
            rule, ctx, cell_key_fn,
            f"cell_key()'s library_fingerprint call omits {missing}; the "
            "fingerprint must see every field that changes the library",
        )


# --------------------------------------------------- results schema coverage


def _payload_keys(fn: ast.FunctionDef) -> Set[str]:
    """Every constant string key ``payload()`` can emit.

    Covers both construction forms the method uses: string keys of dict
    literals, and ``<name>["key"] = ...`` subscript assignments (the
    conditional fields added after the literal).
    """
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _module_tuple(tree: ast.Module, name: str) -> Optional[Set[str]]:
    """String elements of a module-level ``NAME = ("a", "b", ...)`` assign."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, (ast.Tuple, ast.List)):
                    elements = set()
                    for element in value.elts:
                        if (
                            isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        ):
                            elements.add(element.value)
                    return elements
                return None
    return None


def check_results_schema_coverage(
    sources: Dict[str, str],
) -> Iterable[Finding]:
    rule = "results-schema-coverage"
    engine_ctx = _module_for(sources, "experiments/engine.py")
    schema_ctx = _module_for(sources, "results/schema.py")
    if engine_ctx is None or schema_ctx is None:
        return  # the pair is only checkable with both halves in scope
    cell_class = _find_class(engine_ctx.tree, "SweepCell")
    payload_fn = (
        _find_function(cell_class, "payload")
        if cell_class is not None else None
    )
    if payload_fn is None:
        return  # cache-key-fields already reports the broken anchor
    schema_fields = _module_tuple(schema_ctx.tree, "CELL_FIELDS")
    if schema_fields is None:
        yield _finding(
            rule, schema_ctx, None,
            "CELL_FIELDS tuple of string constants not found in "
            "results/schema.py; the columnar cell schema has no declared "
            "column set to check payload() against",
        )
        return
    uncovered = sorted(_payload_keys(payload_fn) - schema_fields)
    if uncovered:
        yield _finding(
            rule, schema_ctx, None,
            f"SweepCell.payload can emit {uncovered} but CELL_FIELDS does "
            "not list them; ResultWriter would reject cells the engine "
            "actually produces",
        )


# ------------------------------------------------------------------ driver

_CHECKERS = (
    check_dual_signatures,
    check_payload_exclusion,
    check_cache_key_fields,
    check_backend_run_signatures,
    check_engine_stats_exclusion,
    check_results_schema_coverage,
)

INVARIANT_RULE_NAMES[:] = [
    "dual-impl-signature",
    "golden-payload-exclusion",
    "cache-key-fields",
    "backend-run-signature",
    "engine-stats-exclusion",
    "results-schema-coverage",
]


def run_invariants(sources: Dict[str, str], config=None) -> List[Finding]:
    """Run every invariant checker over ``sources`` (path -> source text).

    Checkers whose anchor files are outside the lint scope are skipped --
    linting a fixture directory must not fail for lacking ``sim/stats.py``.
    """
    from repro.analysis.lint.config import DEFAULT_CONFIG

    cfg = config if config is not None else DEFAULT_CONFIG
    findings: List[Finding] = []
    for checker in _CHECKERS:
        for finding in checker(sources):
            if cfg.path_allowed(finding.rule, finding.path):
                continue
            severity = cfg.severity_of(finding.rule)
            if severity != finding.severity:
                finding = Finding(
                    rule=finding.rule,
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message,
                    severity=severity,
                )
            findings.append(finding)
    return findings


__all__ = [
    "DUAL_IMPLEMENTATIONS",
    "FINGERPRINT_FIELDS",
    "PAYLOAD_EXCLUSIONS",
    "check_backend_run_signatures",
    "check_cache_key_fields",
    "check_dual_signatures",
    "check_engine_stats_exclusion",
    "check_payload_exclusion",
    "check_results_schema_coverage",
    "run_invariants",
]
