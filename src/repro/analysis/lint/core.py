"""Visitor core of the determinism & invariant linter.

The framework is deliberately small:

* a :class:`Rule` inspects AST nodes of the types it declares interest in
  (``node_types``) and yields :class:`Finding`\\ s; ``begin_module`` lets it
  reset per-file state;
* :class:`FileContext` gives rules the parsed module, the raw source lines,
  and a resolved import-alias table, so a rule can ask "what dotted name
  does this call really target?" without re-deriving imports itself;
* :func:`lint_source` runs every rule in **one** AST walk per file and
  applies suppression comments and the per-path allowlist from
  :mod:`repro.analysis.lint.config`;
* :func:`run_lint` maps that over a file tree and finishes with the
  project-level invariant checkers
  (:mod:`repro.analysis.lint.invariants`), returning a :class:`LintReport`
  whose ``ok`` gates CI.

Suppression syntax (checked against the finding's physical line, or
anywhere in the file for the ``disable-file`` form)::

    risky_call()  # repro-lint: disable=wall-clock
    # repro-lint: disable-file=float-equality

A suppression comment that no longer masks any finding is itself
reported (rule ``unused-suppression``, warning severity) so stale
exemptions cannot rot silently; ``repro lint --fix-suppressions`` lists
the removal candidates.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.util.validation import ReproError

#: Marker introducing a suppression comment.
SUPPRESS_MARK = "# repro-lint:"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str           #: posix-style path as given to the linter
    line: int           #: 1-based line of the offending node
    col: int            #: 0-based column
    message: str
    severity: str = "error"   #: ``error`` gates the exit code; ``warning`` does not

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_payload(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


def module_name_for_path(path: str, known_paths=None) -> str:
    """Dotted module name of a source file.

    Walks up from the file while each parent directory holds an
    ``__init__.py`` -- so ``.../src/repro/sim/trace.py`` becomes
    ``repro.sim.trace`` wherever the tree is checked out.  With
    ``known_paths`` (a set of posix paths) package membership is decided
    by set membership instead of the filesystem, which lets callers name
    in-memory fixture trees.
    """
    file_path = Path(path)
    stem = file_path.stem
    parts: List[str] = [] if stem == "__init__" else [stem]

    def _is_package(directory: Path) -> bool:
        marker = directory / "__init__.py"
        if known_paths is not None:
            return marker.as_posix() in known_paths
        return marker.is_file()

    directory = file_path.parent
    while directory.name and _is_package(directory):
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else stem


def build_export_map(sources: Mapping[str, str]) -> Dict[str, Dict[str, str]]:
    """Module name -> {exported name -> dotted origin} for a source set.

    Records every top-level ``import``/``from-import`` binding of every
    module, so :meth:`FileContext.dotted_name` can chase ``from x import
    y as z`` chains through module-level re-exports back to the real
    origin (a re-exported ``time`` no longer escapes the wall-clock
    rule).  ``sources`` maps posix paths to source text, as produced by
    :func:`run_lint`'s read loop.
    """
    known = set(sources)
    exports: Dict[str, Dict[str, str]] = {}
    for path in sorted(sources):
        try:
            tree = ast.parse(sources[path])
        except SyntaxError:
            continue
        module = module_name_for_path(path, known_paths=known)
        table = exports.setdefault(module, {})
        is_package = Path(path).stem == "__init__"
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_import_base(node, module, is_package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
    return exports


def _resolve_import_base(
    node: ast.ImportFrom, module_name: Optional[str], is_package: bool
) -> Optional[str]:
    """Absolute dotted module an ``ImportFrom`` pulls names out of, or
    ``None`` when a relative import cannot be anchored."""
    if not node.level:
        return node.module
    if not module_name:
        return None
    parts = module_name.split(".")
    # The anchor package: the module's own package, then one more level
    # up per extra leading dot.
    drop = node.level if not is_package else node.level - 1
    if drop >= len(parts):
        return None
    base_parts = parts[: len(parts) - drop]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts)


class FileContext:
    """Per-file state shared by every rule during one walk.

    ``aliases`` maps local names to the dotted origin they were imported
    as: ``import numpy as np`` yields ``{"np": "numpy"}``, ``from time
    import perf_counter as pc`` yields ``{"pc": "time.perf_counter"}``.
    With an ``export_map`` (see :func:`build_export_map`) resolution
    additionally chases module-level re-exports, and with a
    ``module_name`` relative imports resolve to absolute dotted names.
    """

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        export_map: Optional[Mapping[str, Mapping[str, str]]] = None,
        module_name: Optional[str] = None,
    ):
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        self.export_map = export_map or {}
        self.module_name = module_name
        self.aliases: Dict[str, str] = {}
        is_package = Path(path).stem == "__init__"
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_import_base(node, module_name, is_package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def resolve_export(self, dotted: str) -> str:
        """Chase ``dotted`` through module-level re-exports to its origin.

        ``pkg.compat.clock`` becomes ``time.perf_counter`` when
        ``pkg/compat.py`` does ``from time import perf_counter as
        clock``.  Cycles (e.g. ``from . import mod`` in a package
        ``__init__``) terminate at the first repeated name.
        """
        seen = set()
        while dotted not in seen:
            seen.add(dotted)
            head, _, leaf = dotted.rpartition(".")
            table = self.export_map.get(head) if head else None
            if not table or leaf not in table:
                return dotted
            dotted = table[leaf]
        return dotted

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """The fully resolved dotted name of a ``Name``/``Attribute`` chain,
        or ``None`` for anything dynamic (subscripts, calls, ...)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        dotted = ".".join(reversed(parts))
        return self.resolve_export(dotted) if self.export_map else dotted

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class of all single-file lint rules."""

    #: Unique kebab-case identifier (used in suppressions and config).
    name: str = ""
    #: One-line description of what the rule flags.
    summary: str = ""
    #: Which determinism invariant the rule protects (docs / --list-rules).
    rationale: str = ""
    #: AST node classes the rule wants to see; empty means module-only.
    node_types: Tuple[type, ...] = ()

    def begin_module(self, ctx: FileContext) -> Iterable[Finding]:
        """Called once per file before the walk; may yield findings."""
        return ()

    def check_node(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Called for every node whose type is in ``node_types``."""
        return ()

    # ------------------------------------------------------------ helpers
    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _rules_of(text: str, directive: str) -> List[str]:
    """Rule names a ``# repro-lint: <directive>=a,b`` comment targets."""
    mark = SUPPRESS_MARK + " " + directive + "="
    index = text.find(mark)
    if index < 0:
        # tolerate no space after the colon
        mark = SUPPRESS_MARK + directive + "="
        index = text.find(mark)
        if index < 0:
            return []
    spec = text[index + len(mark):].split("#")[0]
    return [rule.strip() for rule in spec.split(",") if rule.strip()]


def _suppressed(finding: Finding, ctx: FileContext) -> bool:
    """True when a suppression comment disables ``finding``."""
    line = ctx.line_text(finding.line)
    if finding.rule in _rules_of(line, "disable") or "all" in _rules_of(
        line, "disable"
    ):
        return True
    for text in ctx.lines:
        if SUPPRESS_MARK in text:
            rules = _rules_of(text, "disable-file")
            if finding.rule in rules or "all" in rules:
                return True
    return False


def _suppression_comments(
    source: str,
) -> List[Tuple[int, int, str, List[str], str]]:
    """``(line, col, directive, rules, text)`` per real suppression comment.

    Tokenize-based so suppression *examples* inside docstrings (this
    module has some) are not mistaken for live comments.
    """
    comments: List[Tuple[int, int, str, List[str], str]] = []
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return comments
    for token in tokens:
        if token.type != tokenize.COMMENT or SUPPRESS_MARK not in token.string:
            continue
        for directive in ("disable-file", "disable"):
            rules = _rules_of(token.string, directive)
            if rules:
                comments.append(
                    (
                        token.start[0],
                        token.start[1],
                        directive,
                        rules,
                        token.string.strip(),
                    )
                )
                break
    return comments


def _stale_suppressions(
    source: str, path: str, raw: List[Finding], cfg
) -> List[Finding]:
    """``unused-suppression`` findings for comments masking nothing.

    ``raw`` must be the pre-suppression findings of a run with the full
    default rule set -- under a rule subset the findings justifying a
    comment may simply not have been computed, so callers disable this
    check there.
    """
    live = [f for f in raw if not cfg.path_allowed(f.rule, path)]
    findings: List[Finding] = []
    for line, col, directive, rules, text in _suppression_comments(source):
        if directive == "disable":
            used = any(
                f.line == line and (f.rule in rules or "all" in rules)
                for f in live
            )
        else:
            used = any(
                f.rule in rules or "all" in rules for f in live
            )
        if not used:
            findings.append(
                Finding(
                    rule="unused-suppression",
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"suppression masks no finding: {text!r} "
                        f"(remove it)"
                    ),
                    severity=cfg.severity_of("unused-suppression"),
                )
            )
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    config=None,
    export_map: Optional[Mapping[str, Mapping[str, str]]] = None,
    module_name: Optional[str] = None,
    check_suppressions: Optional[bool] = None,
) -> List[Finding]:
    """Lint one module's source text; returns surviving findings.

    Findings are dropped when a suppression comment disables them or the
    config's per-path allowlist exempts the file from the rule, and
    re-labelled with the config's severity for the rule otherwise.

    ``export_map``/``module_name`` (see :func:`build_export_map`) let
    alias resolution chase re-exports across modules.
    ``check_suppressions`` controls stale-suppression reporting; the
    default (``None``) enables it exactly when the full default rule set
    runs, because staleness is meaningless under a rule subset.
    """
    from repro.analysis.lint.config import DEFAULT_CONFIG
    from repro.analysis.lint.rules import default_rules

    cfg = config if config is not None else DEFAULT_CONFIG
    if check_suppressions is None:
        check_suppressions = rules is None
    active = list(rules) if rules is not None else default_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                rule="syntax",
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            )
        ]
    ctx = FileContext(
        path, source, tree, export_map=export_map, module_name=module_name
    )

    raw: List[Finding] = []
    dispatch: Dict[type, List[Rule]] = {}
    for rule in active:
        if cfg.path_allowed(rule.name, path):
            continue
        raw.extend(rule.begin_module(ctx))
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    if dispatch:
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                raw.extend(rule.check_node(node, ctx))

    findings = []
    for finding in raw:
        if cfg.path_allowed(finding.rule, path) or _suppressed(finding, ctx):
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
    if check_suppressions:
        findings.extend(_stale_suppressions(source, path, raw, cfg))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


@dataclass
class LintReport:
    """Everything one :func:`run_lint` pass produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding survived."""
        return not any(f.severity == "error" for f in self.findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def render_text(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(
                f"{finding.location()}: {finding.severity}[{finding.rule}] "
                f"{finding.message}"
            )
        lines.append(
            f"repro lint: {len(self.errors)} error(s), "
            f"{len(self.findings) - len(self.errors)} warning(s) "
            f"in {self.files_checked} file(s)"
        )
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, object]:
        """Machine-readable form, shape-aligned with ``repro analyze
        --format json`` (``DeepReport.to_payload``)."""
        return {
            "gate": "lint",
            "ok": self.ok,
            "files_checked": self.files_checked,
            "errors": len(self.errors),
            "warnings": len(self.findings) - len(self.errors),
            "rules": list(self.rules_run),
            "findings": [f.to_payload() for f in self.findings],
        }


def _python_files(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    # Sorted for deterministic report order (and determinism is the point).
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def default_lint_root() -> Path:
    """The shipped source tree: the installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def run_lint(
    paths: Optional[Sequence] = None,
    rules: Optional[Sequence[Rule]] = None,
    config=None,
    invariants: bool = True,
) -> LintReport:
    """Lint ``paths`` (files or directory trees; default: the shipped
    ``repro`` package) and run the project invariant checkers."""
    from repro.analysis.lint.config import DEFAULT_CONFIG
    from repro.analysis.lint.invariants import run_invariants
    from repro.analysis.lint.rules import default_rules

    cfg = config if config is not None else DEFAULT_CONFIG
    active = list(rules) if rules is not None else default_rules()
    roots = [Path(p) for p in paths] if paths else [default_lint_root()]

    report = LintReport(rules_run=[rule.name for rule in active])
    check_suppressions = rules is None
    if check_suppressions:
        report.rules_run.append("unused-suppression")
    sources: Dict[str, str] = {}
    for root in roots:
        if not root.exists():
            raise ReproError(f"lint path does not exist: {root}")
        for file_path in _python_files(root):
            posix = file_path.as_posix()
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as error:
                report.findings.append(
                    Finding(
                        rule="io",
                        path=posix,
                        line=1,
                        col=0,
                        message=f"unreadable: {error}",
                    )
                )
                continue
            sources[posix] = source
    # Two passes: the export map of the whole set must exist before any
    # one file is linted, so re-export chains resolve across modules.
    export_map = build_export_map(sources)
    known = set(sources)
    for posix in sorted(sources):
        report.files_checked += 1
        report.findings.extend(
            lint_source(
                sources[posix],
                path=posix,
                rules=active,
                config=cfg,
                export_map=export_map,
                module_name=module_name_for_path(posix, known_paths=known),
                check_suppressions=check_suppressions,
            )
        )
    if invariants:
        report.findings.extend(run_invariants(sources, config=cfg))
        report.rules_run += [
            name for name in INVARIANT_RULE_NAMES if name not in report.rules_run
        ]
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


#: Filled in by repro.analysis.lint.invariants at import; listed here to
#: avoid a circular import in run_lint's rules_run bookkeeping.
INVARIANT_RULE_NAMES: List[str] = []


__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "SUPPRESS_MARK",
    "build_export_map",
    "default_lint_root",
    "lint_source",
    "module_name_for_path",
    "run_lint",
]
