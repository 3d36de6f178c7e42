"""The determinism rules.

Each rule protects one of the repo's byte-identity invariants (serial ==
parallel sweeps, stepped == packed engines, naive == packed selector,
golden traces); ``docs/analysis.md`` documents them one by one with the
failure mode they prevent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.core import FileContext, Finding, Rule

# --------------------------------------------------------------- wall clock

#: Calls whose return value depends on when (or how fast) the host runs.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    name = "wall-clock"
    summary = "host wall-clock reads outside the allowlisted timing paths"
    rationale = (
        "Simulated time is the only clock: a host-clock value reaching a "
        "payload, trace or cache key makes byte-identical reruns impossible."
    )
    node_types = (ast.Call,)

    def check_node(self, node: ast.Call, ctx: FileContext) -> Iterable[Finding]:
        dotted = ctx.dotted_name(node.func)
        if dotted in WALL_CLOCK_CALLS:
            yield self.finding(
                ctx,
                node,
                f"wall-clock call {dotted}() -- simulated time must come from "
                "the simulator; host timing belongs in the allowlisted "
                "report/runner paths",
            )


# ------------------------------------------------------------------ random

#: numpy.random entry points that are fine *when seeded* (argument given).
_SEEDABLE_NUMPY = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState"}
)


class UnseededRandomRule(Rule):
    name = "unseeded-random"
    summary = "global or unseeded random number generation"
    rationale = (
        "All stochastic inputs flow through repro.util.rng's seeded "
        "Generators so every cell is reproducible from its seed; global-state "
        "or unseeded RNGs silently diverge across processes and reruns."
    )
    node_types = (ast.Call,)

    def check_node(self, node: ast.Call, ctx: FileContext) -> Iterable[Finding]:
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            return
        if dotted.startswith("random."):
            fn = dotted.split(".", 1)[1]
            if fn == "Random" and (node.args or node.keywords):
                return  # explicit seed
            yield self.finding(
                ctx,
                node,
                f"stdlib {dotted}() uses (or seeds) process-global RNG state; "
                "pass a seeded numpy Generator (repro.util.rng.make_rng)",
            )
        elif dotted.startswith(("numpy.random.", "np.random.")):
            fn = dotted.split("random.", 1)[1]
            if fn in _SEEDABLE_NUMPY:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() without a seed draws OS entropy; pass an "
                        "explicit seed (repro.util.rng.make_rng)",
                    )
            elif "." not in fn:
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() uses numpy's global RNG state; use a seeded "
                    "Generator (repro.util.rng.make_rng)",
                )


# -------------------------------------------------------- set-order leakage


def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.dotted_name(node.func) in ("set", "frozenset")
    return False


class UnsortedIterationRule(Rule):
    name = "unsorted-iteration"
    summary = "direct iteration over a set expression without sorted()"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED and insertion "
        "history; an unsorted set feeding a loop, list or join can reorder "
        "payloads and traces between runs.  Wrap the expression in "
        "sorted(...) or iterate a list."
    )
    node_types = (ast.For, ast.comprehension, ast.Call)

    _ORDER_SENSITIVE_CALLS = ("list", "tuple", "enumerate")

    def check_node(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.For):
            if _is_set_expr(node.iter, ctx):
                yield self.finding(
                    ctx, node.iter,
                    "for-loop iterates a set expression in hash order; wrap "
                    "it in sorted(...)",
                )
        elif isinstance(node, ast.comprehension):
            if _is_set_expr(node.iter, ctx):
                yield self.finding(
                    ctx, node.iter,
                    "comprehension iterates a set expression in hash order; "
                    "wrap it in sorted(...)",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            order_sensitive = (
                ctx.dotted_name(func) in self._ORDER_SENSITIVE_CALLS
                or (isinstance(func, ast.Attribute) and func.attr == "join")
            )
            if order_sensitive:
                for arg in node.args:
                    if _is_set_expr(arg, ctx):
                        yield self.finding(
                            ctx, arg,
                            "set expression materialised in hash order; wrap "
                            "it in sorted(...)",
                        )


# ---------------------------------------------------------- float equality

_INF_STRINGS = frozenset({"inf", "-inf", "+inf", "infinity", "-infinity"})


def _is_inf_sentinel(node: ast.AST, ctx: FileContext) -> bool:
    """``float("inf")`` / ``math.inf`` sentinels compare exactly (IEEE 754
    infinities are unique values, not rounding results); they are exempt."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value.strip().lower() in _INF_STRINGS
    return ctx.dotted_name(node) in ("math.inf", "numpy.inf", "np.inf")


def _float_params(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    args = fn.args
    for arg in [
        *getattr(args, "posonlyargs", []),
        *args.args,
        *args.kwonlyargs,
    ]:
        annotation = arg.annotation
        if isinstance(annotation, ast.Name) and annotation.id == "float":
            names.add(arg.arg)
        elif (
            isinstance(annotation, ast.Constant)
            and annotation.value == "float"
        ):
            names.add(arg.arg)
    return names


class FloatEqualityRule(Rule):
    name = "float-equality"
    summary = "== / != on float values in equation or profit code"
    rationale = (
        "Exact float comparison is only sound when both sides come from the "
        "same deterministic computation; anywhere else it makes profit "
        "tie-breaks and equation checks depend on rounding.  Use "
        "math.isclose, an ordering comparison, or document the exactness "
        "contract and suppress."
    )
    node_types = (ast.Compare,)

    def begin_module(self, ctx: FileContext) -> Iterable[Finding]:
        # Comparisons of float-annotated parameters, attributed to their
        # innermost enclosing function so nested defs scope correctly.
        findings: List[Finding] = []

        def visit(node: ast.AST, params: Set[str]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = _float_params(node)
            elif isinstance(node, ast.Compare):
                findings.extend(self._check_params(node, params, ctx))
            for child in ast.iter_child_nodes(node):
                visit(child, params)

        visit(ctx.tree, set())
        return findings

    def _check_params(
        self, node: ast.Compare, params: Set[str], ctx: FileContext
    ) -> Iterable[Finding]:
        if not params:
            return
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(_is_inf_sentinel(side, ctx) for side in pair):
                continue
            for side in pair:
                if isinstance(side, ast.Name) and side.id in params:
                    yield self.finding(
                        ctx,
                        node,
                        f"exact ==/!= on float parameter {side.id!r}; use "
                        "math.isclose, an ordering comparison, or document "
                        "the exactness contract and suppress",
                    )
                    break

    def check_node(self, node: ast.Compare, ctx: FileContext) -> Iterable[Finding]:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[index], operands[index + 1]):
                if _is_inf_sentinel(side, ctx):
                    continue
                is_float_literal = (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                )
                is_float_call = (
                    isinstance(side, ast.Call)
                    and ctx.dotted_name(side.func) == "float"
                )
                if is_float_literal or is_float_call:
                    yield self.finding(
                        ctx,
                        node,
                        "exact ==/!= against a float value; use math.isclose, "
                        "an ordering comparison, or document the exactness "
                        "contract and suppress",
                    )
                    break


# --------------------------------------------------------- mutable defaults

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)


class MutableDefaultRule(Rule):
    name = "mutable-default"
    summary = "mutable default argument values"
    rationale = (
        "A mutable default is shared across calls: state from one "
        "simulation leaks into the next, so two runs of the same cell stop "
        "being independent."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check_node(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                 ast.DictComp),
            ) or (
                isinstance(default, ast.Call)
                and ctx.dotted_name(default.func) in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                label = getattr(node, "name", "<lambda>")
                yield self.finding(
                    ctx,
                    default,
                    f"mutable default argument in {label}(); use None and "
                    "create the value inside the function",
                )


# ----------------------------------------------------------- environ reads

_ENV_NAMES = frozenset(
    {"os.environ", "os.getenv", "os.putenv", "os.unsetenv", "os.environb"}
)


class EnvReadRule(Rule):
    name = "env-read"
    summary = "os.environ access outside repro.config_env"
    rationale = (
        "Ambient shell state must enter through the typed accessors in "
        "repro.config_env, where precedence and validation live; ad-hoc "
        "reads make two 'identical' runs diverge invisibly and never reach "
        "cache keys."
    )
    node_types = (ast.Attribute, ast.Name)

    def check_node(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.Attribute):
            if ctx.dotted_name(node) in _ENV_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"direct {ctx.dotted_name(node)} access; add a typed "
                    "accessor to repro.config_env instead",
                )
        elif isinstance(node, ast.Name):
            resolved = ctx.aliases.get(node.id)
            if resolved in _ENV_NAMES and not isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"direct {resolved} access (imported as {node.id!r}); "
                    "add a typed accessor to repro.config_env instead",
                )


# ------------------------------------------------- blocking calls in async

#: Calls that park the whole event loop when awaited code runs them.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "open",
        "io.open",
        "os.fdopen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "sqlite3.connect",
    }
)


class BlockingCallInAsyncRule(Rule):
    name = "blocking-call-in-async"
    summary = "blocking sleep/socket/file/database calls inside async def bodies"
    rationale = (
        "The sweep service daemon multiplexes every client and worker on "
        "one event loop; a single time.sleep, blocking socket call, "
        "synchronous open() or sqlite3.connect() inside an async def "
        "stalls all of them at once.  Use asyncio.sleep, the stream APIs, "
        "or push the work into asyncio.to_thread."
    )
    node_types = (ast.AsyncFunctionDef,)

    def check_node(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ) -> Iterable[Finding]:
        # Walk the coroutine body but stop at nested function boundaries:
        # a sync helper *defined* inside an async def runs wherever it is
        # called from, which may legitimately be a worker thread.
        stack: List[ast.AST] = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Call):
                dotted = ctx.dotted_name(child.func)
                if dotted is not None and (
                    dotted in _BLOCKING_CALLS
                    or dotted.startswith("socket.socket")
                ):
                    yield self.finding(
                        ctx,
                        child,
                        f"blocking {dotted}() inside async def "
                        f"{node.name}() parks the whole event loop; use "
                        "the asyncio equivalent or asyncio.to_thread",
                    )
            stack.extend(ast.iter_child_nodes(child))


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped determinism rule."""
    return [
        WallClockRule(),
        UnseededRandomRule(),
        UnsortedIterationRule(),
        FloatEqualityRule(),
        MutableDefaultRule(),
        EnvReadRule(),
        BlockingCallInAsyncRule(),
    ]


__all__ = [
    "BlockingCallInAsyncRule",
    "EnvReadRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "UnseededRandomRule",
    "UnsortedIterationRule",
    "WallClockRule",
    "WALL_CLOCK_CALLS",
    "default_rules",
]
