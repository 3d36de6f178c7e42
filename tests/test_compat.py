"""Source-level guards for the oldest supported Python.

``pyproject.toml`` declares ``requires-python = ">=3.9"`` and CI tests
3.9, but most development runs a newer interpreter, where some stdlib
calls accept arguments 3.9 rejects at run time.  These guards read the
source instead of running it, so they hold on any interpreter.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``bisect`` functions whose ``key=`` argument is new in Python 3.10.
BISECT_FUNCTIONS = frozenset(
    {"bisect", "bisect_left", "bisect_right", "insort", "insort_left", "insort_right"}
)


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def test_no_bisect_key_argument():
    """No ``bisect``/``insort`` call in ``src/`` passes ``key=``: on
    Python 3.9 it raises ``TypeError`` at the first call."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _called_name(node) in BISECT_FUNCTIONS
                and any(keyword.arg == "key" for keyword in node.keywords)
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, f"bisect key= needs Python 3.10+: {offenders}"


def test_guard_catches_a_key_argument():
    """The guard's matcher sees both spellings of the call."""
    for source in (
        "bisect.insort_right(xs, x, key=f)",
        "from bisect import bisect_right\nbisect_right(xs, x, key=f)",
    ):
        calls = [
            node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
        ]
        assert any(
            _called_name(call) in BISECT_FUNCTIONS
            and any(keyword.arg == "key" for keyword in call.keywords)
            for call in calls
        )
