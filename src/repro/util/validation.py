"""Error types and argument validation helpers.

The hardware-facing layers validate eagerly: a mis-specified data path or
fabric budget should fail at construction, not 10^6 simulated cycles later.
"""

from __future__ import annotations

from typing import Tuple, Type, TypeVar, Union

T = TypeVar("T")


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ReproError, ValueError):
    """A constructor or API argument was out of its legal domain."""


def check_type(
    name: str,
    value: object,
    expected: Union[Type, Tuple[Type, ...]],
) -> None:
    """Raise :class:`ValidationError` unless ``value`` is an ``expected``.

    A bool is an ``int`` to ``isinstance`` but not a number here: it passes
    only where ``bool`` itself is expected."""
    if isinstance(value, bool) and bool not in (
        expected if isinstance(expected, tuple) else (expected,)
    ):
        raise ValidationError(f"{name} must be {expected}, got bool {value!r}")
    if not isinstance(value, expected):
        raise ValidationError(
            f"{name} must be {expected}, got {type(value).__name__} {value!r}"
        )


def check_non_negative(name: str, value: Union[int, float]) -> None:
    """Raise :class:`ValidationError` unless ``value`` >= 0."""
    check_type(name, value, (int, float))
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")


def check_positive(name: str, value: Union[int, float]) -> None:
    """Raise :class:`ValidationError` unless ``value`` > 0."""
    check_type(name, value, (int, float))
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")


def build_trusted(cls: Type[T], **fields: object) -> T:
    """An instance of the frozen dataclass ``cls`` with ``fields`` set,
    built without running ``__init__``: no ``__post_init__`` check and none
    of the frozen ``__init__``'s per-field ``object.__setattr__`` calls.

    For simulator-internal values that are valid by construction, on paths
    that build thousands per simulation; ``fields`` must name every field.
    The instance compares, hashes, prints and pickles like a constructed
    one.  Public constructors keep validating.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance
