"""Central, typed access to the ``REPRO_*`` environment variables.

Every environment variable the run-time system honours is declared here,
with one typed accessor each.  This is the **only** module in ``repro``
allowed to touch ``os.environ`` -- the determinism linter
(:mod:`repro.analysis.lint`, rule ``env-read``) enforces it statically, so
an ad-hoc ``os.environ.get`` in a hot path can never silently make two
"identical" runs diverge based on ambient shell state.

Variables
---------
``REPRO_SELECTOR``
    Selector implementation (``naive`` | ``packed``; default ``packed``,
    ``naive`` is the literal Fig. 6 reference rescan); see
    :func:`repro.core.selector.resolve_selector_mode`.
``REPRO_SIM``
    Simulator execution engine (``stepped`` | ``packed``; default
    ``packed``, ``stepped`` is the literal Fig. 7 reference loop); see
    :func:`repro.sim.simulator.resolve_engine_mode`.
``REPRO_CACHE_DIR``
    Default location of the content-addressed sweep cell cache
    (``.repro_cache`` when unset); explicit ``cache_dir`` arguments and the
    ``--cache-dir`` CLI flag always win.

All accessors share the same precedence: an explicit argument beats the
environment, which beats the documented default.  Invalid values raise
:class:`~repro.util.validation.ReproError` at resolution time instead of
being carried silently into cache keys or golden traces.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.util.validation import ReproError

#: Environment variable selecting the ISE-selector implementation.
SELECTOR_MODE_ENV = "REPRO_SELECTOR"

#: Environment variable selecting the simulator execution engine.
ENGINE_MODE_ENV = "REPRO_SIM"

#: Environment variable overriding the default sweep-cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback cache location when neither an argument nor the environment
#: names one.
DEFAULT_CACHE_DIR = ".repro_cache"


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """Raw string value of ``$name``; empty values count as unset."""
    return os.environ.get(name) or default


def env_choice(
    name: str,
    valid: Sequence[str],
    default: str,
    explicit: Optional[str] = None,
    what: str = "value",
) -> str:
    """Resolve an enumerated setting.

    ``explicit`` (an API/CLI argument) beats ``$name``, which beats
    ``default``; anything outside ``valid`` raises ``ReproError``.
    """
    resolved = explicit or env_str(name) or default
    if resolved not in valid:
        raise ReproError(
            f"unknown {what} {resolved!r}; valid: {list(valid)}"
        )
    return resolved


def selector_mode(explicit: Optional[str] = None) -> str:
    """The ISE-selector implementation to use
    (``naive`` | ``packed``)."""
    from repro.core.selector import SELECTOR_MODES

    return env_choice(
        SELECTOR_MODE_ENV, SELECTOR_MODES, "packed",
        explicit=explicit, what="selector mode",
    )


def sim_engine_mode(explicit: Optional[str] = None) -> str:
    """The simulator execution engine to use
    (``stepped`` | ``packed``)."""
    from repro.sim.simulator import ENGINE_MODES

    return env_choice(
        ENGINE_MODE_ENV, ENGINE_MODES, "packed",
        explicit=explicit, what="simulator engine",
    )


def cache_dir(explicit: Optional[str] = None) -> str:
    """The sweep cell cache directory: explicit argument, then
    ``$REPRO_CACHE_DIR``, then ``.repro_cache``."""
    if explicit is not None:
        return str(explicit)
    return env_str(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ENGINE_MODE_ENV",
    "SELECTOR_MODE_ENV",
    "cache_dir",
    "env_choice",
    "env_str",
    "selector_mode",
    "sim_engine_mode",
]
