"""Per-path and per-rule configuration of the linter.

Two knobs, both data (no behaviour):

* **allowlist** -- path patterns where a rule simply does not apply.  The
  shipped defaults encode the repo's sanctioned exceptions: wall-clock
  timing in the report/runner progress output (which never feeds a
  cache key, a trace or a payload), and ``os.environ`` access inside the
  central :mod:`repro.config_env` module itself.
* **severity** -- ``error`` (gates the exit code) or ``warning``
  (reported, not gating) per rule.

Patterns are :mod:`fnmatch` globs matched against the posix form of the
linted path; a bare substring like ``experiments/report.py`` is treated as
``*experiments/report.py`` so configs stay independent of where the tree
is checked out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Mapping, Tuple

from repro.util.validation import ReproError

SEVERITIES = ("error", "warning")

#: Paths where wall-clock timing is sanctioned: progress/elapsed reporting
#: that never reaches a payload, trace, or cache key.
TIMING_ALLOWED = (
    "experiments/report.py",
    "experiments/runner.py",
)

DEFAULT_ALLOW: Dict[str, Tuple[str, ...]] = {
    "wall-clock": TIMING_ALLOWED,
    # The one module allowed to read the environment (see repro.config_env).
    "env-read": ("config_env.py",),
}

#: Default per-rule severities for rules that should not gate the exit
#: code out of the box.  A stale suppression is hygiene, not a
#: determinism hazard.
DEFAULT_SEVERITY: Dict[str, str] = {
    "unused-suppression": "warning",
}


def _as_glob(pattern: str) -> str:
    return pattern if any(c in pattern for c in "*?[") else f"*{pattern}"


@dataclass(frozen=True)
class LintConfig:
    """Immutable linter configuration.

    ``allow`` maps rule name -> path patterns exempt from it; ``severity``
    maps rule name -> ``error``/``warning`` (unlisted rules are errors).
    """

    allow: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    severity: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_SEVERITY)
    )

    def __post_init__(self):
        for rule, level in self.severity.items():
            if level not in SEVERITIES:
                raise ReproError(
                    f"invalid severity {level!r} for rule {rule!r}; "
                    f"valid: {list(SEVERITIES)}"
                )

    def path_allowed(self, rule: str, path: str) -> bool:
        """True when ``path`` is exempt from ``rule``."""
        posix = path.replace("\\", "/")
        for pattern in self.allow.get(rule, ()):
            if fnmatch(posix, _as_glob(pattern)):
                return True
        return False

    def severity_of(self, rule: str) -> str:
        return self.severity.get(rule, "error")


#: The configuration the CLI and CI gate run with.
DEFAULT_CONFIG = LintConfig()


__all__ = [
    "DEFAULT_ALLOW",
    "DEFAULT_CONFIG",
    "DEFAULT_SEVERITY",
    "LintConfig",
    "SEVERITIES",
    "TIMING_ALLOWED",
]
