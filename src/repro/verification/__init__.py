"""Differential verification against the paper's published formulas.

:mod:`repro.verification.equations` transcribes Eqs. 1-4 exactly as printed
in the paper (including their piecewise case analysis), without the
robustness conveniences of the production implementation.  The test suite
evaluates both sides on randomised inputs and asserts agreement wherever
the paper's formulas are well-defined -- so any drift between the code we
run and the math the paper states is caught mechanically.

:mod:`repro.verification.golden` pins the complete execution trace of a
reference scenario as a committed snapshot -- the regression lock that
keeps selector/ECU refactors from silently shifting the paper figures.
Its names are re-exported here on first use, so importing this package
does not import the module that ``python -m repro.verification.golden``
runs as ``__main__`` (runpy would warn and run its body twice).
"""

import importlib

from repro.verification.equations import (
    eq1_pif,
    eq2_per_imp,
    eq3_noe,
    eq4_profit,
)

#: Names served from :mod:`repro.verification.golden` on first access.
_GOLDEN_EXPORTS = frozenset({
    "GOLDEN_PATH",
    "GOLDEN_SCENARIOS",
    "GOLDEN_SPEC",
    "diff_golden",
    "golden_path",
    "golden_payload",
    "load_golden",
    "write_all_golden",
    "write_golden",
})


def __getattr__(name: str) -> object:
    if name in _GOLDEN_EXPORTS:
        golden = importlib.import_module("repro.verification.golden")
        return getattr(golden, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "eq1_pif",
    "eq2_per_imp",
    "eq3_noe",
    "eq4_profit",
    *sorted(_GOLDEN_EXPORTS),
]
