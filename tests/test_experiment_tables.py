"""Golden experiment tables: the whole ``run_all(fast=True)`` report.

``tests/golden/experiment_tables.txt`` is the stdout of
``run_all(fast=True)`` with the ``  [N.Ns]`` elapsed-time suffixes of the
section headers stripped.  Every experiment's rendered table must stay
byte-identical to it, so a refactor of how experiments execute (engine
routing, cell shapes, metrics) cannot move a single printed number.

Regenerate only after an *intentional* behaviour change::

    PYTHONPATH=src python -c "import io, re; \\
    from repro.experiments.runner import run_all; s = io.StringIO(); \\
    run_all(fast=True, stream=s); \\
    open('tests/golden/experiment_tables.txt', 'w').write( \\
        re.sub(r'  \\[\\d+\\.\\ds\\]', '', s.getvalue()))"
"""

import io
import re
from pathlib import Path

from repro.experiments.runner import run_all

GOLDEN = Path(__file__).parent / "golden" / "experiment_tables.txt"

_ELAPSED = re.compile(r"  \[\d+\.\ds\]")


def test_run_all_fast_tables_byte_equal():
    stream = io.StringIO()
    run_all(fast=True, stream=stream)
    fresh = _ELAPSED.sub("", stream.getvalue())
    committed = GOLDEN.read_text(encoding="utf-8")
    if fresh != committed:
        old = committed.splitlines()
        new = fresh.splitlines()
        moved = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        first = moved[0] if moved else min(len(old), len(new))
        raise AssertionError(
            f"{len(moved)} experiment table line(s) changed "
            f"({len(old)} -> {len(new)} lines), first at line {first + 1}: "
            f"{new[first] if first < len(new) else '(missing)'!r}"
        )
