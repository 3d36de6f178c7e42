"""The coarse-grained reconfigurable fabrics.

Each CG fabric is a word-level reconfigurable ALU array running at 400 MHz
with two 32-bit register files (32 registers each), a context memory that
stores up to 32 instructions of 80 bits, a zero-overhead loop instruction
and a 2-cycle context switch (Section 5.1).  Loading a context takes on the
order of 0.15 us, i.e. ~60 core cycles -- four orders of magnitude faster
than an FG partial bitstream.

For area accounting, one configured CG data-path instance occupies one CG
fabric (its context memory, ALUs and register files are dedicated to it
while the owning ISE is selected, because the data paths of an ISE execute
concurrently).  The monoCG-Extension of the ECU likewise needs one whole
free CG fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class CGFabric:
    """Static parameters of a single CG fabric."""

    context_instructions: int = 32   #: instructions per context memory
    instruction_bits: int = 80
    register_files: int = 2
    registers_per_file: int = 32
    context_switch_cycles: int = 2
    interconnect_hop_cycles: int = 2  #: point-to-point hop between CG fabrics

    @property
    def context_bytes(self) -> int:
        """Size of one full context in bytes."""
        return self.context_instructions * self.instruction_bits // 8


@dataclass
class CGFabricArray:
    """The array of CG fabrics available to the processor.

    Unlike the FG fabric there is no shared sequential configuration port:
    each fabric streams its own context, so CG reconfigurations proceed in
    parallel.
    """

    n_fabrics: int
    fabric: CGFabric = CGFabric()

    def __post_init__(self) -> None:
        check_non_negative("CGFabricArray.n_fabrics", self.n_fabrics)

    def schedule_reconfig(self, now: int, cycles: int) -> Tuple[int, int]:
        """Schedule a context load starting ``now``; returns ``(start, done)``."""
        check_non_negative("now", now)
        check_non_negative("cycles", cycles)
        return self.schedule_trusted(now, cycles)

    def schedule_trusted(self, now: int, cycles: int) -> Tuple[int, int]:
        """:meth:`schedule_reconfig` without re-validating, for callers
        whose times are valid by construction (the reconfiguration
        controller)."""
        return now, now + cycles


__all__ = ["CGFabric", "CGFabricArray"]
