"""Data paths: the reconfigurable building blocks of instruction set extensions.

A *data path* is a hardware implementation of a piece of a kernel (e.g. the
"condition" or "filter" data path of the H.264 deblocking filter in the
paper's case study).  Each data path can be implemented on the fine-grained
(FG) fabric, on a coarse-grained (CG) fabric, or both; the two
implementations differ in area, per-invocation latency, and reconfiguration
time (FG: ~1.2 ms per data path; CG: ~0.15 us).

The characterisation of a data path is an *operation mix*
(:class:`DataPathSpec`): how many word-level ALU ops, multiplies, divides,
bit-level ops, and bytes of scratchpad traffic one invocation performs, plus
how deep the pipelined FPGA implementation is.  The technology cost model
(:mod:`repro.fabric.cost_model`) turns a spec into concrete
:class:`DataPathImpl` objects, replacing the place-and-route / ASIC synthesis
characterisation the authors obtained from Xilinx tools and a TSMC 90 nm
flow.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.validation import ValidationError, check_non_negative, check_positive


class FabricType(enum.Enum):
    """The two reconfigurable fabric granularities of the processor."""

    FG = "fg"
    CG = "cg"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Interned data-path ids: qualified implementation name -> dense int, in
#: order of first construction.  The decision path (fabric state,
#: reconfiguration commit, ECU cascade, selectors) keys its arrays by these
#: ids.  The table is process-wide because libraries, fabric states and
#: ECUs built apart must agree on them; it only grows and an id never
#: changes, so which caller interned a name first changes no result.  Ids
#: do depend on what the process built before, so they never leave it --
#: records, traces and cache keys carry names.
IMPL_IDS: Dict[str, int] = {}
#: id -> qualified implementation name (the inverse of :data:`IMPL_IDS`).
IMPL_NAMES: List[str] = []
#: Serialises first sightings: threads that build libraries at once (the
#: service daemon's intake) must not give one name two ids.
_INTERN_LOCK = threading.Lock()


def intern_impl(name: str) -> int:
    """The interned id of the qualified implementation name ``name``."""
    impl_id = IMPL_IDS.get(name)
    if impl_id is None:
        with _INTERN_LOCK:
            impl_id = IMPL_IDS.get(name)
            if impl_id is None:
                impl_id = len(IMPL_NAMES)
                IMPL_NAMES.append(name)
                IMPL_IDS[name] = impl_id
    return impl_id


@dataclass(frozen=True)
class DataPathSpec:
    """Technology-independent characterisation of a data path.

    Parameters
    ----------
    name:
        Unique identifier within an application (e.g. ``"deblock.cond"``).
    word_ops:
        Word-level add/sub/logic operations per invocation.
    mul_ops, div_ops:
        Multiplications / divisions per invocation.
    bit_ops:
        Bit-level shuffle/pack/mask operations per invocation.  These are
        nearly free on the FG fabric (absorbed into the pipeline) but
        expensive on the word-oriented CG ALUs.
    mem_bytes:
        Scratchpad bytes moved per invocation.  The CG load/store unit is
        32-bit, the FG unit 128-bit (Section 5.1).
    fg_depth:
        Pipeline depth of the FG implementation in FG-fabric cycles.
    sw_cycles:
        Core cycles one invocation costs when executed in RISC mode.
    invocations:
        Invocations per *kernel execution* (a kernel execution may run a data
        path several times, e.g. once per edge of a macroblock).
    prc_cost:
        PRCs occupied by the FG implementation.
    cg_cost:
        CG fabrics occupied by the CG implementation.
    bitstream_kb:
        Partial bitstream size of the FG implementation; together with the
        67584 KB/s port bandwidth this yields the ~1.2 ms FG reconfiguration
        time quoted in the paper.
    parallelizable:
        Whether the ISE builder may instantiate this data path twice to halve
        its per-execution latency (at twice the area).
    """

    name: str
    word_ops: int = 0
    mul_ops: int = 0
    div_ops: int = 0
    bit_ops: int = 0
    mem_bytes: int = 0
    fg_depth: int = 4
    sw_cycles: int = 100
    invocations: int = 1
    prc_cost: int = 1
    cg_cost: int = 1
    bitstream_kb: float = 79.2
    parallelizable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("DataPathSpec.name must be non-empty")
        for attr in ("word_ops", "mul_ops", "div_ops", "bit_ops", "mem_bytes"):
            check_non_negative(f"DataPathSpec.{attr}", getattr(self, attr))
        for attr in ("fg_depth", "sw_cycles", "invocations", "prc_cost", "cg_cost"):
            check_positive(f"DataPathSpec.{attr}", getattr(self, attr))
        check_positive("DataPathSpec.bitstream_kb", self.bitstream_kb)


@dataclass(frozen=True)
class DataPathImpl:
    """A concrete implementation of a data path on one fabric type.

    Produced by :class:`repro.fabric.cost_model.TechnologyCostModel`; the ISE
    layer composes these into instruction set extensions.

    ``hw_cycles`` is the latency of the *first* invocation in a burst;
    ``ii_cycles`` is the initiation interval for back-to-back invocations.
    Pipelined FPGA data paths accept a new invocation every few FG cycles,
    which is how the fine-grained fabric wins asymptotically despite its 4x
    slower clock; CG data paths execute their instruction sequence per
    invocation, so their ``ii_cycles`` equals ``hw_cycles``.

    Construction also sets two derived attributes (not fields, so outside
    equality, hashing and ``repr``): ``name``, the qualified name, e.g.
    ``deblock.cond@fg``, and ``uid``, its interned id (:func:`intern_impl`).
    """

    spec: DataPathSpec
    fabric: FabricType
    hw_cycles: int          #: core cycles for the first invocation of a burst
    reconfig_cycles: int    #: core cycles to reconfigure one instance
    area: int               #: PRCs (FG) or CG fabrics (CG) per instance
    ii_cycles: int = 0      #: core cycles per subsequent invocation (0 = hw_cycles)

    def __post_init__(self) -> None:
        check_non_negative("DataPathImpl.hw_cycles", self.hw_cycles)
        check_non_negative("DataPathImpl.reconfig_cycles", self.reconfig_cycles)
        check_positive("DataPathImpl.area", self.area)
        check_non_negative("DataPathImpl.ii_cycles", self.ii_cycles)
        if self.ii_cycles == 0:
            object.__setattr__(self, "ii_cycles", self.hw_cycles)
        name = f"{self.spec.name}@{self.fabric.value}"
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "uid", intern_impl(name))

    def __reduce__(self):
        # Rebuilt through the constructor, so an unpickled copy carries the
        # id its own process interns for the name.
        return (
            type(self),
            (self.spec, self.fabric, self.hw_cycles, self.reconfig_cycles,
             self.area, self.ii_cycles),
        )

    def burst_cycles(self, invocations: int) -> int:
        """Core cycles for ``invocations`` back-to-back invocations."""
        check_non_negative("invocations", invocations)
        if invocations == 0:
            return 0
        return self.hw_cycles + (invocations - 1) * self.ii_cycles

    def saving_per_execution(self, quantity: int = 1) -> int:
        """Kernel-latency reduction per kernel execution with ``quantity`` instances.

        One kernel execution invokes the data path ``spec.invocations`` times;
        in software each invocation costs ``spec.sw_cycles``.  With ``quantity``
        hardware instances the invocations split across the copies.  The
        saving is floored at zero: a hardware implementation never makes the
        kernel slower than pure software (the ECU would simply not use it).
        """
        check_positive("quantity", quantity)
        sw = self.spec.invocations * self.spec.sw_cycles
        per_copy = -(-self.spec.invocations // quantity)
        hw = self.burst_cycles(per_copy)
        return max(0, sw - hw)


@dataclass(frozen=True)
class DataPathInstance:
    """A placed instance request: ``quantity`` copies of an implementation.

    ISEs are built from instances; the reconfiguration controller configures
    each copy separately (copy ``k`` is identified by ``(impl.name, k)``).
    """

    impl: DataPathImpl
    quantity: int = 1

    def __post_init__(self) -> None:
        check_positive("DataPathInstance.quantity", self.quantity)

    @property
    def area(self) -> int:
        """Total fabric area (PRCs or CG fabrics) of all copies."""
        return self.impl.area * self.quantity

    @property
    def fabric(self) -> FabricType:
        return self.impl.fabric

    @property
    def total_reconfig_cycles(self) -> int:
        """Core cycles to configure every copy (copies configure sequentially
        on the FG port; CG copies load independently but we account the sum,
        which for ~60-cycle loads is negligible either way)."""
        return self.impl.reconfig_cycles * self.quantity

    def saving_per_execution(self) -> int:
        """Kernel-latency reduction per execution once all copies are up."""
        return self.impl.saving_per_execution(self.quantity)
