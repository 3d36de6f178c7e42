"""The application model: functional blocks, kernels, and their dynamics.

An application (e.g. the H.264 encoder of the paper's evaluation) is a set
of *functional blocks*, each containing several kernels.  At run time the
application executes a sequence of *block iterations* (e.g. one iteration of
every block per video frame); within an iteration each kernel executes a
number of times that varies with the input data -- exactly the run-time
variation (Fig. 2) that motivates a run-time system.

The core processor is single-threaded: a block iteration is an interleaved
sequence of kernel executions, each preceded by a `gap` of non-accelerable
code (loop control, data marshalling, the surrounding algorithm).  The
interleaving is deterministic (proportional merge), so simulations are
exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.ise.kernel import Kernel
from repro.sim.trigger import TriggerInstruction
from repro.util.validation import (
    ReproError,
    ValidationError,
    build_trusted,
    check_non_negative,
)


@dataclass(frozen=True)
class KernelIteration:
    """Execution demand of one kernel within one block iteration."""

    kernel: str
    executions: int
    gap: int  #: cycles of non-kernel code before each execution

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValidationError("KernelIteration.kernel must be non-empty")
        check_non_negative("KernelIteration.executions", self.executions)
        check_non_negative("KernelIteration.gap", self.gap)

    @classmethod
    def trusted(cls, kernel: str, executions: int, gap: int) -> "KernelIteration":
        """Build without re-validating, for callers whose values are valid
        by construction (the workload generators' clamped counts)."""
        return build_trusted(cls, kernel=kernel, executions=executions, gap=gap)


@dataclass(frozen=True)
class BlockIteration:
    """One iteration of a functional block (e.g. one video frame's worth)."""

    block: str
    kernels: Tuple[KernelIteration, ...]

    def __init__(self, block: str, kernels: Sequence[KernelIteration]):
        if not block:
            raise ValidationError("BlockIteration.block must be non-empty")
        names = [k.kernel for k in kernels]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate kernels in block iteration: {names}")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "kernels", tuple(kernels))

    def executions_of(self, kernel: str) -> int:
        for it in self.kernels:
            if it.kernel == kernel:
                return it.executions
        return 0


@dataclass(frozen=True)
class FunctionalBlock:
    """A functional block: a named group of kernels."""

    name: str
    kernels: Tuple[Kernel, ...]

    def __init__(self, name: str, kernels: Sequence[Kernel]):
        if not name:
            raise ValidationError("FunctionalBlock.name must be non-empty")
        if not kernels:
            raise ValidationError(f"functional block {name!r} needs kernels")
        names = [k.name for k in kernels]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate kernels in block {name!r}: {names}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kernels", tuple(kernels))

    def kernel_names(self) -> List[str]:
        return [k.name for k in self.kernels]

    def kernel(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"block {self.name!r} has no kernel {name!r}")


def interleave(kernels: Sequence[KernelIteration]) -> List[Tuple[str, int]]:
    """Deterministic proportional interleaving of kernel executions.

    The ``j``-th execution of a kernel with ``e`` executions is placed at
    virtual position ``(j + 0.5) / e``; the merged order approximates how a
    real block loops over its kernels per macroblock / data unit.  Returns a
    list of ``(kernel, gap_before_execution)`` steps.
    """
    events: List[Tuple[float, str, int]] = []
    for it in kernels:
        for j in range(it.executions):
            position = (j + 0.5) / it.executions
            events.append((position, it.kernel, it.gap))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    return [(kernel, gap) for _, kernel, gap in events]


class Application:
    """A complete application: blocks plus the dynamic iteration sequence."""

    def __init__(
        self,
        name: str,
        blocks: Sequence[FunctionalBlock],
        iterations: Sequence[BlockIteration],
    ):
        if not blocks:
            raise ValidationError(f"application {name!r} needs functional blocks")
        self.name = name
        self._blocks: Dict[str, FunctionalBlock] = {}
        for block in blocks:
            if block.name in self._blocks:
                raise ReproError(f"duplicate block {block.name!r}")
            self._blocks[block.name] = block
        for iteration in iterations:
            if iteration.block not in self._blocks:
                raise ReproError(
                    f"iteration references unknown block {iteration.block!r}"
                )
            block = self._blocks[iteration.block]
            for kit in iteration.kernels:
                block.kernel(kit.kernel)  # raises KeyError if foreign
        self.iterations: Tuple[BlockIteration, ...] = tuple(iterations)

    # ------------------------------------------------------------ access
    @property
    def blocks(self) -> List[FunctionalBlock]:
        return list(self._blocks.values())

    def block(self, name: str) -> FunctionalBlock:
        try:
            return self._blocks[name]
        except KeyError:
            raise KeyError(f"unknown block {name!r}") from None

    def all_kernels(self) -> List[Kernel]:
        return [k for block in self.blocks for k in block.kernels]

    def iterations_of(self, block_name: str) -> List[BlockIteration]:
        return [it for it in self.iterations if it.block == block_name]

    # ----------------------------------------------------------- profile
    def profiled_triggers(self, block_name: str) -> List[TriggerInstruction]:
        """The compile-time trigger instructions of ``block_name``.

        Offline profiling runs the application in RISC mode and averages
        each kernel's executions, time to first execution and inter-execution
        time across the block's iterations -- these are the numbers the
        programmer embeds into the binary (Section 4).  They are a pure
        function of the application, computed once in closed form by its
        cached packing (:class:`repro.core.packed.PackedProgram`); every call
        returns a fresh list of those shared, immutable instructions.
        """
        # Imported lazily: repro.core.packed imports this module.
        from repro.core.packed import pack_program

        return list(pack_program(self).profiled[block_name])


__all__ = [
    "KernelIteration",
    "BlockIteration",
    "FunctionalBlock",
    "Application",
    "interleave",
]
