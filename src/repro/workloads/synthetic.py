"""Synthetic workload generator.

Produces random-but-reproducible applications (blocks, kernels, data paths,
iteration traces) with tunable character: how bit- vs word-dominant the
data paths are, how many kernels per block, how bursty the execution counts
are.  Used by the property-based tests (any generated application must
simulate correctly under every policy, and invariants like
"mRTS >= RISC mode" must hold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.fabric.datapath import DataPathSpec
from repro.ise.kernel import Kernel
from repro.sim.program import Application, BlockIteration, FunctionalBlock, KernelIteration
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import ValidationError, check_positive


@dataclass(frozen=True)
class SyntheticWorkloadConfig:
    """Shape of a synthetic application."""

    n_blocks: int = 2
    kernels_per_block: Tuple[int, int] = (1, 4)     #: inclusive range
    datapaths_per_kernel: Tuple[int, int] = (1, 3)  #: inclusive range
    iterations: int = 8
    executions_range: Tuple[int, int] = (20, 400)
    gap_range: Tuple[int, int] = (30, 120)
    #: probability a data path is bit-dominant (FG-friendly)
    bit_dominant_probability: float = 0.5

    def __post_init__(self) -> None:
        check_positive("n_blocks", self.n_blocks)
        check_positive("iterations", self.iterations)
        for name in ("kernels_per_block", "datapaths_per_kernel",
                     "executions_range", "gap_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValidationError(f"{name} must be a valid range, got ({lo}, {hi})")
        if not 0.0 <= self.bit_dominant_probability <= 1.0:
            raise ValidationError("bit_dominant_probability must be in [0, 1]")


def _random_datapath(rng: np.random.Generator, name: str, bit_dominant: bool) -> DataPathSpec:
    if bit_dominant:
        word_ops = int(rng.integers(2, 12))
        bit_ops = int(rng.integers(16, 56))
        mul_ops = int(rng.integers(0, 3))
    else:
        word_ops = int(rng.integers(16, 48))
        bit_ops = int(rng.integers(0, 8))
        mul_ops = int(rng.integers(0, 9))
    return DataPathSpec(
        name=name,
        word_ops=word_ops,
        mul_ops=mul_ops,
        div_ops=int(rng.integers(0, 2)),
        bit_ops=bit_ops,
        mem_bytes=int(rng.integers(8, 72)),
        fg_depth=int(rng.integers(4, 16)),
        sw_cycles=int(rng.integers(60, 260)),
        invocations=int(rng.integers(2, 17)),
        parallelizable=bool(rng.random() < 0.3),
    )


def synthetic_application(
    config: SyntheticWorkloadConfig = SyntheticWorkloadConfig(),
    seed: SeedLike = 0,
) -> Application:
    """Generate a reproducible random application for ``seed``."""
    rng = make_rng(seed)
    blocks: List[FunctionalBlock] = []
    for b in range(config.n_blocks):
        lo, hi = config.kernels_per_block
        n_kernels = int(rng.integers(lo, hi + 1))
        kernels = []
        for k in range(n_kernels):
            lo_d, hi_d = config.datapaths_per_kernel
            n_dps = int(rng.integers(lo_d, hi_d + 1))
            datapaths = [
                _random_datapath(
                    rng,
                    name=f"b{b}k{k}d{d}",
                    bit_dominant=bool(rng.random() < config.bit_dominant_probability),
                )
                for d in range(n_dps)
            ]
            kernels.append(
                Kernel(
                    name=f"b{b}.k{k}",
                    base_cycles=int(rng.integers(40, 200)),
                    datapaths=datapaths,
                )
            )
        blocks.append(FunctionalBlock(name=f"B{b}", kernels=kernels))

    iterations: List[BlockIteration] = []
    lo_e, hi_e = config.executions_range
    lo_g, hi_g = config.gap_range
    for _ in range(config.iterations):
        for block in blocks:
            kernel_iterations = [
                KernelIteration(
                    kernel=kernel.name,
                    executions=int(rng.integers(lo_e, hi_e + 1)),
                    gap=int(rng.integers(lo_g, hi_g + 1)),
                )
                for kernel in block.kernels
            ]
            iterations.append(BlockIteration(block.name, kernel_iterations))

    return Application(
        name=f"synthetic-{seed}", blocks=blocks, iterations=iterations
    )


__all__ = ["SyntheticWorkloadConfig", "synthetic_application"]
