"""The compile-time prepared ISE library handed to the run-time system.

At compile time the fabric budget is fixed and known, so all non-fitting
ISEs are filtered out (Section 4).  The library maps each kernel to its
candidate ISEs and its monoCG-Extension, and reports the size of the joint
selection search space (the paper counts >78 million combinations for six
kernels, which motivates the heuristic selector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.fabric.cost_model import DEFAULT_COST_MODEL, TechnologyCostModel
from repro.fabric.resources import ResourceBudget
from repro.ise.builder import BuilderConfig, ISEBuilder
from repro.ise.ise import ISE
from repro.ise.kernel import Kernel
from repro.ise.monocg import MonoCGExtension, build_monocg
from repro.util.validation import ReproError


class ISELibrary:
    """Candidate ISEs (and monoCG-Extensions) for a set of kernels."""

    def __init__(
        self,
        kernels: Sequence[Kernel],
        budget: ResourceBudget,
        cost_model: TechnologyCostModel = DEFAULT_COST_MODEL,
        builder: Optional[ISEBuilder] = None,
        extra_ises: Mapping[str, Sequence[ISE]] = (),
    ):
        """Build the library for ``kernels`` under ``budget``.

        ``extra_ises`` lets workloads register hand-crafted ISEs (e.g. the
        three case-study ISEs of the deblocking filter) alongside the
        enumerated variants; they go through the same fitting filter.
        """
        if builder is None:
            builder = ISEBuilder(cost_model=cost_model)
        self.budget = budget
        self.kernels: Dict[str, Kernel] = {}
        self._candidates: Dict[str, Tuple[ISE, ...]] = {}
        self._monocg: Dict[str, MonoCGExtension] = {}
        extras = dict(extra_ises) if extra_ises else {}
        for kernel in kernels:
            if kernel.name in self.kernels:
                raise ReproError(f"duplicate kernel {kernel.name!r} in library")
            self.kernels[kernel.name] = kernel
            candidates = builder.build(kernel)
            for extra in extras.get(kernel.name, ()):
                if extra.signature() not in {c.signature() for c in candidates}:
                    candidates.append(extra)
            self._candidates[kernel.name] = tuple(
                ISEBuilder.filter_fitting(candidates, budget)
            )
            self._monocg[kernel.name] = build_monocg(kernel, cost_model)

    # ------------------------------------------------------------- access
    def candidates(self, kernel_name: str) -> List[ISE]:
        """Fitting candidate ISEs of ``kernel_name`` (may be empty)."""
        try:
            return list(self._candidates[kernel_name])
        except KeyError:
            raise KeyError(f"unknown kernel {kernel_name!r}") from None

    def candidate_tuple(self, kernel_name: str) -> Tuple[ISE, ...]:
        """The internal (immutable) candidate tuple -- the hot-path variant
        of :meth:`candidates` that does not copy.  Positions in this tuple
        are the candidate indices the selector's tie-break uses."""
        try:
            return self._candidates[kernel_name]
        except KeyError:
            raise KeyError(f"unknown kernel {kernel_name!r}") from None

    def monocg(self, kernel_name: str) -> MonoCGExtension:
        """The monoCG-Extension of ``kernel_name``."""
        try:
            return self._monocg[kernel_name]
        except KeyError:
            raise KeyError(f"unknown kernel {kernel_name!r}") from None

    def kernel(self, kernel_name: str) -> Kernel:
        try:
            return self.kernels[kernel_name]
        except KeyError:
            raise KeyError(f"unknown kernel {kernel_name!r}") from None

    def kernel_names(self) -> List[str]:
        return list(self.kernels)

    # ---------------------------------------------------------- reporting
    def candidate_counts(self) -> Dict[str, int]:
        """Kernel name -> number of fitting candidate ISEs."""
        return {name: len(ises) for name, ises in self._candidates.items()}

    def search_space_size(self, kernel_names: Optional[Iterable[str]] = None) -> int:
        """Number of joint selections an optimal algorithm must consider:
        one ISE (or RISC mode) per kernel, i.e. prod(M_k + 1)."""
        names = list(kernel_names) if kernel_names is not None else self.kernel_names()
        size = 1
        for name in names:
            size *= len(self._candidates[name]) + 1
        return size


__all__ = ["ISELibrary"]
