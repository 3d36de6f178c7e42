"""Optional candidate pruning for the run-time selector.

The greedy selector's cost is O(rounds x candidates) profit evaluations;
on a processor that matters (the overhead model charges per evaluation).
Pruning Pareto-dominated candidates -- some other candidate of the same
kernel is no worse in execution latency, reconfiguration time and both area
dimensions -- shrinks the candidate lists substantially at (usually) no
quality cost.

The risk, and why pruning is off by default: dominance is evaluated on the
*cold-start* objective vector.  Under data-path sharing (Step 2b) a
dominated candidate can still be the best pick when its data paths happen
to be configured already.  To keep that reuse path alive, pruning retains,
in addition to the front, every candidate that is fully covered by another
retained candidate's data paths... which in practice is the front itself --
so the rule is simply: keep the front, and measure (the ablation bench
shows the quality effect stays within noise on the H.264 workload while
evaluations drop severalfold).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ise.ise import ISE
from repro.ise.pareto import pareto_front


def prune_candidates(candidates: Sequence[ISE]) -> List[ISE]:
    """The Pareto-front subset of ``candidates`` (cold-start objectives)."""
    return [point.ise for point in pareto_front(candidates)]


class PrunedLibraryView:
    """A read-only view of an ISE library with per-kernel pruned candidates.

    Implements the subset of the :class:`~repro.ise.library.ISELibrary`
    interface the selectors use, so it can be handed to
    :class:`~repro.core.selector.ISESelector` directly.
    """

    def __init__(self, library):
        self._library = library
        self._pruned: Dict[str, List[ISE]] = {}

    @property
    def kernels(self):
        """The underlying kernel map (read-only use)."""
        return self._library.kernels

    def candidates(self, kernel_name: str) -> List[ISE]:
        """Pruned candidate list of ``kernel_name`` (computed lazily)."""
        if kernel_name not in self._pruned:
            self._pruned[kernel_name] = prune_candidates(
                self._library.candidates(kernel_name)
            )
        return list(self._pruned[kernel_name])

    def candidate_tuple(self, kernel_name: str) -> Tuple[ISE, ...]:
        """Pruned candidates as an immutable tuple (selector hot path)."""
        return tuple(self.candidates(kernel_name))

    def monocg(self, kernel_name: str):
        """Delegate to the underlying library."""
        return self._library.monocg(kernel_name)

    def kernel(self, kernel_name: str):
        """Delegate to the underlying library."""
        return self._library.kernel(kernel_name)

    def kernel_names(self) -> List[str]:
        """Delegate to the underlying library."""
        return self._library.kernel_names()

    def pruning_ratio(self, kernel_name: str) -> float:
        """Fraction of candidates removed for ``kernel_name``."""
        full = len(self._library.candidates(kernel_name))
        if full == 0:
            return 0.0
        return 1.0 - len(self.candidates(kernel_name)) / full


__all__ = ["prune_candidates", "PrunedLibraryView"]
