"""The ISE data structure and its intermediate-ISE latency staircase.

An :class:`ISE` is an ordered list of data-path instances for one kernel.
The order is the *reconfiguration order*: after the first ``i`` instances
are configured, the kernel can already execute on the ``i``-th *intermediate
ISE* (Section 4.1, "Analyzing the profit function").  Level ``0`` is RISC
mode, level ``n`` the fully reconfigured ISE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fabric.datapath import DataPathInstance, FabricType
from repro.fabric.interconnect import DEFAULT_INTERCONNECT, Interconnect
from repro.ise.kernel import Kernel
from repro.util.validation import ValidationError

#: Reporting name for the "no ISE / RISC mode" pseudo-selection.
NULL_ISE_NAME = "<risc>"


@dataclass(frozen=True)
class ISE:
    """An instruction set extension of one kernel.

    Attributes
    ----------
    kernel:
        The kernel this ISE accelerates.
    name:
        Unique identifier, e.g. ``"lf.deblock_luma/cond@fg+filt@cg"``.
    instances:
        Data-path instances in reconfiguration order.
    latencies:
        ``latencies[i]`` is the kernel-execution latency (core cycles) of the
        ``i``-th intermediate ISE; ``latencies[0]`` is RISC mode.  The
        staircase is non-increasing by construction: the ECU would simply not
        use an extra data path that slowed the kernel down.

    Besides the dataclass fields, construction precompiles the static
    structures the run-time selector hammers on every greedy round (they are
    plain attributes, excluded from equality/hash):

    ``footprint``
        Frozen set of qualified implementation names this ISE touches --
        the key the selector's inverted index and invalidation sets use.
    ``instance_rows``
        Flattened ``(impl_name, quantity, fabric, reconfig_cycles)`` tuples
        in reconfiguration order, saving attribute chains in the hot loop.
    ``fg_requirements``
        ``(impl_name, quantity)`` of the FG instances only: a candidate's
        predicted schedule depends on the bitstream-port backlog exactly
        when one of these is not fully covered.
    ``profit_bound_per_execution``
        ``max(0, latencies[0] - min(level latencies))`` -- the most cycles
        one kernel execution can save on this ISE.  Since the profit phases
        (Eqs. 2-4) distribute at most ``e`` executions over the levels,
        ``e * profit_bound_per_execution`` upper-bounds the profit for any
        schedule in real arithmetic (the *computed* float profit can exceed
        it by a few ulps of summation rounding), which lets the packed
        selector prune candidates that cannot beat the current argmax
        without evaluating them (with a relative slack covering the
        rounding -- see ``selector.BOUND_PRUNE_SLACK``).
    """

    kernel: Kernel
    name: str
    instances: Tuple[DataPathInstance, ...]
    latencies: Tuple[int, ...]

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        instances: Sequence[DataPathInstance],
        interconnect: Interconnect = DEFAULT_INTERCONNECT,
    ):
        if not instances:
            raise ValidationError(f"ISE {name!r} needs at least one data-path instance")
        seen = set()
        kernel_datapaths = {dp.name for dp in kernel.datapaths}
        for instance in instances:
            key = instance.impl.name
            if key in seen:
                raise ValidationError(
                    f"ISE {name!r} lists {key} twice; use quantity instead"
                )
            seen.add(key)
            if instance.impl.spec.name not in kernel_datapaths:
                raise ValidationError(
                    f"ISE {name!r} uses data path {instance.impl.spec.name!r}, "
                    f"which kernel {kernel.name!r} does not define"
                )
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "instances", tuple(instances))
        object.__setattr__(
            self, "latencies", tuple(self._compute_latencies(kernel, instances, interconnect))
        )
        # Precompiled static structures (see the class docstring).  These are
        # set once at library-build time so the per-trigger selector never
        # rebuilds them; they are not dataclass fields and therefore do not
        # participate in equality or hashing.
        object.__setattr__(
            self, "footprint", frozenset(inst.impl.name for inst in self.instances)
        )
        object.__setattr__(
            self,
            "instance_rows",
            tuple(
                (inst.impl.name, inst.quantity, inst.fabric, inst.impl.reconfig_cycles)
                for inst in self.instances
            ),
        )
        object.__setattr__(
            self,
            "fg_requirements",
            tuple(
                (inst.impl.name, inst.quantity)
                for inst in self.instances
                if inst.fabric is FabricType.FG
            ),
        )
        object.__setattr__(
            self,
            "profit_bound_per_execution",
            max(0, self.latencies[0] - min(self.latencies[1:])),
        )
        object.__setattr__(
            self,
            "_area_by_fabric",
            {
                fabric: sum(
                    inst.area for inst in self.instances if inst.fabric is fabric
                )
                for fabric in FabricType
            },
        )

    @staticmethod
    def _compute_latencies(
        kernel: Kernel,
        instances: Sequence[DataPathInstance],
        interconnect: Interconnect,
    ) -> List[int]:
        """Latency staircase: RISC latency minus accumulated data-path savings
        plus interconnect hops among the configured data paths.

        Hops are charged along the kernel's *data-flow* order (adjacent data
        paths exchange results), independent of the reconfiguration order of
        the instances.
        """
        flow_position = {dp.name: i for i, dp in enumerate(kernel.datapaths)}
        latencies = [kernel.risc_latency]
        saving = 0
        for i, instance in enumerate(instances, start=1):
            saving += instance.saving_per_execution()
            configured = sorted(
                instances[:i], key=lambda inst: flow_position[inst.impl.spec.name]
            )
            hops = interconnect.chain_cycles([inst.fabric for inst in configured])
            raw = kernel.risc_latency - saving + hops
            latencies.append(max(1, min(latencies[-1], raw)))
        return latencies

    # ----------------------------------------------------------- geometry
    @property
    def n_levels(self) -> int:
        """Number of intermediate ISE levels (== number of instances)."""
        return len(self.instances)

    def area(self, fabric: FabricType) -> int:
        """Fabric area (PRCs or CG fabrics) the full ISE occupies
        (precomputed at construction)."""
        return self._area_by_fabric[fabric]

    @property
    def fg_area(self) -> int:
        return self.area(FabricType.FG)

    @property
    def cg_area(self) -> int:
        return self.area(FabricType.CG)

    @property
    def granularities(self) -> frozenset:
        """The fabric types this ISE uses."""
        return frozenset(inst.fabric for inst in self.instances)

    @property
    def is_multigrained(self) -> bool:
        """True if the ISE spans both fabric types (an MG-ISE)."""
        return len(self.granularities) == 2

    def is_pure(self, fabric: FabricType) -> bool:
        """True if every data path of this ISE lives on ``fabric``."""
        return self.granularities == frozenset({fabric})

    # ------------------------------------------------------------ latency
    def latency(self, level: int) -> int:
        """Kernel-execution latency of intermediate ISE ``level`` (0 = RISC)."""
        return self.latencies[level]

    @property
    def full_latency(self) -> int:
        """Latency with every data path configured (Eq. 1's ``hw_time``)."""
        return self.latencies[-1]

    def saving(self, level: int) -> int:
        """Cycles saved per execution at ``level`` vs. RISC mode."""
        return self.latencies[0] - self.latencies[level]

    # ----------------------------------------------------- reconfiguration
    def reconfig_schedule(self) -> List[int]:
        """Contention-free ``recT``: completion time of each level from a cold
        start at cycle 0 (FG instances serialise on the bitstream port, CG
        instances load in parallel)."""
        fg_port = 0
        ready = []
        for instance in self.instances:
            if instance.fabric is FabricType.FG:
                fg_port += instance.total_reconfig_cycles
                ready.append(fg_port)
            else:
                ready.append(instance.impl.reconfig_cycles)
        schedule = []
        completed = 0
        for t in ready:
            completed = max(completed, t)
            schedule.append(completed)
        return schedule

    @property
    def total_reconfig_cycles(self) -> int:
        """Contention-free cycles until the full ISE is ready (Eq. 1's
        ``reconfiguration latency``)."""
        return self.reconfig_schedule()[-1]

    # ------------------------------------------------------------ coverage
    def missing_instances(
        self, available: Mapping[str, int]
    ) -> List[Tuple[DataPathInstance, int]]:
        """Instances (and missing quantities) not covered by ``available``
        (a map of qualified implementation name -> configured quantity)."""
        missing = []
        for instance in self.instances:
            have = available.get(instance.impl.name, 0)
            if have < instance.quantity:
                missing.append((instance, instance.quantity - have))
        return missing

    def covered_by(self, available: Mapping[str, int]) -> bool:
        """True if every data path of this ISE is already configured
        (Step 2b of the selection algorithm, Fig. 6)."""
        return not self.missing_instances(available)

    def missing_area(self, available: Mapping[str, int], fabric: FabricType) -> int:
        """Fabric area still required given the ``available`` configurations."""
        return sum(
            inst.impl.area * qty
            for inst, qty in self.missing_instances(available)
            if inst.fabric is fabric
        )

    def shares_datapaths_with(self, other: "ISE") -> bool:
        """Whether the two ISEs have at least one implementation in common."""
        return bool(self.footprint & other.footprint)

    # ----------------------------------------------------------- equality
    def signature(self) -> frozenset:
        """Canonical identity: the multiset of (implementation, quantity)."""
        return frozenset((inst.impl.name, inst.quantity) for inst in self.instances)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ISE({self.name}, fg={self.fg_area}, cg={self.cg_area}, hw={self.full_latency})"


__all__ = ["ISE", "NULL_ISE_NAME"]
