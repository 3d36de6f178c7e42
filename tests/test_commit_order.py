"""One victim order per reconfiguration commit.

A commit collects and sorts its eviction victims once
(:meth:`ResourceState.victim_order`) and evicts from that order for every
missing copy.  These tests hold it to the per-copy loop it replaced -- kept
here as the reference: one full collect-and-sort ``evict`` call per
missing copy -- on random multi-copy commits, including pending FG
transfers that a cancellation reflows mid-commit.
"""

from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.datapath import DataPathImpl, DataPathInstance, DataPathSpec, FabricType
from repro.fabric.reconfig import ReconfigRequest, ReconfigurationController
from repro.fabric.resources import ResourceBudget, ResourceState
from repro.util.validation import ReproError

from tests.fig8_grid import FIG8_POLICIES, fig8_cells


# ----------------------------------------------------------- the reference


def reference_evict(resources, fabric, area_needed, now):
    """The per-copy eviction: collect and sort every victim of ``fabric``
    on each call, then evict in that order until enough area is free."""
    cg = fabric is FabricType.CG

    def free():
        return resources.free_area(fabric)

    if free() >= area_needed:
        return free()
    victims = []
    for copy in resources.iter_copies():
        if copy.cg is not cg or copy.pinned_by is not None:
            continue
        if copy.ready_at <= now:
            victims.append((0, copy.last_used, len(victims), copy))
        elif copy.transfer_start is not None and copy.transfer_start > now:
            victims.append((1, copy.last_used, len(victims), copy))
    victims.sort()
    for _, _, _, victim in victims:
        if free() >= area_needed:
            break
        if victim.is_cancellable(now) and resources.canceller is not None:
            resources.canceller(victim, now)
        resources._remove(victim)
        resources.eviction_log.append((now, victim.impl.name, victim.area))
    return free()


def reference_ensure(controller, instances, owner, now):
    """``ensure_configured`` with one :func:`reference_evict` per missing
    copy and the validating port schedulers."""
    resources = controller.resources
    ready = {}
    for instance in instances:
        impl = instance.impl
        quantity = instance.quantity
        already = resources.count(impl.uid)
        pinned = resources.pin_id(impl.uid, quantity, owner)
        for _ in range(quantity - min(already, quantity)):
            area_free = reference_evict(resources, impl.fabric, impl.area, now)
            if area_free < impl.area:
                raise ReproError(f"no fabric for {impl.name}")
            token = None
            if impl.fabric is FabricType.FG:
                start, done, token = controller.fg.schedule_reconfig(
                    now, impl.reconfig_cycles
                )
            else:
                start, done = controller.cg.schedule_reconfig(now, impl.reconfig_cycles)
            copy = resources.add_copy(impl, ready_at=done, pinned_by=owner)
            if token is not None:
                copy.transfer_start = start
                copy.port_token = token
                controller._token_copies[token] = copy
            controller.requests.append(
                ReconfigRequest(impl.name, impl.fabric, start, done, owner, now)
            )
        if pinned < quantity:
            resources.pin_id(impl.uid, quantity, owner)
        ready_at = resources.ready_time(impl.uid, quantity)
        ready[impl.name] = now if ready_at is None else ready_at
    return ready


def reference_commit(controller, selection, owner, now):
    """``commit_selection(strict=False)`` over :func:`reference_ensure`."""
    for instances in selection.values():
        for instance in instances:
            controller.resources.pin_id(instance.impl.uid, instance.quantity, owner)
    skipped = []
    for kernel, instances in selection.items():
        try:
            reference_ensure(controller, instances, owner, now)
        except ReproError:
            skipped.append(kernel)
    return skipped


class _Ise:
    """The one attribute of an ISE a commit reads."""

    def __init__(self, instances):
        self.instances = instances


# ------------------------------------------------------------------ drivers


def _impl(index, fabric, reconfig_cycles, area):
    spec = DataPathSpec(
        name=f"commit.dp{index}", word_ops=8, bit_ops=8, mem_bytes=8,
        fg_depth=4, sw_cycles=100, invocations=2,
    )
    return DataPathImpl(spec, fabric, 10, reconfig_cycles, area)


def _state(controller):
    """Everything a commit may change, as plain comparable data."""
    resources = controller.resources
    return {
        "eviction_log": list(resources.eviction_log),
        "requests": [astuple(r) for r in controller.requests],
        "copies": [
            (c.impl.name, c.ready_at, c.pinned_by, c.last_used, c.transfer_start)
            for c in resources.iter_copies()
        ],
        "version": resources.version,
        "cancelled_port_cycles": controller.cancelled_port_cycles,
        "port": [(t.token, t.start, t.done) for t in controller.fg._queue],
    }


def _apply(controller, step, impls, reference):
    """Run one drawn step on ``controller``; returns what it reported."""
    kind, owner, now, selection, touched, released = step
    controller.resources.touch_ids([impls[i].uid for i in touched], now)
    if released is not None:
        controller.release_owner(released)
    picks = {
        f"k{n}": [DataPathInstance(impls[i], qty) for i, qty in ise]
        for n, ise in enumerate(selection)
    }
    if kind == "commit":
        if reference:
            return reference_commit(controller, picks, owner, now)
        return controller.commit_selection(
            {k: _Ise(v) for k, v in picks.items()}, owner, now, strict=False
        )
    instances = [inst for ise in picks.values() for inst in ise]
    try:
        if reference:
            return reference_ensure(controller, instances, owner, now)
        return controller.ensure_configured(instances, owner, now)
    except ReproError:
        return "no fabric"


_ISE = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=3
)


@st.composite
def _scenario(draw):
    impls = [
        _impl(
            i,
            draw(st.sampled_from([FabricType.FG, FabricType.CG])),
            draw(st.integers(0, 120)),
            draw(st.integers(1, 2)),
        )
        for i in range(6)
    ]
    budget = ResourceBudget(
        n_prcs=draw(st.integers(1, 5)),
        n_cg_fabrics=draw(st.integers(1, 2)),
        contexts_per_cg_fabric=draw(st.integers(1, 3)),
    )
    steps = []
    now = 0
    owners = []
    for index in range(draw(st.integers(1, 12))):
        now += draw(st.integers(0, 60))
        owner = f"o{index}"
        released = draw(st.sampled_from(owners)) if owners and draw(st.booleans()) else None
        steps.append((
            draw(st.sampled_from(["commit", "ensure"])),
            owner,
            now,
            draw(st.lists(_ISE, min_size=1, max_size=3)),
            draw(st.lists(st.integers(0, 5), max_size=3)),
            released,
        ))
        owners.append(owner)
    return impls, budget, steps


class TestCommitMatchesPerCopyLoop:
    @settings(max_examples=150, deadline=None)
    @given(_scenario())
    def test_random_commits_identical(self, scenario):
        impls, budget, steps = scenario
        fast = ReconfigurationController(budget)
        slow = ReconfigurationController(budget)
        for step in steps:
            assert _apply(fast, step, impls, False) == _apply(slow, step, impls, True)
            assert _state(fast) == _state(slow)

    def test_cancelled_transfer_reflows_mid_commit(self):
        """Two released FG copies wait on the port behind a streaming one.
        The commit evicts both for a two-PRC copy in one call: the first
        is cancelled, the second's pending transfer moves up the queue,
        stays pending and is cancelled too, exactly as the per-copy loop
        does it."""
        small = [_impl(i, FabricType.FG, 100, 1) for i in range(3)]
        wide = _impl(3, FabricType.FG, 100, 2)
        controllers = [ReconfigurationController(ResourceBudget(3, 0)) for _ in "ab"]
        for controller in controllers:
            for index, impl in enumerate(small):
                controller.ensure_configured([DataPathInstance(impl)], f"old{index}", 0)
            controller.release_owner("old1")
            controller.release_owner("old2")
        fast, slow = controllers
        before = [c.ready_at for c in fast.resources.iter_copies()]
        assert before == [100, 200, 300]
        fast.commit_selection({"k": _Ise([DataPathInstance(wide)])}, "new", 50)
        reference_commit(slow, {"k": [DataPathInstance(wide)]}, "new", 50)
        assert _state(fast) == _state(slow)
        assert fast.resources.eviction_log == [
            (50, small[1].name, 1), (50, small[2].name, 1),
        ]
        assert fast.cancelled_port_cycles == 200

    def test_reflowed_victim_stays_in_order(self):
        """A cancellation in the first missing copy's eviction reflows a
        later victim's transfer; the second missing copy still evicts that
        victim from the same order."""
        fg = [_impl(10 + i, FabricType.FG, 40, 1) for i in range(3)]
        new = _impl(13, FabricType.FG, 40, 1)
        controllers = [ReconfigurationController(ResourceBudget(3, 0)) for _ in "ab"]
        for controller in controllers:
            controller.ensure_configured([DataPathInstance(fg[0])], "keep", 0)
            controller.ensure_configured(
                [DataPathInstance(fg[1]), DataPathInstance(fg[2])], "old", 0
            )
            controller.release_owner("old")
        fast, slow = controllers
        fast.ensure_configured([DataPathInstance(new, 2)], "new", 10)
        reference_ensure(slow, [DataPathInstance(new, 2)], "new", 10)
        assert _state(fast) == _state(slow)
        assert [entry[1] for entry in fast.resources.eviction_log] == [
            fg[1].name, fg[2].name,
        ]

    def test_victim_pinned_by_a_later_instance_is_skipped(self):
        """The first instance collects the order; the second pins a copy in
        it, so the third instance's eviction must pass over that copy."""
        a, b, c, d = (_impl(20 + i, FabricType.CG, 5, 1) for i in range(4))
        budget = ResourceBudget(0, 1, contexts_per_cg_fabric=2)
        controllers = [ReconfigurationController(budget) for _ in "ab"]
        for controller in controllers:
            controller.ensure_configured([DataPathInstance(a)], "old", 0)
            controller.ensure_configured([DataPathInstance(b)], "old", 0)
            controller.release_owner("old")
            controller.resources.touch_ids([b.uid], 50)
        instances = [DataPathInstance(c), DataPathInstance(b), DataPathInstance(d)]
        fast, slow = controllers
        with pytest.raises(ReproError):
            fast.ensure_configured(instances, "new", 100)
        with pytest.raises(ReproError):
            reference_ensure(slow, instances, "new", 100)
        assert _state(fast) == _state(slow)
        assert fast.resources.eviction_log == [(100, a.name, 1)]
        assert fast.resources.copies(b.name)[0].pinned_by == "new"


#: Commits (``commit_selection`` plus standalone ``ensure_configured``
#: calls) and victim sorts over the quick fig8 grid.  The per-copy loop
#: sorted 354 times there, once per missing copy that needed eviction.
QUICK_COMMITS, QUICK_SORTS = 101, 84


class TestOneSortPerCommit:
    def test_quick_grid_sorts_pinned(self, monkeypatch):
        """Every policy of the quick fig8 grid (h264 frames=4): no commit
        sorts its victims more than once, and the grid's totals are pinned."""
        from repro.experiments.engine import execute_cell

        sorts = []
        per_commit = []
        original_order = ResourceState.victim_order
        original_commit = ReconfigurationController.commit_selection
        original_ensure = ReconfigurationController.ensure_configured

        def counting_order(self, now):
            sorts.append(now)
            return original_order(self, now)

        def counted(method):
            def wrapper(self, *args, **kwargs):
                before = len(sorts)
                result = method(self, *args, **kwargs)
                per_commit.append(len(sorts) - before)
                return result
            return wrapper

        monkeypatch.setattr(ResourceState, "victim_order", counting_order)
        monkeypatch.setattr(
            ReconfigurationController, "commit_selection", counted(original_commit)
        )
        monkeypatch.setattr(
            ReconfigurationController, "ensure_configured", counted(original_ensure)
        )
        for cell in fig8_cells(FIG8_POLICIES, frames=4):
            execute_cell(cell)
        assert max(per_commit) == 1
        assert (len(per_commit), len(sorts)) == (QUICK_COMMITS, QUICK_SORTS)

