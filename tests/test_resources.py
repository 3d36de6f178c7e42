"""Resource budgets, occupancy accounting, pinning and LRU eviction."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fabric.cost_model import DEFAULT_COST_MODEL
from repro.fabric.datapath import DataPathSpec, FabricType
from repro.fabric.resources import ResourceBudget, ResourceState
from repro.util.validation import ValidationError


@pytest.fixture
def fg_impl(cond_spec):
    return DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG)


@pytest.fixture
def cg_impl(filt_spec):
    return DEFAULT_COST_MODEL.implement(filt_spec, FabricType.CG)


@pytest.fixture
def state():
    return ResourceState(ResourceBudget(n_prcs=3, n_cg_fabrics=2))


class TestResourceBudget:
    def test_cg_area_counts_context_slots(self):
        budget = ResourceBudget(n_prcs=1, n_cg_fabrics=2, contexts_per_cg_fabric=4)
        assert budget.total(FabricType.CG) == 8
        assert budget.total(FabricType.FG) == 1

    def test_label_is_cg_then_prc(self):
        assert ResourceBudget(n_prcs=3, n_cg_fabrics=2).label == "23"

    def test_zero_budget_allowed(self):
        budget = ResourceBudget(n_prcs=0, n_cg_fabrics=0)
        assert budget.total(FabricType.FG) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ResourceBudget(n_prcs=-1, n_cg_fabrics=0)

    def test_zero_contexts_rejected(self):
        with pytest.raises(ValidationError):
            ResourceBudget(n_prcs=0, n_cg_fabrics=1, contexts_per_cg_fabric=0)


class TestOccupancy:
    def test_add_copy_consumes_area(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=10)
        assert state.used_area(FabricType.FG) == fg_impl.area
        assert state.free_area(FabricType.FG) == 3 - fg_impl.area

    def test_add_copy_overflow_raises(self, state, fg_impl):
        for _ in range(3 // fg_impl.area):
            state.add_copy(fg_impl, ready_at=0)
        with pytest.raises(ValidationError):
            state.add_copy(fg_impl, ready_at=0)

    def test_ready_quantity_respects_time(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=100)
        state.add_copy(fg_impl, ready_at=200)
        assert state.ready_quantity(fg_impl.name, 150) == 1
        assert state.ready_quantity(fg_impl.name, 200) == 2

    def test_ready_at_kth_copy(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=100)
        state.add_copy(fg_impl, ready_at=50)
        assert state.ready_at(fg_impl.name, 1) == 50
        assert state.ready_at(fg_impl.name, 2) == 100
        assert state.ready_at(fg_impl.name, 3) is None

    def test_snapshot(self, state, fg_impl, cg_impl):
        state.add_copy(fg_impl, ready_at=0)
        state.add_copy(cg_impl, ready_at=0)
        state.add_copy(cg_impl, ready_at=0)
        assert state.snapshot() == {fg_impl.name: 1, cg_impl.name: 2}

    def test_clear(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0)
        state.clear()
        assert state.used_area(FabricType.FG) == 0


class TestPinning:
    def test_pin_and_unpin_owner(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0)
        assert state.pin(fg_impl.name, 1, "a") == 1
        assert state.unpinned_area(FabricType.FG) == 3 - fg_impl.area
        state.unpin_owner("a")
        assert state.unpinned_area(FabricType.FG) == 3

    def test_pin_counts_existing_owner_pins(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0, pinned_by="a")
        assert state.pin(fg_impl.name, 1, "a") == 1

    def test_pin_does_not_steal_other_owners(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0, pinned_by="a")
        assert state.pin(fg_impl.name, 1, "b") == 0


class TestEviction:
    def test_evicts_lru_first(self, state, fg_impl):
        c1 = state.add_copy(fg_impl, ready_at=0)
        c2 = state.add_copy(fg_impl, ready_at=0)
        c3 = state.add_copy(fg_impl, ready_at=0)
        c1.last_used = 300
        c2.last_used = 100
        c3.last_used = 200
        state.evict(FabricType.FG, area_needed=1, now=1000)
        names = [c.last_used for c in state.iter_copies()]
        assert 100 not in names and 300 in names and 200 in names

    def test_pinned_copies_survive(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0, pinned_by="a")
        free = state.evict(FabricType.FG, area_needed=3, now=10)
        assert free == 3 - fg_impl.area

    def test_inflight_copies_survive(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=10**9)
        free = state.evict(FabricType.FG, area_needed=3, now=0)
        assert free == 3 - fg_impl.area

    def test_noop_when_enough_free(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0)
        assert state.evict(FabricType.FG, area_needed=1, now=10) >= 1
        assert state.configured_quantity(fg_impl.name) == 1

    def test_touch_updates_lru(self, state, fg_impl):
        c1 = state.add_copy(fg_impl, ready_at=0)
        state.add_copy(fg_impl, ready_at=0)
        state.add_copy(fg_impl, ready_at=0)
        state.touch(fg_impl.name, 500)
        assert c1.last_used == 500


class TestAllocatable:
    def test_allocatable_excludes_pinned_and_inflight(self, state, fg_impl):
        state.add_copy(fg_impl, ready_at=0, pinned_by="a")  # pinned
        state.add_copy(fg_impl, ready_at=10**9)             # in flight
        state.add_copy(fg_impl, ready_at=0)                 # evictable
        assert state.allocatable_area(FabricType.FG, now=100) == 1

    def test_allocatable_equals_total_when_empty(self, state):
        assert state.allocatable_area(FabricType.FG, now=0) == 3
        assert state.allocatable_area(FabricType.CG, now=0) == 8


# ------------------------------------------------ running occupancy totals


#: FG and CG implementations of one to three area units each.
_IMPLS = [
    DEFAULT_COST_MODEL.implement(
        DataPathSpec(name=f"d{cost}", word_ops=4, prc_cost=cost, cg_cost=cost),
        fabric,
    )
    for cost in (1, 2, 3)
    for fabric in FabricType
]

_OWNERS = st.sampled_from(("a", "b", "c"))


class RunningTotalsMachine(RuleBasedStateMachine):
    """Every mutation keeps the O(1) occupancy totals equal to sums over
    :meth:`ResourceState.iter_copies` -- kept here only as the oracle."""

    def __init__(self):
        super().__init__()
        self.state = ResourceState(ResourceBudget(n_prcs=4, n_cg_fabrics=2))
        self.cancelled = []
        self.state.canceller = lambda copy, now: self.cancelled.append(copy)

    @rule(
        impl=st.sampled_from(_IMPLS),
        ready_at=st.integers(min_value=0, max_value=100),
        owner=st.none() | _OWNERS,
        transfer_start=st.none() | st.integers(min_value=0, max_value=100),
    )
    def add_copy(self, impl, ready_at, owner, transfer_start):
        if impl.area > self.state.free_area(impl.fabric):
            with pytest.raises(ValidationError):
                self.state.add_copy(impl, ready_at, pinned_by=owner)
            return
        copy = self.state.add_copy(impl, ready_at, pinned_by=owner)
        copy.transfer_start = transfer_start

    @rule(impl=st.sampled_from(_IMPLS))
    def add_pending_copy(self, impl):
        """An unpinned copy whose port transfer starts after every ``now``
        drawn here: cancellable, so eviction goes through the canceller."""
        if impl.area <= self.state.free_area(impl.fabric):
            self.state.add_copy(impl, ready_at=1000).transfer_start = 500

    @rule(impl=st.sampled_from(_IMPLS), quantity=st.integers(0, 3), owner=_OWNERS)
    def pin(self, impl, quantity, owner):
        self.state.pin(impl.name, quantity, owner)

    @rule(owner=_OWNERS)
    def unpin_owner(self, owner):
        self.state.unpin_owner(owner)

    @rule(owner=_OWNERS, now=st.integers(min_value=0, max_value=100))
    def remove_owner(self, owner, now):
        self.state.remove_owner(owner, now)

    @rule(
        fabric=st.sampled_from(FabricType),
        area=st.integers(min_value=0, max_value=8),
        now=st.integers(min_value=0, max_value=100),
    )
    def evict(self, fabric, area, now):
        cancelled = len(self.cancelled)
        cancellable = sum(
            1 for c in self.state.iter_copies()
            if c.fabric is fabric and c.pinned_by is None and c.is_cancellable(now)
        )
        self.state.evict(fabric, area, now)
        assert len(self.cancelled) - cancelled <= cancellable

    @rule()
    def clear(self):
        self.state.clear()

    @invariant()
    def totals_match_the_copies(self):
        state = self.state
        for fabric in FabricType:
            copies = [c for c in state.iter_copies() if c.fabric is fabric]
            used = sum(c.area for c in copies)
            unpinned = sum(c.area for c in copies if c.pinned_by is None)
            total = state.budget.total(fabric)
            assert state.used_area(fabric) == used
            assert state.free_area(fabric) == total - used
            assert state.unpinned_area(fabric) == total - used + unpinned


RunningTotalsMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestRunningTotals = RunningTotalsMachine.TestCase
