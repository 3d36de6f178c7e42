"""The reconfiguration controller: scheduling, previews, commits."""

import pytest

from repro.fabric.cost_model import DEFAULT_COST_MODEL
from repro.fabric.datapath import DataPathInstance, DataPathSpec, FabricType
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.ise import ISE
from repro.ise.monocg import build_monocg
from repro.util.validation import ReproError


@pytest.fixture
def fg_inst(cond_spec):
    return DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))


@pytest.fixture
def cg_inst(filt_spec):
    return DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.CG))


class TestEnsureConfigured:
    def test_fg_requests_queue_on_port(self, controller, fg_inst, cond_spec, filt_spec):
        other = DataPathInstance(
            DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG)
        )
        ready1 = controller.ensure_configured([fg_inst], "a", now=0)
        ready2 = controller.ensure_configured([other], "a", now=0)
        assert ready2[other.impl.name] == (
            ready1[fg_inst.impl.name] + other.impl.reconfig_cycles
        )

    def test_cg_requests_do_not_queue(self, controller, cg_inst):
        ready = controller.ensure_configured([cg_inst], "a", now=100)
        assert ready[cg_inst.impl.name] == 100 + cg_inst.impl.reconfig_cycles

    def test_existing_copies_are_reused(self, controller, fg_inst):
        first = controller.ensure_configured([fg_inst], "a", now=0)
        count = controller.reconfig_count
        second = controller.ensure_configured([fg_inst], "b", now=10)
        assert controller.reconfig_count == count, "no new transfer"
        assert second[fg_inst.impl.name] == first[fg_inst.impl.name]

    def test_eviction_frees_stale_configs(self, cond_spec, filt_spec):
        controller = ReconfigurationController(ResourceBudget(n_prcs=1, n_cg_fabrics=0))
        a = DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))
        b = DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG))
        controller.ensure_configured([a], "one", now=0)
        controller.release_owner("one")
        # a is configured but unpinned; b must evict it.
        controller.ensure_configured([b], "two", now=10**7)
        assert controller.resources.configured_quantity(a.impl.name) == 0
        assert controller.resources.configured_quantity(b.impl.name) == 1

    def test_pinned_blockage_raises(self, cond_spec, filt_spec):
        controller = ReconfigurationController(ResourceBudget(n_prcs=1, n_cg_fabrics=0))
        a = DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))
        b = DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG))
        controller.ensure_configured([a], "one", now=0)
        with pytest.raises(ReproError, match="no fabric"):
            controller.ensure_configured([b], "two", now=10**7)

    def test_quantity_configures_multiple_copies(self, controller, cg_inst, filt_spec):
        inst2 = DataPathInstance(cg_inst.impl, quantity=2)
        controller.ensure_configured([inst2], "a", now=0)
        assert controller.resources.configured_quantity(cg_inst.impl.name) == 2


class TestPreview:
    def test_preview_matches_commit(self, controller, fg_inst, cg_inst):
        predicted = controller.preview_ready_times([cg_inst, fg_inst], now=0)
        ready = controller.ensure_configured([cg_inst, fg_inst], "a", now=0)
        assert predicted == [ready[cg_inst.impl.name], ready[fg_inst.impl.name]]

    def test_preview_does_not_commit(self, controller, fg_inst):
        controller.preview_ready_times([fg_inst], now=0)
        assert controller.reconfig_count == 0
        assert controller.resources.configured_quantity(fg_inst.impl.name) == 0

    def test_preview_uses_existing_ready_times(self, controller, fg_inst):
        ready = controller.ensure_configured([fg_inst], "a", now=0)
        predicted = controller.preview_ready_times([fg_inst], now=0)
        assert predicted == [ready[fg_inst.impl.name]]


class TestCommitSelection:
    def test_two_phase_pinning_protects_coverage(self, kernel, cond_spec, filt_spec):
        """A copy one selected ISE relies on must not be evicted when
        another selected ISE's commit needs fabric."""
        controller = ReconfigurationController(ResourceBudget(n_prcs=2, n_cg_fabrics=1))
        cm = DEFAULT_COST_MODEL
        cond_fg = DataPathInstance(cm.implement(cond_spec, FabricType.FG))
        filt_fg = DataPathInstance(cm.implement(filt_spec, FabricType.FG))
        ise_a = ISE(kernel, "k/a", [cond_fg])
        ise_b = ISE(kernel, "k/b", [filt_fg])
        # cond_fg already configured from an earlier block, now unpinned.
        controller.ensure_configured([cond_fg], "old", now=0)
        controller.release_owner("old")
        controller.commit_selection({"k1": ise_a, "k2": ise_b}, "new", now=10**7)
        assert controller.resources.configured_quantity(cond_fg.impl.name) == 1
        assert controller.resources.configured_quantity(filt_fg.impl.name) == 1

    def test_none_entries_are_ignored(self, controller):
        controller.commit_selection({"k": None}, "a", now=0)
        assert controller.reconfig_count == 0


class TestMisc:
    def test_free_cg_fabric_available(self, controller, cg_inst):
        assert controller.free_cg_fabric_available(0)
        slots = controller.budget.total(FabricType.CG)
        inst = DataPathInstance(cg_inst.impl, quantity=slots)
        controller.ensure_configured([inst], "a", now=0)
        assert not controller.free_cg_fabric_available(0)
        controller.release_owner("a")
        assert controller.free_cg_fabric_available(10**6), "evictable counts"

    def test_loading_cg_copy_is_not_free_fabric(self, kernel, cg_inst):
        """An unpinned monoCG context that is still loading holds its slot:
        eviction cannot abort it, so offering the slot would make the
        monoCG configuration raise ``no fabric ... 0 free after eviction``.
        """
        budget = ResourceBudget(n_prcs=0, n_cg_fabrics=1, contexts_per_cg_fabric=1)
        controller = ReconfigurationController(budget)
        monocg = build_monocg(kernel)
        done = controller.ensure_configured([monocg.instance], "m", now=0)[
            monocg.impl_name
        ]
        assert done > 1
        controller.release_owner("m")
        assert not controller.free_cg_fabric_available(1)
        with pytest.raises(ReproError, match="0 free after eviction"):
            controller.ensure_configured([cg_inst], "other", now=1)
        # Once loaded, the unpinned copy is evictable again.
        assert controller.free_cg_fabric_available(done)

    def test_reset(self, controller, fg_inst):
        controller.ensure_configured([fg_inst], "a", now=0)
        controller.reset()
        assert controller.reconfig_count == 0
        assert controller.fg.port_available_at == 0
        assert controller.resources.snapshot() == {}


class TestTransferCancellation:
    def test_eviction_cancels_pending_transfer(self, cond_spec, filt_spec):
        """Evicting a copy whose bitstream has not started frees the port:
        the replacement transfer starts earlier than it would have."""
        controller = ReconfigurationController(ResourceBudget(n_prcs=2, n_cg_fabrics=0))
        a = DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))
        b = DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG))
        # a streams immediately; a second copy of b queues behind it.
        controller.ensure_configured([a], "one", now=0)
        controller.ensure_configured([b], "one", now=0)
        controller.release_owner("one")
        # At t=10 both PRCs are claimed; b's transfer is still pending ->
        # evictable via cancellation, so a new FG config fits.
        c_spec = DataPathSpec(
            name="k.third", word_ops=10, bit_ops=10, mem_bytes=8,
            fg_depth=6, sw_cycles=120, invocations=4,
        )
        # third data path must belong to some kernel for ISE use; here we
        # configure the instance directly (no ISE involved).
        c = DataPathInstance(DEFAULT_COST_MODEL.implement(c_spec, FabricType.FG))
        ready = controller.ensure_configured([c], "two", now=10)
        assert controller.resources.configured_quantity(b.impl.name) == 0
        assert controller.fg.cancelled_transfers == 1
        # c reuses b's cancelled port slot: ready right after a finishes + c.
        expected = a.impl.reconfig_cycles + c.impl.reconfig_cycles
        assert ready[c.impl.name] == expected

    def test_streaming_transfer_blocks_eviction(self, cond_spec, filt_spec):
        controller = ReconfigurationController(ResourceBudget(n_prcs=1, n_cg_fabrics=0))
        a = DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))
        controller.ensure_configured([a], "one", now=0)
        controller.release_owner("one")
        b = DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG))
        # a is streaming at t=10: not evictable, b cannot be configured.
        with pytest.raises(ReproError, match="no fabric"):
            controller.ensure_configured([b], "two", now=10)

    def test_allocatable_area_counts_cancellable_copies(self, cond_spec, filt_spec):
        controller = ReconfigurationController(ResourceBudget(n_prcs=2, n_cg_fabrics=0))
        a = DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))
        b = DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG))
        controller.ensure_configured([a], "one", now=0)   # streaming
        controller.ensure_configured([b], "one", now=0)   # pending
        controller.release_owner("one")
        # a is mid-transfer (exempt); b's transfer is cancellable.
        assert controller.resources.allocatable_area(FabricType.FG, now=10) == 1

    def test_reflow_updates_sibling_ready_times(self, cond_spec, filt_spec):
        controller = ReconfigurationController(ResourceBudget(n_prcs=3, n_cg_fabrics=0))
        a = DataPathInstance(DEFAULT_COST_MODEL.implement(cond_spec, FabricType.FG))
        b = DataPathInstance(DEFAULT_COST_MODEL.implement(filt_spec, FabricType.FG))
        c_spec = DataPathSpec(
            name="k.third", word_ops=10, bit_ops=10, mem_bytes=8,
            fg_depth=6, sw_cycles=120, invocations=4,
        )
        c = DataPathInstance(DEFAULT_COST_MODEL.implement(c_spec, FabricType.FG))
        controller.ensure_configured([a], "x", now=0)
        controller.ensure_configured([b], "y", now=0)
        controller.ensure_configured([c], "z", now=0)   # queued 3rd
        old_ready = controller.resources.ready_at(c.impl.name, 1)
        # Cancel b (pending) by evicting it for nothing -- use remove path:
        controller.release_owner("y")
        controller.resources.evict(FabricType.FG, area_needed=1, now=10)
        new_ready = controller.resources.ready_at(c.impl.name, 1)
        assert new_ready < old_ready, "c moved up the port queue"
