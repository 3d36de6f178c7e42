"""Data-path specs, implementations, instances."""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.fabric.cost_model import DEFAULT_COST_MODEL
from repro.fabric.datapath import (
    IMPL_IDS,
    IMPL_NAMES,
    DataPathImpl,
    DataPathInstance,
    DataPathSpec,
    FabricType,
)
from repro.util.validation import ValidationError


class TestDataPathSpec:
    def test_defaults_are_valid(self):
        spec = DataPathSpec(name="x")
        assert spec.invocations == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            DataPathSpec(name="")

    def test_negative_ops_rejected(self):
        with pytest.raises(ValidationError):
            DataPathSpec(name="x", word_ops=-1)

    def test_zero_invocations_rejected(self):
        with pytest.raises(ValidationError):
            DataPathSpec(name="x", invocations=0)

    def test_zero_sw_cycles_rejected(self):
        with pytest.raises(ValidationError):
            DataPathSpec(name="x", sw_cycles=0)


class TestDataPathImpl:
    def test_qualified_name(self, cond_spec, cost_model):
        impl = cost_model.implement(cond_spec, FabricType.FG)
        assert impl.name == "k.cond@fg"

    def test_ii_defaults_to_hw_cycles(self, cond_spec):
        impl = DataPathImpl(
            spec=cond_spec, fabric=FabricType.CG, hw_cycles=50,
            reconfig_cycles=60, area=1,
        )
        assert impl.ii_cycles == 50

    def test_burst_cycles_pipelined(self, cond_spec):
        impl = DataPathImpl(
            spec=cond_spec, fabric=FabricType.FG, hw_cycles=40,
            reconfig_cycles=100, area=1, ii_cycles=4,
        )
        assert impl.burst_cycles(1) == 40
        assert impl.burst_cycles(5) == 40 + 4 * 4

    def test_burst_cycles_zero_invocations(self, cond_spec):
        impl = DataPathImpl(
            spec=cond_spec, fabric=FabricType.CG, hw_cycles=40,
            reconfig_cycles=60, area=1,
        )
        assert impl.burst_cycles(0) == 0

    def test_saving_never_negative(self):
        """A hardware implementation slower than software must not produce a
        negative saving -- the ECU would simply not use it."""
        spec = DataPathSpec(name="bad", word_ops=1, sw_cycles=1, invocations=1)
        impl = DataPathImpl(
            spec=spec, fabric=FabricType.CG, hw_cycles=10**6,
            reconfig_cycles=60, area=1,
        )
        assert impl.saving_per_execution() == 0

    def test_saving_grows_with_quantity(self, filt_spec, cost_model):
        impl = cost_model.implement(filt_spec, FabricType.CG)
        assert impl.saving_per_execution(2) > impl.saving_per_execution(1)

    def test_saving_quantity_splits_invocations(self, filt_spec, cost_model):
        impl = cost_model.implement(filt_spec, FabricType.CG)
        sw = filt_spec.invocations * filt_spec.sw_cycles
        expected = sw - impl.burst_cycles(filt_spec.invocations // 2)
        assert impl.saving_per_execution(2) == expected


class TestDataPathInstance:
    def test_area_scales_with_quantity(self, filt_spec, cost_model):
        impl = cost_model.implement(filt_spec, FabricType.CG)
        assert DataPathInstance(impl, quantity=3).area == 3 * impl.area

    def test_total_reconfig_cycles(self, filt_spec, cost_model):
        impl = cost_model.implement(filt_spec, FabricType.FG)
        inst = DataPathInstance(impl, quantity=2)
        assert inst.total_reconfig_cycles == 2 * impl.reconfig_cycles

    def test_zero_quantity_rejected(self, filt_spec, cost_model):
        impl = cost_model.implement(filt_spec, FabricType.CG)
        with pytest.raises(ValidationError):
            DataPathInstance(impl, quantity=0)


class TestInterning:
    """Implementation ids: one per qualified name, process-wide."""

    def test_name_and_uid(self):
        spec = DataPathSpec(name="intern.a", word_ops=3)
        fg = DEFAULT_COST_MODEL.implement(spec, FabricType.FG)
        cg = DEFAULT_COST_MODEL.implement(spec, FabricType.CG)
        again = DEFAULT_COST_MODEL.implement(spec, FabricType.FG)
        assert (fg.name, cg.name) == ("intern.a@fg", "intern.a@cg")
        assert IMPL_NAMES[fg.uid] == fg.name and IMPL_IDS[fg.name] == fg.uid
        assert again.uid == fg.uid != cg.uid
        assert "uid" not in repr(fg)

    def test_pickle_round_trip_keeps_the_id(self):
        impl = DEFAULT_COST_MODEL.implement(
            DataPathSpec(name="intern.p", word_ops=3), FabricType.CG
        )
        clone = pickle.loads(pickle.dumps(impl))
        assert clone == impl and clone.uid == impl.uid and clone.name == impl.name

    def test_concurrent_first_sightings_get_one_id(self):
        """Threads interning the same fresh names at once agree on every
        id; a lost check-then-act would hand one name two ids.  Runs in a
        child interpreter, so its 60,000 throwaway names stay out of this
        process's table."""
        script = textwrap.dedent(
            """
            import sys, threading
            from repro.fabric.datapath import IMPL_NAMES, intern_impl

            sys.setswitchinterval(1e-6)
            split = 0
            for trial in range(3):
                names = [f"race{trial}.{k}@fg" for k in range(20000)]
                seen = [[] for _ in range(4)]
                start = threading.Barrier(len(seen))

                def intern_all(out):
                    start.wait(timeout=30)
                    out.extend(intern_impl(name) for name in names)

                threads = [threading.Thread(target=intern_all, args=(out,))
                           for out in seen]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                split += sum(len(set(ids)) > 1 for ids in zip(*seen))
                assert [IMPL_NAMES[uid] for uid in seen[0]] == names
            print(split, len(IMPL_NAMES) - len(set(IMPL_NAMES)))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        assert done.stdout.split() == ["0", "0"], done.stdout
