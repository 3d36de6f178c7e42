"""Shared fixtures: a small two-data-path kernel, budgets, and libraries,
plus an autouse guard restoring the ``REPRO_*`` environment after every
test."""

import os

import pytest

from repro.config_env import CACHE_DIR_ENV, ENGINE_MODE_ENV, SELECTOR_MODE_ENV
from repro.fabric.cost_model import DEFAULT_COST_MODEL
from repro.fabric.datapath import DataPathSpec
from repro.fabric.reconfig import ReconfigurationController
from repro.fabric.resources import ResourceBudget
from repro.ise.builder import ISEBuilder
from repro.ise.kernel import Kernel
from repro.ise.library import ISELibrary


#: Behaviour-steering environment variables every test leaves restored.
_REPRO_ENV_VARS = (SELECTOR_MODE_ENV, ENGINE_MODE_ENV, CACHE_DIR_ENV)


@pytest.fixture(autouse=True)
def _isolate_repro_env():
    """Restore the ``REPRO_*`` variables after every test.

    A test that sets ``REPRO_SIM``/``REPRO_SELECTOR``/``REPRO_CACHE_DIR``
    directly (instead of through ``monkeypatch``) would otherwise leak the
    setting into every later test -- silently flipping whole suites onto a
    different engine or selector.  Tests should still prefer
    ``monkeypatch.setenv``; this guard is the backstop."""
    saved = {name: os.environ.get(name) for name in _REPRO_ENV_VARS}
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture(scope="session")
def shipped_deep():
    """``(report, seconds)`` of one ``repro analyze`` deep-tier run over the
    shipped tree, shared by every test that asserts on it."""
    import time

    from repro.analysis.deep import run_deep

    start = time.monotonic()
    report = run_deep()
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def shipped_lint():
    """One ``repro lint`` run over the shipped tree, shared likewise."""
    from repro.analysis.lint import run_lint

    return run_lint()


@pytest.fixture
def cond_spec():
    """A control-dominant (bit-level) data path -- FG-friendly."""
    return DataPathSpec(
        name="k.cond",
        word_ops=6,
        bit_ops=48,
        mem_bytes=16,
        fg_depth=8,
        sw_cycles=180,
        invocations=8,
    )


@pytest.fixture
def filt_spec():
    """A data-dominant (word-level) data path -- CG-friendly."""
    return DataPathSpec(
        name="k.filt",
        word_ops=32,
        mul_ops=4,
        mem_bytes=48,
        fg_depth=12,
        sw_cycles=220,
        invocations=8,
        parallelizable=True,
    )


@pytest.fixture
def kernel(cond_spec, filt_spec):
    return Kernel("k", base_cycles=120, datapaths=[cond_spec, filt_spec])


@pytest.fixture
def cost_model():
    return DEFAULT_COST_MODEL


@pytest.fixture
def budget():
    return ResourceBudget(n_prcs=3, n_cg_fabrics=2)


@pytest.fixture
def controller(budget):
    return ReconfigurationController(budget)


@pytest.fixture
def library(kernel, budget):
    return ISELibrary([kernel], budget)


@pytest.fixture
def builder():
    return ISEBuilder()
