"""Run the doctests embedded in library docstrings."""

import doctest

import pytest

import repro.obs.timers
import repro.rng
import repro.utils.stats

MODULES = [repro.rng, repro.utils.stats, repro.obs.timers]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
