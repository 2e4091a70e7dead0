"""Every name a subpackage exports through __all__ exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["aqakit.model", "aqakit.forge",
                                    "aqakit.evaluate", "aqakit.training"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
