"""Every name a module lists in ``__all__`` resolves, and its star import
succeeds, so no export outlives the code it names."""

import importlib

import pytest

MODULES = ["certify", "cli", "comparison", "expr", "registry", "stability",
           "synth", "system"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"dtstab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"dtstab.{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from dtstab.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
