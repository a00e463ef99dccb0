"""Every name a package exports is importable from it."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["seisreg", "seisreg.formats"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
