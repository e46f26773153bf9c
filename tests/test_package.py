"""Tests for the package's exported names."""
import importlib
import pkgutil

import pytest

import fracstab

MODULES = ["fracstab"] + [
    f"fracstab.{info.name}" for info in pkgutil.iter_modules(fracstab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
