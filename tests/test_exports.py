"""Every name that a module of minkval lists in __all__ exists in it, so that
a name removed from a module cannot linger among its exports."""

import importlib
import pkgutil

import pytest

import minkval

MODULES = ["minkval"] + sorted(f"minkval.{m.name}" for m in pkgutil.iter_modules(minkval.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []
