"""Every name a module exports resolves, so ``from vbnn.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import vbnn

MODULES = ["vbnn"] + [f"vbnn.{info.name}" for info in pkgutil.iter_modules(vbnn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
