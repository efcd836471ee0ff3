"""Every name a module exports resolves, so ``from vbnn.<module> import *`` works,
and every ``from vbnn... import ...`` line in README.md's code blocks resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import vbnn

MODULES = ["vbnn"] + [f"vbnn.{info.name}" for info in pkgutil.iter_modules(vbnn.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> list[tuple[str, str]]:
    """(module, name) of each name imported from vbnn in README.md's code blocks."""
    code = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S))
    pairs = []
    for module, names in re.findall(r"^\s*from (vbnn[\w.]*) import (\([^)]*\)|.*)$", code, re.M):
        for name in re.sub(r"#[^\n]*", "", names).strip("()").split(","):
            name = name.split(" as ")[0].strip()
            if name:
                pairs.append((module, name))
    return pairs


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


def test_readme_imports_resolve():
    pairs = readme_imports()
    assert pairs, "README.md has no 'from vbnn... import' line in a code block"
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
