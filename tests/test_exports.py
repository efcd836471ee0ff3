"""Every name a module exports resolves, so ``from vbnn.<module> import *`` works,
every ``from vbnn... import ...`` line in README.md's code blocks resolves, and
every ``vbnn ...`` command in its bash blocks parses."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import vbnn
from vbnn.cli import build_parser

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


def readme_commands() -> list[str]:
    """Each ``vbnn ...`` line of README.md's bash blocks, continuations joined."""
    code = "\n".join(re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S))
    return [line for line in code.replace("\\\n", " ").splitlines()
            if line.startswith("vbnn ")]


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


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands, "README.md has no 'vbnn ...' line in a bash block"
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README.md command does not parse: {command}")
