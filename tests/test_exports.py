"""Every name a module exports resolves, so ``from vbnn.<module> import *`` works,
every ``from vbnn... import ...`` line in README.md's code blocks and in the
programs under scripts/ and perfbench/ resolves, as does each ``vbnn.<module>.<name>``
those programs use, every ``vbnn ...`` command in README.md's bash blocks parses, and
README.md names every flag of every subcommand.
An exception class of its own is kept only where some ``except`` clause in
``src/vbnn`` tells it apart; everywhere else a plain ``ValueError`` does.  A
name stays in a module's ``__all__`` only while something besides the unit
tests reads it: ``src/vbnn``, the programs, the acceptance tests or README.md's
code.  Every dataclass field annotated ``int`` refuses 2.5 and True with a
``ValueError`` that names the field and says it must be an integer.  Only
``vbnn.model.numpy_build`` reads numpy's private dispatch tables: no other file
under src/vbnn, scripts or tests names their module."""

import argparse
import ast
import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import vbnn
from vbnn.cli import build_parser
from vbnn.metrics import IntegrationConfig, TrueFunction
from vbnn.model import NetworkShape
from vbnn.optimizer import TrainConfig
from vbnn.prediction import PredictiveConfig

MODULES = ["vbnn"] + [f"vbnn.{info.name}" for info in pkgutil.iter_modules(vbnn.__path__)]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PROGRAMS = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
SOURCES = sorted(ROOT.glob("src/vbnn/*.py"))
# every file besides README.md whose reads keep an exported name
READERS = [*SOURCES, *PROGRAMS, ROOT / "tests" / "test_acceptance.py"]
# a valid instance of each dataclass in src/vbnn that has a field annotated int
VALID_INSTANCES = {
    "vbnn.metrics.IntegrationConfig": IntegrationConfig(),
    "vbnn.metrics.TrueFunction": TrueFunction.constant(0.0, p=2),
    "vbnn.model.NetworkShape": NetworkShape(p=2, k=3),
    "vbnn.optimizer.TrainConfig": TrainConfig(),
    "vbnn.prediction.PredictiveConfig": PredictiveConfig(),
}


def readme_code() -> str:
    """The text of README.md's code blocks."""
    return "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S))


def readme_imports() -> list[tuple[str, str]]:
    """(module, name) of each name imported from vbnn in README.md's code blocks."""
    code = readme_code()
    pairs = []
    for module, names in re.findall(r"^\s*from (vbnn[\w.]*) import (\([^)]*\)|.*)$", code, re.M):
        for name in re.sub(r"#[^\n]*", "", names).strip("()").split(","):
            name = name.split(" as ")[0].strip()
            if name:
                pairs.append((module, name))
    return pairs


def program_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of each name a program imports from vbnn, or reads as
    ``vbnn.<module>.<name>``."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vbnn":
            pairs += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "vbnn"):
            pairs.append((f"vbnn.{node.value.attr}", node.attr))
    return pairs


def names_read(path: Path) -> set[str]:
    """Each name a file loads, reads as an attribute or imports; a definition
    or an assignment alone does not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def int_fields() -> list[tuple[str, str]]:
    """(module.Class, field) for each field annotated int of a dataclass defined
    in a vbnn module."""
    pairs = []
    for name in MODULES:
        for cls in vars(importlib.import_module(name)).values():
            if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls):
                pairs += [(f"{name}.{cls.__name__}", f.name) for f in dataclasses.fields(cls)
                          if f.type in ("int", int)]
    return pairs


def unresolved(pairs) -> list[str]:
    return [f"{module}.{name}" for module, name in pairs
            if not hasattr(importlib.import_module(module), name)]


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
    assert unresolved(pairs) == []


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_program_imports_resolve(path):
    assert unresolved(program_imports(path)) == []


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands, "README.md has no 'vbnn ...' line in a bash block"
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README.md command does not parse: {command}")


def test_readme_names_every_flag():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    readme = README.read_text()
    unnamed = [f"{name} {option}" for name, sub in subcommands.items()
               for action in sub._actions if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings
               if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)]
    assert unnamed == []


def test_every_exception_class_is_caught_somewhere():
    defined, caught = set(), set()
    for path in SOURCES:
        module = importlib.import_module(f"vbnn.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name),
                                                             BaseException):
                defined.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert defined, "no exception class found under src/vbnn"
    assert sorted(defined - caught) == []


def test_every_exported_name_is_read_beyond_the_unit_tests():
    read = set(re.findall(r"\w+", readme_code())).union(*map(names_read, READERS))
    unread = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(name), "__all__", []) if n not in read]
    assert unread == []


def test_every_dataclass_with_an_int_field_has_a_valid_instance():
    assert sorted({cls for cls, _ in int_fields()}) == sorted(VALID_INSTANCES)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("cls, field", int_fields(), ids=lambda x: x.removeprefix("vbnn."))
def test_int_field_refuses_a_non_integer_by_name(cls, field, value):
    with pytest.raises(ValueError, match=rf"\b{field}\b.* integers?\b"):
        dataclasses.replace(VALID_INSTANCES[cls], **{field: value})


def test_only_numpy_build_reads_numpys_private_module():
    private = b"_multiarray" + b"_umath"  # in two pieces, so this file does not match
    readers = [path.relative_to(ROOT).as_posix()
               for folder in ("src/vbnn", "scripts", "tests")
               for path in sorted((ROOT / folder).rglob("*"))
               if path.is_file() and "__pycache__" not in path.parts
               and private in path.read_bytes()]
    assert readers == ["src/vbnn/model.py"]
