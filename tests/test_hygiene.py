"""Source hygiene: no module imports a name it does not use, every error
class is raised somewhere in the package or is the base of one that is, and
every top-level definition is named somewhere outside its own def."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from eightflow import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eightflow"
MODULES = sorted(SRC.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Names the module's imports bind, except `from __future__` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = parsed(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_every_error_class_is_raised_or_a_base():
    raised = set()
    for path in MODULES:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    raised_classes = [classes[name] for name in raised if name in classes]
    unused = [name for name, cls in classes.items()
              if not any(issubclass(r, cls) for r in raised_classes)]
    assert unused == []


def referenced_names(tree):
    """Names the tree uses: identifiers, attributes, and the parts of string
    constants that are dotted names, since the benchmark's tracer looks
    functions up by string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            yield from node.value.split(".")


def test_every_definition_is_referenced():
    named = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            named.update(referenced_names(parsed(path)))
    orphans = [f"{path.stem}.{node.name}" for path in MODULES for node in parsed(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named]
    assert orphans == []
