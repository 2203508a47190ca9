"""Source hygiene: no module imports a name it does not use, and every error
class is raised somewhere in the package or is the base of one that is."""

import ast
import inspect
from pathlib import Path

import pytest

from eightflow import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "eightflow"
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
