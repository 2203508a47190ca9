"""Source hygiene: no module imports a name it does not use, every error
class is raised somewhere in the package or is the base of one that is, and
every top-level definition and class member is used outside its own def, by
the package or the benchmark and not only by the tests."""

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


PACKAGE = SRC.name
MODULE_NAMES = {path.stem for path in MODULES}
# The benchmark hands the imported package to its functions as `ef`, a
# parameter and an attribute (`self.ef`); that name stands for the package.
PACKAGE_HANDLE = "ef"


def package_path(node, aliases):
    """What an expression names in the package: "" for the package itself, a
    module name for one of its modules, None for anything else."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr == PACKAGE_HANDLE:
            return ""
        if package_path(node.value, aliases) == "" and node.attr in MODULE_NAMES:
            return node.attr
    return None


def imported_from(node, home):
    """The package path an import statement reads from, or None: "" for
    `from eightflow import ...` (or `from . import ...` inside the package),
    the module name for `from eightflow.curves import ...` or `from .curves
    import ...`."""
    if node.level == 0 and node.module and (node.module + ".").startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    if node.level == 1 and home is not None:
        return node.module or ""
    return None


def module_aliases(tree, home):
    """The names a file binds to the package or one of its modules: imports,
    `ef`, and assignments of such an expression (also tuple assignments)."""
    aliases = {PACKAGE_HANDLE: ""}
    assigns = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if (alias.name + ".").startswith(PACKAGE + "."):
                    aliases[alias.asname or PACKAGE] = \
                        alias.name[len(PACKAGE) + 1:] if alias.asname else ""
        elif isinstance(node, ast.ImportFrom) and imported_from(node, home) == "":
            for alias in node.names:
                if alias.name in MODULE_NAMES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    assigns += zip(target.elts, node.value.elts)
                else:
                    assigns.append((target, node.value))
    while True:
        bound = {target.id: path for target, value in assigns
                 if isinstance(target, ast.Name)
                 and (path := package_path(value, aliases)) is not None}
        if bound.items() <= aliases.items():
            return aliases
        aliases.update(bound)


def references(path):
    """The (module, name) pairs of package definitions that a file uses;
    module None stands for any module.

    An attribute counts when its object names a module (`cv.reverse`,
    `ef.curves.reverse`), and so does an import from the defining module, a
    dotted string the benchmark's tracer looks up (`"flow.run"`), and, in
    the defining module, a bare name outside the definition itself.  In a
    file that looks attributes up with `getattr`, a string that is a name
    counts for any module, as the CLI's monitor table and the tracer's
    target list do.  A method call such as `back.reverse()`, a local
    variable `scale` or a JSON key "scale" does not count as a use of a
    package function of that name.
    """
    tree = parsed(path)
    home = path.stem if path.parent == SRC else None
    aliases = module_aliases(tree, home)
    dynamic = any(isinstance(node, ast.Name) and node.id == "getattr" for node in ast.walk(tree))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := imported_from(node, home)) is not None:
            found.update((source or "__init__", alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and (owner := package_path(node.value, aliases)) is not None:
            found.add((owner or "__init__", node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", node.value):
                found.add(tuple(node.value.split(".")[:2]))
            elif dynamic and node.value.isidentifier():
                found.add((None, node.value))
    if home is not None:
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            found.update((home, node.id) for node in ast.walk(top)
                         if isinstance(node, ast.Name) and node.id != own)
    return found


def orphans(folders):
    """The package's top-level functions and classes that no file under
    `folders` references."""
    used = set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= references(path)
    return [f"{path.stem}.{node.name}" for path in MODULES for node in parsed(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not {(path.stem, node.name), (None, node.name)} & used]


def test_every_definition_is_referenced():
    """No dead code: every definition is used somewhere, tests included."""
    assert orphans(("src", "tests", "perfbench")) == []


def test_every_definition_is_reached_without_the_tests():
    """The package is what a run reaches: a definition that only tests use
    belongs in the tests (tests/oracles.py), not under src/."""
    assert orphans(("src", "perfbench")) == []


def test_every_class_member_is_reached_without_the_tests():
    """Every method or property of a package class is read as an attribute
    (`curve.jet`, `RunSpec.from_dict`) under src/ or perfbench/, outside its
    own body.  Dunders and dataclass or NamedTuple fields are exempt.  The
    check matches names, not types, so a member named like one that is read
    passes: a `GrimReaper.speed` property would pass because `Flow.speed` is
    read."""
    reads = {}
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(parsed(path)):
                if isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = [f"{path.stem}.{cls.name}.{fn.name}"
              for path in MODULES for cls in ast.walk(parsed(path))
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef)
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and not any(where != path or not fn.lineno <= line <= fn.end_lineno
                          for where, line in reads.get(fn.name, []))]
    assert unread == []
