"""Every function, class and method of the package is named somewhere.

The test walks ``src/splitlie2``, ``tests/`` and ``bench/`` with ``ast``.
A name counts as used when it appears, outside its own definition, as a
``Name``, an ``Attribute``, an import alias or a string constant that is an
identifier (``bench/layers.py`` names the functions it wraps as strings).
Module-level functions and classes of the package, and their non-dunder
methods, must each be used.  The test-only oracles hold copies of the code
they compare against rather than imports of it, so they cannot keep a
deleted package helper alive.  Since an import alias counts as a use, a
second test requires every name a test module imports to be read, as a
``Name``, somewhere in that module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitlie2"
WALKED = (PACKAGE, ROOT / "tests", ROOT / "bench")


def _names(tree):
    """Counter of every name a tree uses."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
            if node.asname:
                out[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out[node.value] += 1
    return out


def _definitions(tree):
    """(qualified name, definition node) for the module-level functions and
    classes of a tree and the non-dunder methods of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(package=PACKAGE, walked=WALKED):
    """Qualified names (module.name) of the package definitions that nothing
    outside their own definition names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for root in walked for path in sorted(root.rglob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if used[name] - _names(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualname}")
    return sorted(unused)


def test_every_package_definition_is_named_somewhere():
    assert unused_definitions() == []


def unused_imports(root=ROOT / "tests"):
    """module:name for each name a module under root imports and never
    reads as a Name (a string that spells it does not count)."""
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    if name not in read:
                        unused.append(f"{path.stem}:{name}")
    return unused


def test_every_test_import_is_read():
    assert unused_imports() == []
