"""Every module-level import in the package and its tests is read.

Parsed with the standard library's ``ast``, nothing imported or executed: a
name bound by a module-level ``import`` must be read somewhere in its module.
``from __future__`` imports and names listed in ``__all__`` are exempt, and a
name read only inside a string annotation counts as read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "crossint").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _module_imports(tree: ast.Module):
    """(bound name, line) for each import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = _read_names(tree) | _exported(tree)
    return [(name, line) for name, line in _module_imports(tree) if name not in read]


def test_no_unused_module_level_imports() -> None:
    assert SOURCES
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_unused_import_rule() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Iterable, Sequence\n"
        "from math import comb\n"
        "from . import kept\n"
        "__all__ = ['kept']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("j", 3), ("Iterable", 4), ("comb", 5)]
