"""Every imported name is used, and every package definition is read: a
stdlib stand-in for a linter's unused-import and dead-code rules.

An imported name counts as used when some ``ast.Name`` in the module reads
it, or, for ``import a.b``, when one reads ``a``; this holds over the
package, the tests and the demos. The package's ``__init__.py`` is skipped,
since its imports are its exports, and so are ``from __future__`` imports.

A module-level function, class or constant of the package counts as read
when some package module imports it, reads it as an ``ast.Name`` or as an
``ast.Attribute``, or ``__init__.py`` exports it. The tests do not count, so
a definition that is tested but never called fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "swarmplan").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os, a.b\n"
              "from x import y as z, w\nimport q as r\nprint(z, a.c, r)\n")
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function, class and constant of
    ``sources`` (module name -> source, ``__init__`` among them) that no
    module reads, in module and then source order. Dunder names are skipped."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name not in read and not name.startswith("__")]
    return unread


def test_flags_only_unread_definitions():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("LIMIT = 1\n_SCALE: float = 2.0\nSPARE = OTHER = 0\n"
              "def exported(): pass\n"
              "def helper(): return _SCALE\n"
              "def by_attribute(): pass\n"
              "class Twin: pass\n"
              "async def spare(): pass\n"),
        "b": ("from . import a\nfrom .a import helper\n"
              "a.by_attribute()\nOTHER = 3\nprint(OTHER)\n"),
    }
    assert unread_definitions(sources) == ["a.LIMIT", "a.SPARE", "a.Twin", "a.spare"]


def test_no_unread_definitions():
    assert unread_definitions({p.stem: p.read_text() for p in PACKAGE}) == []
