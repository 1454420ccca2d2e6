"""Every imported name is used: a stdlib stand-in for a linter's unused-import
rule over the package, the tests and the demos.

A name counts as used when some ``ast.Name`` in the module reads it, or, for
``import a.b``, when one reads ``a``. The package's ``__init__.py`` is
skipped, since its imports are its exports, and so are ``from __future__``
imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "swarmplan").glob("*.py") if p.name != "__init__.py"]
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
