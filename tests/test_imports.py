"""Every module-level import in the package, the tests and the scripts is read in its file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    [path for path in (ROOT / "src" / "craoi").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression in it reads.

    ``import a.b`` binds ``a``; ``from __future__ import ...`` binds nothing.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import exp, log\n"
        "def f(x):\n"
        "    import json\n"
        "    return os.path.join(exp(x))\n"
    )
    assert unused_imports(source) == ["log", "system"]


def test_every_tree_is_checked():
    dirs = {path.parent.name for path in CHECKED}
    assert dirs == {"craoi", "tests", "scripts"}
    assert Path(__file__).resolve() in CHECKED


@pytest.mark.parametrize("path", CHECKED, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
