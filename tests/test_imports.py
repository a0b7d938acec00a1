"""Every module imports only what it uses.

A stdlib ``ast`` pass: a name bound by an import must be read somewhere in
the same module.  ``from __future__`` imports and the package ``__init__``
(whose imports are its public re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*ROOT.glob("src/jigglekit/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.path)\n") == ["line 1: os"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path as osp\nosp.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
