"""Every module imports only what it uses, the package imports only at
module level, and its functions read every parameter they take.

Stdlib ``ast`` passes: a name bound by an import must be read somewhere in
the same module, and binding it again is no read (``from __future__``
imports and the package ``__init__``, whose imports are its public
re-exports, are exempt), no import under ``src/jigglekit`` sits inside a function or class body, and every function
and method under ``src/jigglekit`` reads each of its parameters, ``self``
and ``cls`` included.  The package needs numpy only: a fresh interpreter that imports it and its
command line loads no scipy module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*ROOT.glob("src/jigglekit/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")
PACKAGE = sorted(ROOT.glob("src/jigglekit/*.py"))


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
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.path)\n") == ["line 1: os"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path as osp\nosp.join\n") == []
    # a name that is only bound again is never read
    assert unused_imports("from os import sep\nsep = '/'\ndel sep\n") == ["line 1: sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source: str) -> list[str]:
    """Imports inside a function, lambda or class body, as ``line N``."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    lines = {node.lineno
             for scope in ast.walk(ast.parse(source)) if isinstance(scope, scopes)
             for node in ast.walk(scope)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"line {line}" for line in sorted(lines)]


def test_checker_flags_a_nested_import():
    source = ("import os\n"
              "def f():\n"
              "    def g():\n"
              "        from sys import path\n"
              "    import json\n"
              "class C:\n"
              "    import re\n")
    assert nested_imports(source) == ["line 4", "line 5", "line 7"]
    assert nested_imports("import os\nif os.sep:\n    import json\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_imports_only_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters that a function or method never reads, as ``line N:
    name``; a read inside a nested function counts."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *([a.vararg] if a.vararg else []), *([a.kwarg] if a.kwarg else [])]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"line {fn.lineno}: {p.arg}" for p in params if p.arg not in read]
    return out


def test_checker_flags_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g(d):\n"
              "        return a + c\n"
              "    b = 2\n"
              "    return g\n"
              "class C:\n"
              "    def m(self, hint=None):\n"
              "        return lambda x: 0\n")
    assert unread_parameters(source) == [
        "line 1: b", "line 1: args", "line 1: kw", "line 2: d", "line 7: self",
        "line 7: hint"]
    assert unread_parameters("def f(x, *, y):\n    return x(y=y)\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_functions_read_their_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_the_package_loads_no_scipy():
    code = ("import sys, jigglekit, jigglekit.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
