"""Every public function, class and method has a user outside the unit tests.

A stdlib ``ast`` pass over ``src/jigglekit``: each public top-level function,
each public top-level class and each public method of a top-level class must
be reachable from live code in ``src``, be exported in the package's
``__all__``, or be named in ``tests/test_acceptance.py``.  Live code is what
runs on import (module bodies, and the body of a live class), dunder methods,
and every definition a live name refers to, read by name or as an attribute;
an import alone is not a use.  Code that
only its own unit tests call is surface to maintain with nothing depending
on it, and so is code that only such code calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/jigglekit/*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# name -> why it stays without a caller
ALLOWED = {
    "transfer_margins": "margin arithmetic kept to turn sampled report margins "
                        "into proved ones (ROADMAP items 5 and 6)",
}


def definitions(tree: ast.Module):
    """``(name, node)`` of top-level functions, of top-level classes and of
    their methods; a method's name is ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _walk(node: ast.AST, skip: set):
    yield node
    for child in ast.iter_child_nodes(node):
        if id(child) not in skip:
            yield from _walk(child, skip)


def uses(nodes, imports: bool) -> set[str]:
    """Names read, attributes accessed and ``__all__`` entries among
    ``nodes``; with ``imports`` also the names an import binds."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def uncalled(sources: list[str], acceptance: str, allowed=ALLOWED) -> list[str]:
    """Public functions, classes and methods of ``sources`` that no live
    code uses.  A class's methods are definitions of their own, so a live
    class makes only its other statements live."""
    trees = [ast.parse(src) for src in sources]
    pending = {name: node for tree in trees for name, node in definitions(tree)}
    bodies = {id(node) for node in pending.values()}
    live = uses(ast.walk(ast.parse(acceptance)), imports=True) | set(allowed)
    for tree in trees:
        live |= uses(_walk(tree, bodies), imports=False)
    progress = True
    while progress:
        progress = False
        for name, node in list(pending.items()):
            short = name.split(".")[-1]
            if short in live or short.startswith("__"):
                live |= uses(_walk(node, bodies), imports=False)
                del pending[name]
                progress = True
    return sorted(name for name in pending
                  if not name.split(".")[-1].startswith("_"))


def test_checker_flags_test_only_functions():
    src = (
        "def used():\n    return _helper()\n"
        "def _helper():\n    return 1\n"
        "def exported():\n    return 2\n"
        "def dead():\n    return chained()\n"
        "def chained():\n    return used()\n"
        "def transfer_margins():\n    return 3\n"
        "class Box:\n"
        "    def __init__(self):\n        self.value()\n"
        "    def value(self):\n        return 4\n"
        "    def unused(self):\n        return self.value()\n"
        "class Base:\n    limit = cap()\n"
        "class Dead(Base):\n"
        "    def helper(self):\n        return 5\n"
        "def cap():\n    return 6\n"
        "__all__ = ['exported']\n"
        "used()\n"
        "Box()\n"
    )
    # a function or class only dead code uses is dead too
    dead = ["Base", "Box.unused", "Dead", "Dead.helper", "cap", "chained", "dead"]
    assert uncalled([src], "") == dead
    assert uncalled([src], "from m import dead, Dead\nBox().unused\nDead().helper\n") == []
    # importing a name into another module is not a use
    assert uncalled([src, "from m import dead, unused, Dead\n"], "") == dead


def test_no_test_only_surface():
    sources = [p.read_text() for p in SOURCES]
    assert uncalled(sources, ACCEPTANCE.read_text()) == []


def test_allowed_names_exist_and_have_no_caller():
    """An allowed name that gets a caller, or goes, leaves the allow-list."""
    sources = [p.read_text() for p in SOURCES]
    assert uncalled(sources, ACCEPTANCE.read_text(), allowed={}) == sorted(ALLOWED)
