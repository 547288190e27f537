"""Every library module uses each name it imports, so a deletion cannot
leave a stale import behind.  __init__.py is exempt: its imports are the
package's exports.  Every module-level private name (_name) is read by
some library module, so a deletion cannot leave a dead helper behind.
No library module imports fractions or decimal: every number the library
computes with is an integer."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qtchar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_checker_flags_an_unused_import():
    src = "from .monomial import EpsilonTable, YMonomial\nimport os.path\n\nYMonomial.one()\n"
    assert _unused_imports(src) == [(1, "EpsilonTable"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _private_defs(tree: ast.Module) -> list:
    """(name, node) of every module-level _name (not __dunder__) a
    definition or assignment binds."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(n, node) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def _reads(tree: ast.Module, skip: ast.AST | None = None) -> set:
    """The (module, name) pairs tree reads outside skip: its own names as
    (None, name), names it imports from a sibling module under their
    source, and attributes of sibling modules it imports whole."""
    inner = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    source: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                # `from . import kernels` binds a module, `from .roots import x` a name
                source[a.asname or a.name] = (None, a.name) if node.module is None else (node.module, a.name)
    out = set()
    for node in ast.walk(tree):
        if id(node) in inner:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(source.get(node.id, (None, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            mod = source.get(node.value.id)
            if mod is not None and mod[0] is None:
                out.add((mod[1], node.attr))
    return out


def _dead_private_names(sources: dict) -> list:
    """(module, name) of every module-level _name of sources ({module:
    source text}) that no module reads, its own reads inside the name's
    definition not counted."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    dead = []
    for mod, tree in trees.items():
        for name, node in _private_defs(tree):
            if (None, name) in _reads(tree, skip=node):
                continue
            if any((mod, name) in _reads(other) for m, other in trees.items() if m != mod):
                continue
            dead.append((mod, name))
    return sorted(dead)


def test_checker_flags_a_dead_private_name():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\n\ndef _rec(n):\n    return _rec(n - 1)\n\ndef f():\n    return _USED\n",
        "b": "def _imported():\n    pass\n\ndef _by_attribute():\n    pass\n\n_DEAD = 3\n",
        "c": "from .b import _imported\nfrom . import b\nfrom .a import _DEAD\n\n_imported(b._by_attribute, _DEAD)\n",
    }
    # c reads a's _DEAD, not b's; _rec reads only itself
    assert _dead_private_names(sources) == [("a", "_rec"), ("b", "_DEAD")]


def test_library_reads_every_private_name():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_names(sources) == []


def _imported_modules(source: str) -> set:
    """The top-level name of every absolute module source imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_checker_lists_imported_modules():
    src = "import os.path\nfrom fractions import Fraction\nfrom .roots import two_rho\n"
    assert _imported_modules(src) == {"os", "fractions"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_in_the_integers(path):
    # weight arithmetic is integer-only: no rational or decimal numbers
    assert not _imported_modules(path.read_text()) & {"fractions", "decimal"}
