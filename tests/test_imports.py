"""Every library module uses each name it imports, so a deletion cannot
leave a stale import behind.  __init__.py is exempt: its imports are the
package's exports.  Every module-level private name (_name) is read by
some library module, so a deletion cannot leave a dead helper behind.
Every public name, module-level or a method of a public class, is read
by a library module, and not only by unread names, or shown in README as
user API, so the library keeps no code that only its tests call.  No
library module imports fractions or decimal: every number the library
computes with is an integer."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
import re

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qtchar"
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
    src = "from .monomial import EpsilonTable, YMonomial\nimport os.path\n\nYMonomial()\n"
    assert _unused_imports(src) == [(1, "EpsilonTable"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _module_defs(tree: ast.Module) -> list:
    """(name, node) of every module-level name a definition or assignment
    binds."""
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
        out += [(n, node) for n in names]
    return out


def _private_defs(tree: ast.Module) -> list:
    """(name, node) of every module-level _name (not __dunder__)."""
    return [(n, node) for n, node in _module_defs(tree) if n.startswith("_") and not n.startswith("__")]


def _inside(nodes) -> set:
    """The ids of every node within nodes."""
    return {id(n) for node in nodes for n in ast.walk(node)}


def _reads(tree: ast.Module, skip=()) -> set:
    """The (module, name) pairs tree reads outside the nodes skip: its own
    names as (None, name), names it imports from a sibling module under
    their source, and attributes of sibling modules it imports whole."""
    inner = _inside(skip)
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
            if (None, name) in _reads(tree, skip=(node,)):
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


# Public names no library module reads, kept as the user API README shows.
# A name matches as Class.method or name, or prefixed with its module.
README_API = {
    "QtCharacter.coeff",
    "QtCharacter.dimension",
    "GCharacter.coeff",
    "GCharacter.dimension",
    "KLResult.multiplicity",
    "Engine.kl_decompose",
    "verify_kr_tensor_split",
    "strip_to_irreducibles",
    "kernels.BACKEND",
}


def _public_defs(tree: ast.Module) -> list:
    """(qualified name, node, is a method) of every public module-level
    definition or assignment of tree, and of every public method or
    property of its public classes."""
    out = []
    for name, node in _module_defs(tree):
        if name.startswith("_"):
            continue
        out.append((name, node, False))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{name}.{d.name}", d, True)
                for d in node.body
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
            ]
    return out


def _attribute_reads(tree: ast.AST, skip=()) -> Counter:
    """How often tree reads an attribute of each name outside the nodes
    skip."""
    inner = _inside(skip)
    return Counter(
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in inner
    )


def _dead_public_names(sources: dict, api: set) -> list:
    """(module, qualified name) of every public name of sources ({module:
    source text}) that api does not list and that no module reads outside
    its definition and the definitions of dead names.  Dead names are
    dropped and the rest checked again until no name is newly dead, so a
    name read only by a dead one is dead too.  A method counts as read
    where any module reads an attribute of its name, so the check can
    miss a dead method but never flags a live one."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defs = {
        mod: [(qual, node, method) for qual, node, method in _public_defs(tree)
              if qual not in api and f"{mod}.{qual}" not in api]
        for mod, tree in trees.items()
    }
    dropped: dict = {mod: [] for mod in trees}
    dead: set = set()
    while True:
        reads = {mod: _reads(tree, skip=dropped[mod]) for mod, tree in trees.items()}
        attrs = sum((_attribute_reads(tree, skip=dropped[mod]) for mod, tree in trees.items()), Counter())
        gone = {mod: _inside(dropped[mod]) for mod in trees}
        fresh = []
        for mod, tree in trees.items():
            for qual, node, method in defs[mod]:
                if (mod, qual) in dead:
                    continue
                if method:
                    attr = qual.rpartition(".")[2]
                    own = 0 if id(node) in gone[mod] else _attribute_reads(node)[attr]
                    if attrs[attr] > own:
                        continue
                elif (None, qual) in _reads(tree, skip=[node, *dropped[mod]]) or any(
                    (mod, qual) in reads[m] for m in trees if m != mod
                ):
                    continue
                fresh.append((mod, qual, node))
        if not fresh:
            return sorted(dead)
        for mod, qual, node in fresh:
            dead.add((mod, qual))
            dropped[mod].append(node)


def test_checker_flags_a_dead_public_name():
    sources = {
        "a": (
            "class C:\n    def used(self):\n        pass\n\n"
            "    def rec(self):\n        return self.rec()\n\n"
            "    def shown(self):\n        pass\n\n"
            "def live(c):\n    return c.used()\n\n"
            "def dead():\n    return live(C())\n\nDEAD = 1\n"
        ),
        "b": "from .a import live\n\nlive(None)\n",
    }
    # rec reads only itself, and C is read only by dead
    assert _dead_public_names(sources, {"C.shown"}) == [("a", "C"), ("a", "C.rec"), ("a", "DEAD"), ("a", "dead")]
    assert _dead_public_names(sources, {"a.dead", "DEAD", "C.shown", "a.C.rec"}) == []


def test_checker_flags_a_chain_of_dead_public_names():
    # TPoly.bar is read only by QtCharacter.bar, which nothing reads, and
    # helper only by the dead function dead
    sources = {
        "tpoly": "class TPoly:\n    def bar(self):\n        return self\n",
        "character": (
            "class QtCharacter:\n    def __init__(self, terms):\n        self.terms = terms\n\n"
            "    def bar(self):\n        return {m: p.bar() for m, p in self.terms.items()}\n\n"
            "def helper():\n    pass\n\ndef dead():\n    return helper()\n"
        ),
        "user": "from .character import QtCharacter\nfrom .tpoly import TPoly\n\nQtCharacter({1: TPoly()})\n",
    }
    assert _dead_public_names(sources, set()) == [
        ("character", "QtCharacter.bar"),
        ("character", "dead"),
        ("character", "helper"),
        ("tpoly", "TPoly.bar"),
    ]


def test_library_reads_every_public_name():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _dead_public_names(sources, README_API) == []


def _code_spans(markdown: str) -> list:
    """The fenced code blocks and inline code spans of markdown."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    return fence.findall(markdown) + re.findall(r"`([^`\n]+)`", fence.sub("", markdown))


def _not_in_code_font(names, markdown: str) -> list:
    """The names of names that no code span of markdown shows."""
    spans = _code_spans(markdown)
    return sorted(n for n in names if not any(re.search(rf"\b{re.escape(n)}\b", s) for s in spans))


def test_checker_flags_api_missing_from_readme():
    readme = "Use `Engine.kl_decompose(p)`.\n\n```python\n>>> kernels.BACKEND\n```\n\nEngine.table is plain text.\n"
    api = {"Engine.kl_decompose", "kernels.BACKEND", "Engine.table", "Engine.kl"}
    assert _not_in_code_font(api, readme) == ["Engine.kl", "Engine.table"]


def test_readme_shows_every_api_name():
    assert _not_in_code_font(README_API, (ROOT / "README.md").read_text()) == []


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
