"""Source hygiene the repository checks without a linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "depthrestore"


def unused_imports(source):
    """Names that source's import statements bind but its code never
    reads, sorted; __future__ imports bind nothing to read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import inf, pi as PI\n"
              "x: np.ndarray = PI\n")
    assert unused_imports(source) == ["inf", "os"]


def test_every_module_reads_every_name_it_imports():
    """No module of the package (its __init__, which re-exports, aside)
    imports a name it never uses."""
    unused = {p.name: unused_imports(p.read_text())
              for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def defined_names(source):
    """The names of source's module-level functions, classes and
    constants: what it defines, not what it imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def private_names(source):
    """The module-level functions, classes and constants of source whose
    names start with one underscore, sorted."""
    return sorted(n for n in defined_names(source) if n.startswith("_") and not n.startswith("__"))


def read_names(source):
    """Every name source reads, as a variable or as an attribute."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_private_names_finds_module_level_definitions_only():
    source = ("_A = 1\n_b: int = 2\n__all__ = []\nPUBLIC = _A\n"
              "def _f():\n    _local = 3\n    return _local\n"
              "class _C:\n    def _m(self):\n        return _b\n")
    assert private_names(source) == ["_A", "_C", "_b", "_f"]
    assert {"_A", "_b", "_local"} <= read_names(source)
    assert not {"_f", "_C", "_m"} & read_names(source)


def test_every_private_name_is_read():
    """Every module-level function, class or constant whose name starts
    with _ is read somewhere in the package: a private helper nothing
    calls is dead code."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    defined = {name for s in sources for name in private_names(s)}
    read = set().union(*map(read_names, sources))
    assert sorted(defined - read) == []


def borrowed_imports(sources):
    """The (module, name) pairs of every `from .mod import name` in
    sources (a dict of module name to source) where mod does not define
    name itself but imports it from elsewhere, sorted."""
    borrowed = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                borrowed.update((module, a.name) for a in node.names
                                if a.name not in defined_names(sources[node.module]))
    return sorted(borrowed)


def test_borrowed_imports_finds_names_imported_through_another_module():
    sources = {"a": "from .c import pad\nX = 1\ndef f():\n    pass\n",
               "b": "from .a import X, f, pad\n", "c": "def pad():\n    pass\n"}
    assert borrowed_imports(sources) == [("b", "pad")]


def test_every_name_is_imported_from_the_module_that_defines_it():
    """No module of the package (its __init__, which re-exports, aside)
    imports a name through a module that only imports it in turn: the
    name has one home, and moving it touches its importers only."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [(m, n) for m, n in borrowed_imports(sources) if m != "__init__"] == []
