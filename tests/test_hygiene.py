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
