"""Every name a module of ``src/farmscale`` imports, it uses.

The AST of each module is walked for the names its ``import`` statements
bind, at any depth, and for the bare names it reads. An imported name that
no bare name of the same module reads fails the check; ``from __future__``
imports bind nothing and are skipped. The package has no ``__all__``, so
an import kept only for re-export counts as unused too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "farmscale"


def imported_names(tree) -> set:
    """The names the import statements of ``tree`` bind."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
    return bound


def names_read(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    return sorted(imported_names(tree) - names_read(tree))


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: names
              for path in sorted(PACKAGE.glob("*.py"))
              if (names := unused_imports(path.read_text()))}
    assert unused == {}, f"unused imports in src/farmscale: {unused}"


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nimport numpy as np\n"
              "from math import inf, pi as PI\n\n"
              "def f():\n    import sys\n    return os.path.join(PI, inf)\n")
    assert unused_imports(source) == ["json", "np", "sys"]
