"""Every name a module of ``src/farmscale`` imports, it uses, and only
``cli.py`` imports ``csv``.

The AST of each module is walked for the names its ``import`` statements
bind, at any depth, and for the bare names it reads. An imported name that
no bare name of the same module reads fails the check; ``from __future__``
imports bind nothing and are skipped. The package has no ``__all__``, so
an import kept only for re-export counts as unused too.

``cli`` is the one writer of every output table and the one reader of a
samples file, so no other module needs the ``csv`` module.
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


def imported_modules(tree) -> set:
    """The top-level modules the absolute imports of ``tree`` name."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0]
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.partition(".")[0])
    return modules


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


def test_only_cli_imports_csv():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "csv" in imported_modules(ast.parse(path.read_text()))]
    assert importers == ["cli.py"]


def test_the_walk_finds_each_imported_module():
    source = ("import csv as table\nimport os.path\nfrom json import dumps\n"
              "from .core import write_csv\n\ndef f():\n    import sys\n")
    assert imported_modules(ast.parse(source)) == {"csv", "os", "json",
                                                   "sys"}
