"""Every symbol of ``src/farmscale`` has a caller in ``src/farmscale``.

The AST of each module is walked for its module-level functions and
classes and every method that is not a dunder. A symbol counts as called
when some module of the package names it: a bare name (``foo``) or an
attribute (``obj.foo``), apart from its own definition. A symbol with no
such caller fails the check unless ``ALLOWED`` names its caller under
``perfbench/``: tests are no reason to keep code in the package. An entry
that no longer exists, whose caller is not under ``perfbench/`` or no
longer names it, or that has gained a caller in the package fails it too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "farmscale"

# (module, symbol) -> the file under perfbench/ that calls it; a method is
# ``Class.method``
ALLOWED = {
    ("metrics", "aggregate"): "perfbench/workloads.py",
    ("training", "evaluate_policy"): "perfbench/workloads.py",
    ("core", "EpisodeLog.total_completed"): "perfbench/workloads.py",
    ("nn", "Mlp.parameters"): "perfbench/workloads.py",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree) -> list:
    """The module-level functions and classes of ``tree`` and the methods
    of its classes that are not dunders, as (symbol, name) pairs."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{item.name}", item.name)
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                         and not is_dunder(item.name))
    return found


def names_used(tree) -> set:
    """Every name ``tree`` reads or binds as a bare name, an attribute or
    an imported name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def package_symbols():
    """({(module, symbol): name}, names used anywhere in the package)."""
    symbols, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        used |= names_used(tree)
        symbols.update({(path.stem, symbol): name
                        for symbol, name in definitions(tree)})
    return symbols, used


def test_every_symbol_has_a_caller_in_src():
    symbols, used = package_symbols()
    uncalled = sorted(f"{module}.{symbol}"
                      for (module, symbol), name in symbols.items()
                      if name not in used
                      and (module, symbol) not in ALLOWED)
    assert uncalled == [], (
        f"no module of src/farmscale names {uncalled}: call, move or delete"
        f" each, or add it to ALLOWED with its caller outside src/")


def test_every_allowed_symbol_exists_with_its_caller_outside_src_only():
    symbols, used = package_symbols()
    for (module, symbol), caller in ALLOWED.items():
        entry = f"{module}.{symbol}"
        assert caller.startswith("perfbench/"), (
            f"{entry} is kept for {caller}: move it there or delete it")
        assert (module, symbol) in symbols, f"{entry} no longer exists"
        name = symbols[module, symbol]
        assert name not in used, f"{entry} has a caller in src/: drop it"
        assert name in names_used(parse(ROOT / caller)), (
            f"{caller} no longer names {entry}")


def test_the_walk_finds_an_uncalled_helper():
    tree = ast.parse("def used():\n    pass\n\n"
                     "def unused():\n    used()\n\n"
                     "class Box:\n"
                     "    def __len__(self):\n        return 0\n\n"
                     "    def size(self):\n        return self.size_of()\n\n"
                     "    def size_of(self):\n        return 0\n")
    assert definitions(tree) == [("used", "used"), ("unused", "unused"),
                                 ("Box", "Box"), ("Box.size", "size"),
                                 ("Box.size_of", "size_of")]
    assert sorted(name for _, name in definitions(tree)
                  if name not in names_used(tree)) == ["Box", "size",
                                                       "unused"]
