"""Every attribute ``src/farmscale`` stores on ``self``, some code reads.

The AST of each module of ``src/farmscale`` is walked for the attributes
stored as ``self.<name> = ...`` (also as one target of a tuple or a chained
assignment). An attribute counts as read when a module of ``src/farmscale``
or ``perfbench/`` loads ``<anything>.<name>``, updates it in place
(``self.params -= num`` reads it first) or names it in a ``getattr`` call.
A stored attribute with no such reader is write-only state and fails the
check: tests are no reason to keep it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "farmscale"
READERS = (PACKAGE, ROOT / "perfbench")


def stored_on_self(tree) -> set:
    """The attribute names ``tree`` assigns on ``self``."""
    stored = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        stored.add(sub.attr)
    return stored


def attributes_read(tree) -> set:
    """The attribute names ``tree`` loads, updates in place or passes to
    ``getattr`` as a string."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Attribute)):
            read.add(node.target.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


def write_only(stores: dict, readers) -> dict:
    """Of ``stores``, module name -> attribute names it stores on ``self``,
    those that no tree of ``readers`` reads, per module."""
    read = set().union(*map(attributes_read, readers))
    return {name: sorted(attrs - read) for name, attrs in stores.items()
            if attrs - read}


def test_no_attribute_of_the_package_is_write_only():
    stores = {path.name: stored_on_self(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py"))}
    readers = [ast.parse(path.read_text())
               for folder in READERS for path in sorted(folder.glob("*.py"))]
    assert write_only(stores, readers) == {}, (
        "attributes stored on self that nothing in src/farmscale or "
        "perfbench reads")


def test_the_walk_finds_write_only_state():
    source = ("class A:\n"
              "    def __init__(self, n):\n"
              "        self.n = n\n"
              "        self.a, self.b = 0, 1\n"
              "        self.total: int = 0\n"
              "        self.count = self.last = 0\n"
              "        self.params = [n]\n"
              "    def step(self, other):\n"
              "        self.params += [other.n]\n"
              "        return getattr(self, 'b')\n")
    tree = ast.parse(source)
    assert write_only({"a.py": stored_on_self(tree)}, [tree]) == {
        "a.py": ["a", "count", "last", "total"]}
