"""Print the code lines and the non-blank lines of each Python file in one
or more directories, and their totals per directory.

    python3 tools/code_lines.py [DIR ...]    (default: src/farmscale)

Each directory is one block, the blocks apart by a blank line. Each row is
the code lines, the non-blank lines and the file; the last row of a block
is its totals, followed by ``total`` and the directory. A code line holds
at least one token that is not a comment, and is not part of a docstring
(the leading string of a module, class or function). A non-blank line
holds anything but whitespace, as ``grep -cv '^[[:space:]]*$'`` counts it.
Standard library only.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(Path(path).read_bytes(), filename=str(path))
    return len(lines - docstring_lines(tree))


def nonblank_lines(path) -> int:
    return sum(1 for line in Path(path).read_bytes().split(b"\n")
               if line.strip())


def main(argv) -> int:
    for i, root in enumerate(map(Path, argv or ["src/farmscale"])):
        if i:
            print()
        code_total = nonblank_total = 0
        for path in sorted(root.glob("*.py")):
            code, nonblank = code_lines(path), nonblank_lines(path)
            code_total += code
            nonblank_total += nonblank
            print(f"{code:6d}  {nonblank:6d}  {path}")
        print(f"{code_total:6d}  {nonblank_total:6d}  total  {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
