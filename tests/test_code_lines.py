"""tools/code_lines.py: code lines are not blank, comments or docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(path) == 7


def test_counts_non_blank_lines_as_grep_does(tmp_path):
    path = tmp_path / "sample.py"
    # blank, spaces only, a tab and a form feed, and a last line with no
    # newline: grep -cv '^[[:space:]]*$' counts 13 here
    path.write_text(SAMPLE + "\n   \n\t\x0c\nz = 3")
    assert code_lines.nonblank_lines(path) == 13


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["7", "12"], ["2", "2"], ["9", "14"]]
    assert lines[-1].split()[2] == "total"


def test_main_prints_a_block_and_a_total_for_each_directory(tmp_path,
                                                            capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (first / "a.py").write_text(SAMPLE)
    (second / "b.py").write_text("x = 1\n\ny = 2\n")
    (second / "c.py").write_text("z = 3\n")
    assert code_lines.main([str(first), str(second)]) == 0
    blocks = [block.splitlines() for block
              in capsys.readouterr().out.split("\n\n")]
    assert [[line.split()[:2] for line in block] for block in blocks] == [
        [["7", "12"], ["7", "12"]],
        [["2", "2"], ["1", "1"], ["3", "3"]]]
    assert [block[-1].split()[2:] for block in blocks] == [
        ["total", str(first)], ["total", str(second)]]
