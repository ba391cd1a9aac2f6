"""``tools/code_lines.py``: the code-line count that CHANGES.md and ROADMAP.md cite.

A module with every kind of line the count tells apart has a pinned count:
docstrings, comments and blank lines count zero, and a multi-line string that is
not a docstring and a call spread over lines count each of their lines.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


class Box:
    """Class docstring."""

    # a comment line

    def size(self):
        """Function docstring,
        over three lines.
        """
        text = """a string that is
not a docstring"""
        return len(
            text,
        )
'''
# import, class, def, the two lines of the string, the three lines of the call
CODE_LINES = 8


def _load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines_tool", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_pinned_module(tmp_path, capsys):
    tool = _load_code_lines()
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert tool.code_lines(path) == CODE_LINES
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{CODE_LINES:6d} {path}\n{CODE_LINES:6d} total\n"
