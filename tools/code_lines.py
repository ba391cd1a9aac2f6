"""Count the code lines of Python sources, per module and in total.

A code line holds a Python token other than a comment or a line break; the
lines of docstrings (a string statement heading a module, class or function)
are not code.  Tokens come from ``tokenize`` and docstrings from ``ast``, so
blank lines, comments and docstrings of any length count the same: zero.

    python tools/code_lines.py [path ...]

Each path is a ``.py`` file or a directory searched for them; the default is
``src``.  Prints one ``<lines> <module>`` row per file and then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_HEADED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source file ``path``."""
    with open(path, "rb") as fh:
        lines = {n for tok in tokenize.tokenize(fh.readline) if tok.type not in _NOT_CODE
                 for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        head = node.body[0] if isinstance(node, _HEADED) and node.body else None
        if isinstance(head, ast.Expr) and isinstance(head.value, ast.Constant) \
                and isinstance(head.value.value, str):
            lines.difference_update(range(head.lineno, head.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
