"""Count the code lines of Python files: non-blank, non-comment lines
outside docstrings.

    python tools/code_lines.py src/haltlab

A line counts when a token other than a comment or a line break starts
or continues on it, and no docstring covers it.  A docstring is the
string statement that opens a module, class or function body, as
``ast.get_docstring`` reads it.  Arguments are files or directories;
directories are searched for ``*.py``.  Prints one count per file and
the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings in ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr):
                value = body[0].value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_bytes()
    counted: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            counted.update(range(tok.start[0], tok.end[0] + 1))
    return len(counted - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
