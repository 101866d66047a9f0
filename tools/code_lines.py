"""Count the code lines of each module of ``src/entrobound``.

A code line is a physical line that holds part of a statement: blank
lines, comment-only lines and the lines of docstrings (the string that
opens a module, class or function body) do not count, and a statement
over several lines counts each line it spans.  Prints one ``module
count`` line per module, largest first, then the total.  The standard
library is all it needs.

Usage, from anywhere::

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entrobound"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
