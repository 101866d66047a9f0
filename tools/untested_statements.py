"""List the statements of ``src/entrobound`` that the tier-1 suite never runs.

Runs the tier-1 command (``pytest -q --continue-on-collection-errors``) in
this process under ``sys.settrace``, recording line events only in frames
of the main thread whose code lives in ``src/entrobound``, then prints
every statement none of whose lines ran, as ``file:line function:
source``.  Docstrings are not statements here, and neither is ``from
__future__ import ...``, which compiles to no code.  Statements that only
run in a subprocess would show up too, since the trace sees this process
only; the suite runs ``python -m entrobound`` in process as well.  The
standard library is all it needs.

Usage, from anywhere::

    python tools/untested_statements.py [extra pytest arguments]

Tracing makes the suite about half again slower (about 70 s against
40-55 s on a 2-vCPU VM).  The exit status is pytest's when that is
nonzero, else 1 if any statement is listed, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrobound"


def _run_traced(pytest_args: list) -> tuple:
    """(pytest's exit status, {file: set of lines that ran}) of one traced run."""
    prefix = str(PACKAGE) + os.sep
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest  # noqa: E402  (after the path is set, before tracing starts)

    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
    return int(status), ran


def _statements(tree: ast.Module):
    """(statement, enclosing function name) for every statement, docstrings excluded."""
    def visit(body, scope):
        for k, node in enumerate(body):
            docstring = (k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if not (docstring or future):
                yield node, scope
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            for field in ("body", "orelse", "finalbody"):
                yield from visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                yield from visit(handler.body, inner)

    yield from visit(tree.body, "<module>")


def _header_lines(node: ast.stmt) -> range:
    """The lines a statement owns: all of a simple one, the header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def untested(ran: dict) -> list:
    """``file:line function: source`` of each statement of the package that never ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for node, scope in _statements(ast.parse(source)):
            if seen.isdisjoint(_header_lines(node)):
                rel = path.relative_to(ROOT)
                out.append(f"{rel}:{node.lineno} {scope}: {lines[node.lineno - 1].strip()}")
    return out


def main(argv=None) -> int:
    status, ran = _run_traced(list(sys.argv[1:] if argv is None else argv))
    missed = untested(ran)
    print(f"\n{len(missed)} statement(s) of src/entrobound never ran:")
    for line in missed:
        print(line)
    return status or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
