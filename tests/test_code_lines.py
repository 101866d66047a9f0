"""Tests for tools/code_lines.py, the count of code lines per module."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", REPO / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code


# a comment line
def f(x):
    """One-line docstring."""

    return (x +
            1)


class C:
    """Class
    docstring."""

    y = """an assigned string,
    not a docstring"""
'''


def test_counts_statement_lines_only():
    # import, def, the two lines of return, class, the two lines of y.
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(n) for name, n in rows[:-1]}
    assert set(counts) == {p.stem for p in (REPO / "src" / "entrobound").glob("*.py")}
    assert rows[-1] == ["total", str(sum(counts.values()))]
    assert list(counts.values()) == sorted(counts.values(), reverse=True)
