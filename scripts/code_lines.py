#!/usr/bin/env python3
"""Print the code lines of every Python module in a directory, and their
total: the lines that hold a token of code, with blank lines, comments and
docstrings left out.

Usage, from the root of a checkout:

    python3 scripts/code_lines.py src/dplfit

A line counts when ``tokenize`` finds a token on it other than a comment,
a line break, an indent or a dedent; a string spanning several lines
counts each of them.  The lines of a docstring, found by ``ast`` as the
string that opens a module, class or function body, do not count.  One
line is printed per module, ``lines path``, sorted by path, then
``lines total``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in a module's syntax tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="directory of Python modules")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
