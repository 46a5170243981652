"""Count code lines in the non-test tree.

A code line is a line that holds a token other than a comment, a
newline, an indent or a dedent, and that lies outside every module,
class and function docstring. The tree is ``pdf_parser_ray/``,
``scripts/``, ``__ray_entry__.py`` and ``bench.py``.

    python scripts/count_code_lines.py [PATH ...]

prints one ``<count> <path>`` line per Python file and a ``total`` line.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE = ("pdf_parser_ray", "scripts", "__ray_entry__.py", "bench.py")
SKIP = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(src: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        src = f.read()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(src))


def python_files(paths) -> list[str]:
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += glob.glob(os.path.join(p, "**", "*.py"), recursive=True)
        else:
            files.append(p)
    return sorted(files)


if __name__ == "__main__":
    paths = sys.argv[1:] or [os.path.join(ROOT, p) for p in TREE]
    total = 0
    for path in python_files(paths):
        n = code_lines(path)
        total += n
        print(n, os.path.relpath(path, ROOT))
    print(total, "total")
