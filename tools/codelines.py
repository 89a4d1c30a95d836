"""Count the code lines of each module of ``src/tcinit`` and their total.

A line counts when it holds a token other than a comment (every line a
multi-line token spans holds it) and lies outside any module, class or
function docstring.  Blank lines, comment lines and docstrings do not count,
so the figure moves with code alone.

    python tools/codelines.py [DIR]

``DIR`` defaults to the ``src/tcinit`` of this checkout.  It prints one
``<lines> <module>`` line per module, in name order, then ``<total> total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tcinit"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start ``(line, column)`` of every module, class and function
    docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The code lines of the module ``source``."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=_PACKAGE,
                        help="the package directory (default: src/tcinit)")
    total = 0
    for path in sorted(parser.parse_args(argv).dir.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
