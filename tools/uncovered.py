"""List the statements of ``src/tcinit`` that a pytest run never executes.

A pytest plugin on the standard library's ``sys.settrace``: it starts tracing
when pytest imports it, before any test module imports ``tcinit``, so lines
run at import time count.  Load it with ``-p`` and put ``tools`` on the path:

    PYTHONPATH=src:tools python -m pytest -q -p uncovered

After the run it prints, per module, the statements no traced thread
executed, one ``path:line: source`` line each, then a total.  A statement
counts as run when any line of its header ran (a compound statement's lines
up to its body, a simple statement's lines).  Statements with no bytecode,
such as function docstrings, are not listed.  Code run in subprocesses (the
CLI and demo tests start some) is not traced.  Tracing slows the run down:
tier-1 took 53 s under it against 42 s without it on a 2-core machine.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types

_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "tcinit")

# Per code filename, the tracer of its frames, or None outside the package.
_tracers: dict = {}
# Per absolute path of a package module, the lines that ran.
_ran: dict[str, set[int]] = {}


def _line_tracer(lines: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    return trace


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    tracer = _tracers.get(name, False)
    if tracer is False:
        path = os.path.abspath(name)
        mine = os.path.dirname(path) == _PACKAGE
        tracer = _tracers[name] = _line_tracer(_ran.setdefault(path, set())) if mine else None
    return tracer


def _code_lines(source: str, path: str) -> set[int]:
    """Every line that some bytecode of the module is attributed to."""
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _headers(tree: ast.AST):
    """Each statement's line and its header lines: up to its first nested
    statement or handler, else all of its lines."""
    nested = (ast.stmt, ast.excepthandler, ast.match_case)
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            inner = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, nested)]
            stop = min(inner) if inner else node.end_lineno + 1
            yield node.lineno, range(node.lineno, max(stop, node.lineno + 1))


def uncovered(source: str, path: str, ran: set[int]) -> list[int]:
    """The lines of the statements of the module ``source``, read from
    ``path``, that did not run, given the lines that did."""
    code = _code_lines(source, path)
    return sorted({line for line, header in _headers(ast.parse(source))
                   if not ran.intersection(header) and code.intersection(header)})


def report() -> list[str]:
    """Per module, the statements that never ran, then the total."""
    out, total = [], 0
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        missed = uncovered(source, path, _ran.get(path, set()))
        text = source.splitlines()
        rel = os.path.join("src", "tcinit", name)
        out.append(f"{rel}: {len(missed)} statements never run")
        out += [f"{rel}:{line}: {text[line - 1].strip()}" for line in missed]
        total += len(missed)
    out.append(f"{total} statements never run")
    return out


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statements never run")
    for line in report():
        terminalreporter.write_line(line)


sys.settrace(_trace)
threading.settrace(_trace)
