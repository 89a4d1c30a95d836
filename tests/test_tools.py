"""The tools that decide what a change may do: ``tools/parity.py``'s
``compare`` (the byte-parity contract), ``tools/uncovered.py``'s
``uncovered`` (the statements no test runs) and ``tools/codelines.py``'s
``code_lines`` (the figure a simplification lowers)."""

import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    """``tools/<name>.py`` as a module of its own.  ``uncovered.py`` starts
    tracing on import, so the trace functions in force before are restored,
    whether or not the run is itself traced."""
    saved = sys.gettrace(), threading.gettrace()
    spec = importlib.util.spec_from_file_location(f"_tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.settrace(saved[0])
        threading.settrace(saved[1])
    return module


parity = _load("parity")
uncovered = _load("uncovered")
codelines = _load("codelines")


class TestParityCompare:
    A = {"same": "1", "changed": "2", "only-a": "3"}
    B = {"same": "1", "changed": "9", "only-b": "4"}

    def test_equal_inputs_differ_nowhere(self):
        assert parity.compare(self.A, dict(self.A)) == []

    def test_changed_and_one_sided_keys_listed(self):
        assert parity.compare(self.A, self.B) == ["changed", "only-a", "only-b"]

    @pytest.mark.parametrize("other, code, listed, total", [
        (A, 0, [], 3),
        (B, 1, ["changed", "only-a", "only-b"], 4),
    ], ids=["equal", "differ"])
    def test_compare_flag_exits_on_any_difference(self, tmp_path, capsys, other, code,
                                                  listed, total):
        paths = []
        for name, digests in (("a.json", self.A), ("b.json", other)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(digests))
        assert parity.main(["--compare", *map(str, paths)]) == code
        out, err = capsys.readouterr()
        assert out.split() == listed
        assert err == f"{len(listed)} of {total} keys differ\n"


SOURCE = '''\
def f(x):
    """A docstring has no bytecode."""
    if x:
        return 1
    return (
        2
    )


class C:
    def g(self):
        pass
'''


class TestUncovered:
    def test_lists_the_statements_that_did_not_run(self):
        # An import runs the def and class lines; f(1) runs lines 3 and 4.
        assert uncovered.uncovered(SOURCE, "m.py", {1, 3, 4, 10, 11}) == [5, 12]

    def test_any_line_of_a_statement_counts(self):
        assert uncovered.uncovered(SOURCE, "m.py", {1, 3, 4, 6, 10, 11, 12}) == []

    def test_nothing_run_lists_every_statement_with_bytecode(self):
        assert uncovered.uncovered(SOURCE, "m.py", set()) == [1, 3, 4, 5, 10, 11, 12]


CODE = '''\
"""Module docstring,
over two lines."""
# A comment line.
import os  # a comment after code


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that
is not a docstring"""
        return (
            text
        )
'''


class TestCodeLines:
    def test_counts_lines_with_code_outside_docstrings(self):
        # import, class, def, the two lines of the string, return and its
        # two continuation lines.
        assert codelines.code_lines(CODE) == 8

    def test_prints_each_module_and_the_total(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text(CODE)
        (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
        assert codelines.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "1 a.py\n8 b.py\n9 total\n"
