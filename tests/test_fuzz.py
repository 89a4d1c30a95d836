"""Property tests: malformed input ends in a TcinitError, never a raw exception."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from tcinit.cli import main
from tcinit.errors import TcinitError
from tcinit.formats import BUILTIN_NAMES, builtin_format, validate

KEYS = (
    "c_in", "c_out", "rank", "ranks", "r0", "r1", "i_dims", "o_dims",
    "k", "spatial", "alpha", "stride", "padding", "phi",
)
small = st.integers(-2, 9)
values = st.one_of(
    small,
    small.map(str),
    st.sampled_from(["x", "", " ", "1.5", "4,,5", "3,x", "=", "-"]),
    st.lists(small, max_size=4).map(lambda v: ",".join(map(str, v))),
    st.lists(small, max_size=4).map(tuple),
)
params = st.dictionaries(st.sampled_from(KEYS), values, max_size=8)


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(BUILTIN_NAMES), params)
def test_builtin_format_validates_or_raises_tcinit_error(name, kwargs):
    try:
        f = builtin_format(name, **kwargs)
    except TcinitError:
        return
    validate(f)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(BUILTIN_NAMES), params)
def test_analyze_exits_0_or_2(name, kwargs):
    argv = ["analyze", "--builtin", name]
    for key, value in kwargs.items():
        argv += ["-P", f"{key}={_text(value)}"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)
