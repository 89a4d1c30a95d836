"""Property tests: malformed input ends in a TcinitError, never a raw exception."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcinit.cli import main
from tcinit.errors import TcinitError
from tcinit.formats import (
    BUILTIN_NAMES,
    RandomFormatConstraints,
    builtin_format,
    parse_format,
    random_format,
    serialize_format,
    validate,
)
from tcinit.graph import (
    FAN_IN,
    baseline_variance,
    extract_bg,
    graph_init_variance,
    make_plan,
    predicted_output_variance,
)
from tcinit.network import backward_apply, forward_apply, materialize
from tcinit.simulate import (
    LayerSpec,
    NetworkSpec,
    backward_trace,
    forward_trace,
    proposition_checks,
    scale_chain,
    validate_network,
    variance_mc,
)
from tcinit.tensor import (
    DenseTensor,
    DummySpec,
    build_dummy,
    contract,
    multi_contract,
    reversal_matrix,
    transformation_matrix,
)
from tcinit.transform import build_backward_format, verify_theorem1

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


@st.composite
def conv_text(draw):
    """Format text shaped like ``test_formats.MINIMAL_CONV``, with one or two
    kernel edges, from drawn values.  The text may add a second weight
    vertex ``v``, as ``lowrank`` has: a rank edge joins it to ``w``, and it
    carries the kernel edges or the output edge.  Each value is in range,
    except that the values of one kind may be 0 or -1, or, for paddings,
    anything from -1 to 4."""
    kinds = ("phi", "dim", "rank", "beta", "alpha", "stride", "pad")
    broken = draw(st.sampled_from((None,) * 3 + kinds))
    second = draw(st.sampled_from((None, "kernel", "output")))
    kernel_w = "v" if second == "kernel" else "w"
    output_w = "v" if second == "output" else "w"

    def num(kind, lo, hi, bad=(-1, 0)):
        return draw(st.integers(*bad) if kind == broken else st.integers(lo, hi))

    lines = [
        f"phi {num('phi', 1, 3)}",
        "vertex x input",
        "vertex w weight",
        *(["vertex v weight", f"edge r rank {num('rank', 1, 4)} w v"] if second else []),
        f"edge cin input-channel {num('dim', 1, 4)} x w",
        f"edge cout output-channel {num('dim', 1, 4)} {output_w}",
    ]
    for k in range(draw(st.integers(1, 2))):
        beta = num("beta", 1, 4)
        pad = num("pad", 0, max(beta - 1, 0), bad=(-1, 4))
        lines.append(f"edge k{k} kernel {beta} {kernel_w} alpha {num('alpha', 1, 8)} "
                     f"stride {num('stride', 1, 3)} pad {pad}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(conv_text())
def test_format_text_runs_adjoint_or_raises_tcinit_error(text):
    # The bound of test_network.assert_adjoint, at a batch of 2.
    try:
        f = parse_format(text)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2,) + f.input_mode_dims())
        g = rng.standard_normal((2,) + f.output_mode_dims())
        y = forward_apply(layer, DenseTensor.from_array(x)).array
        gx = backward_apply(layer, DenseTensor.from_array(g)).array
    except TcinitError:
        return
    assert y.shape == g.shape and gx.shape == x.shape
    scale = np.linalg.norm(y) * np.linalg.norm(g)
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) <= 1e-10 * scale


# Values of the wrong type or range for a size, count, seed or variance.
BAD = (0, -1, 2.5, math.nan, math.inf, "a", None, (1, 2), True, 10**30, 10**400)
TT = builtin_format("tt", i_dims=(2, 3), o_dims=(3, 2), rank=2)
TT_PLAN = make_plan(TT, "graph-in", "tanh")


def _tt_net(batch):
    return NetworkSpec((LayerSpec(TT, "tanh"),) * 2, TT.input_mode_dims(), batch)


# Each entry point, and a good value of each argument the test draws.  Every
# good trial count is at most 2, and a bad one never runs, so no call starts
# more than two worker threads.
ENTRY_POINTS = {
    "reversal_matrix": (reversal_matrix, {"r": 3}),
    "transformation_matrix": (transformation_matrix, {"t": 3, "epsilon": 2}),
    "variance_mc": (lambda seed, trials, batch, workers:
                    variance_mc(TT, TT_PLAN, seed, trials, batch, workers),
                    {"seed": 0, "trials": 2, "batch": 2, "workers": 1}),
    "forward_trace": (lambda seed, trials, batch, workers:
                      forward_trace(_tt_net(batch), seed, trials, workers),
                      {"seed": 0, "trials": 2, "batch": 2, "workers": 1}),
    "backward_trace": (lambda seed, trials, batch, workers, grad_var:
                       backward_trace(_tt_net(batch), seed, trials, workers, grad_var),
                       {"seed": 0, "trials": 2, "batch": 2, "workers": 1, "grad_var": 1.0}),
    "validate_network": (lambda trials, batch, workers:
                         validate_network(_tt_net(batch), trials, workers),
                         {"trials": 2, "batch": 2, "workers": 1}),
    "scale_chain": (lambda seed, trials, batch, workers:
                    scale_chain(seed, trials, (4, 3), batch, workers),
                    {"seed": 0, "trials": 2, "batch": 2, "workers": 1}),
    "proposition_checks": (proposition_checks, {"seed": 0, "samples": 64}),
}


TT_BG = extract_bg(TT, FAN_IN)
TT_LAYER = materialize(TT, TT_PLAN, 0)
VEC = DenseTensor.from_array(np.ones(3))
# The tensor, graph, format and layer entry points, as ENTRY_POINTS.
VALUE_ENTRY_POINTS = {
    "DenseTensor": (lambda rows, cols: DenseTensor((rows, cols), np.zeros(6)),
                    {"rows": 2, "cols": 3}),
    "graph_init_variance": (lambda n, p_a, phi: graph_init_variance(TT_BG, n, p_a, phi),
                            {"n": TT_BG.weight_count, "p_a": 1.0, "phi": 1}),
    "random_format": (lambda seed, low, high, max_rank_edges, phi: random_format(
                          seed, RandomFormatConstraints((low, high), (2, 8), (2, high),
                                                        max_rank_edges, phi)),
                      {"seed": 0, "low": 2, "high": 6, "max_rank_edges": 6, "phi": 1}),
    "random_format/constraints": (lambda constraints: random_format(0, constraints),
                                  {"constraints": RandomFormatConstraints()}),
    "serialize_format": (serialize_format, {"f": TT}),
    "build_dummy": (lambda alpha, beta, stride, padding:
                    build_dummy(DummySpec(alpha, beta, stride, padding)),
                    {"alpha": 5, "beta": 3, "stride": 2, "padding": 1}),
    "transformation_matrix": (transformation_matrix, {"t": 3, "epsilon": 2}),
    "materialize": (materialize, {"f": TT, "plan": TT_PLAN, "rng": 0}),
    "make_plan": (make_plan, {"f": TT, "mode": "graph-in", "activation": "tanh"}),
    "extract_bg": (extract_bg, {"f": TT, "mode": FAN_IN}),
    "baseline_variance": (baseline_variance, {"f": TT, "mode": "xavier-in"}),
    "build_backward_format": (build_backward_format, {"f": TT}),
    "forward_apply": (forward_apply, {
        "layer": TT_LAYER, "x": DenseTensor.from_array(np.ones((2, *TT.input_mode_dims())))}),
    "backward_apply": (backward_apply, {
        "layer": TT_LAYER, "grad": DenseTensor.from_array(np.ones((2, *TT.output_mode_dims())))}),
    "verify_theorem1": (verify_theorem1, {"fwd": DummySpec(5, 3, 2, 1)}),
    "contract": (contract, {"a": VEC, "axes_a": [0], "b": VEC, "axes_b": [0]}),
    "multi_contract": (multi_contract, {"tensors": [VEC, VEC], "groups": [[(0, 0), (1, 0)]],
                                        "open_axes": []}),
    "predicted_output_variance": (predicted_output_variance, {
        "bg": TT_BG, "input_var": 1.0, "vertex_vars": [1.0, 1.0], "p_a": 1.0, "phi": 1}),
}


@st.composite
def entry_calls(draw, entry_points):
    """An entry point and its arguments, each the good one or drawn from BAD."""
    name = draw(st.sampled_from(sorted(entry_points)))
    call, good = entry_points[name]
    kwargs = {k: draw(st.one_of(st.just(v), st.sampled_from(BAD))) for k, v in good.items()}
    return call, kwargs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(entry_calls(ENTRY_POINTS))
def test_runner_and_pattern_inputs_give_a_result_or_a_tcinit_error(entry):
    call, kwargs = entry
    try:
        call(**kwargs)
    except TcinitError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(entry_calls(VALUE_ENTRY_POINTS))
def test_tensor_graph_and_format_inputs_give_a_result_or_a_tcinit_error(entry):
    call, kwargs = entry
    try:
        call(**kwargs)
    except TcinitError:
        pass


HUGE = 10**5000
# Calls whose message prints a caller's integer of more digits than Python
# converts to text; each prints it as a size past the float range is printed.
HUGE_CALLS = {
    "DenseTensor": lambda: DenseTensor((HUGE,), np.zeros(1)),
    "DummySpec": lambda: DummySpec(-HUGE, 3),
    "seed": lambda: scale_chain(-HUGE, 2),
    "scale_chain dims": lambda: scale_chain(0, 2, (4, -HUGE)),
    "statistics": lambda: validate_network(
        NetworkSpec((LayerSpec(TT, "tanh"),), TT.input_mode_dims(), 2), HUGE),
    "samples": lambda: proposition_checks(0, -HUGE),
    "grad_var": lambda: backward_trace(_tt_net(2), 0, 1, 1, HUGE),
    "random_format": lambda: random_format(0, RandomFormatConstraints(max_rank_edges=HUGE)),
    "graph_init_variance": lambda: graph_init_variance(TT_BG, HUGE, 1.0, 1),
    "contract": lambda: contract(VEC, [HUGE], VEC, [0]),
}


@pytest.mark.parametrize("name", sorted(HUGE_CALLS))
def test_huge_integers_print_in_messages(name):
    with pytest.raises(TcinitError, match=r"1\.000e\+5000"):
        HUGE_CALLS[name]()
