"""Seeded Monte-Carlo propagation through stacks of tensorized layers.

Every randomized entry point takes an explicit master seed; trial ``t``
derives its own stream from ``SeedSequence([seed, t])`` and results are
reduced in trial order, so reports are byte-identical for any worker count.
:func:`variance_mc` runs its trials in blocks whose size depends on the layer
shapes alone, never on the worker count; workers map over trials or blocks.
While a pool of more than one worker runs, numpy's bundled OpenBLAS is held
at one thread, so that workers do not contend for cores.
"""

from __future__ import annotations

import ctypes
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .formats import LayerFormat
from .graph import (
    FAN_IN,
    InitPlan,
    extract_bg,
    make_plan,
    predicted_output_variance,
)
from .network import (
    _contract,
    _draw,
    _plan,
    _trial_block,
    _weight_specs,
    backward_apply,
    forward_apply,
    materialize,
)
from .tensor import DenseTensor, _activation, _activation_derivative, _check_array

DEFAULT_CHAIN_DIMS = (96, 200, 400, 600, 800, 1000, 800, 600, 400, 200, 100)
SATURATION_THRESHOLD = 0.99


@dataclass(frozen=True)
class LayerSpec:
    format: LayerFormat
    activation: str = "identity"
    mode: str = "graph-in"


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, ...]
    batch: int = 32


@dataclass(frozen=True)
class LayerTrace:
    pre_var: float
    pre_std: float
    post_var: float
    post_std: float
    grad_var: float
    grad_std: float
    saturation: float


@dataclass(frozen=True)
class TraceReport:
    seed: int
    trials: int
    threshold: float
    layers: tuple[LayerTrace, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "threshold": self.threshold,
            "layers": [
                {
                    "layer": i,
                    "pre_var": t.pre_var,
                    "pre_std": t.pre_std,
                    "post_var": t.post_var,
                    "post_std": t.post_std,
                    "grad_var": t.grad_var,
                    "grad_std": t.grad_std,
                    "saturation": t.saturation,
                }
                for i, t in enumerate(self.layers)
            ],
        }


def report_json(report: TraceReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def report_csv(report: TraceReport) -> str:
    lines = ["layer,pre_var,post_var,grad_var,saturation"]
    for i, t in enumerate(report.layers):
        lines.append(
            f"{i},{t.pre_var!r},{t.post_var!r},{t.grad_var!r},{t.saturation!r}"
        )
    return "\n".join(lines) + "\n"


# -- network wiring ---------------------------------------------------------


def validate_network(net: NetworkSpec) -> None:
    """Check that the layers chain and that no array of a trial exceeds the
    memory limit: the batched input, every layer output, and the largest
    array of each layer's compiled forward and backward plan (a gathered
    window can be ``beta**2`` times a layer's input).  Compiling a plan
    allocates nothing, and the plan is the one the trial runs."""
    if not net.layers:
        raise InvalidParams("network has no layers")
    if net.batch < 1:
        raise InvalidParams("batch must be >= 1")
    feed = tuple(net.input_shape)
    _check_array((net.batch, *feed), "the batched network input")
    for i, spec in enumerate(net.layers):
        f = spec.format
        if feed != f.input_mode_dims():
            raise ShapeMismatch(
                f"layer {i} expects input dims {f.input_mode_dims()} "
                f"(channels, then spatial) but receives {feed}"
            )
        out = f.output_mode_dims()
        _check_array((net.batch, *out), f"the output of layer {i}")
        w_shapes = tuple(f.weight_mode_dims(vid) for vid in f.weight_ids)
        for backward, dims in ((False, feed), (True, out)):
            plan = _plan(f, backward, (net.batch, *dims), w_shapes)
            direction = "backward" if backward else "forward"
            _check_array((plan.largest,), f"the largest array of layer {i}'s {direction} pass")
        feed = out


def _forward(net: NetworkSpec, layers, x: np.ndarray) -> list:
    """Run the stack from ``x``; per layer, the (pre, post) activations."""
    states = []
    for spec, layer in zip(net.layers, layers):
        pre = forward_apply(layer, DenseTensor.from_array(x)).array
        x = _activation(pre, spec.activation)
        states.append((pre, x))
    return states


def _backward(net: NetworkSpec, layers, states, g: np.ndarray):
    """Push the output gradient ``g`` back through the stack; returns the
    gradient at the network input and, per layer, the variance of the
    gradient at that layer's input.  Activation derivatives use the exact
    forward masks.  Only the current gradient is kept alive: pass ``g`` as
    an expression, not a name the caller holds."""
    grad_vars = [0.0] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        g = g * _activation_derivative(states[i][0], net.layers[i].activation)
        g = backward_apply(layers[i], DenseTensor.from_array(g)).array
        grad_vars[i] = float(g.var())
    return g, grad_vars


@lru_cache(maxsize=1)
def _openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or
    None when that library or either symbol is absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread, restoring the previous count on exit."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _map_trials(fn, items, workers: int) -> list:
    """``fn`` over ``items`` (trials or trial blocks), results in order.
    Raises :class:`~tcinit.errors.InvalidParams` when there are none."""
    if not items:
        raise InvalidParams("trials must be >= 1")
    if workers > 1:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, items))
    return [fn(t) for t in items]


def _trace(net: NetworkSpec, seed: int, trials: int, workers: int, grad_var=None) -> TraceReport:
    """Mean and trial-to-trial std of the per-layer statistics.

    Trial ``t`` spawns ``SeedSequence([seed, t])`` into the input stream,
    one stream per layer's weights and the upstream-gradient stream, draws a
    standard-normal input and runs the stack forward.  Unless ``grad_var``
    is None it then injects an i.i.d. normal gradient of that variance at
    the network output and runs the stack backward; otherwise the gradient
    statistics read 0.
    """
    validate_network(net)
    plans = [make_plan(s.format, s.mode, s.activation) for s in net.layers]

    def one(trial):
        kids = np.random.SeedSequence([seed, trial]).spawn(len(net.layers) + 2)
        layers = [
            materialize(s.format, plan, np.random.default_rng(kid))
            for s, plan, kid in zip(net.layers, plans, kids[1:])
        ]
        x = np.random.default_rng(kids[0]).standard_normal((net.batch, *net.input_shape))
        states = _forward(net, layers, x)
        grad_vars = [0.0] * len(layers)
        if grad_var is not None:
            draw = np.random.default_rng(kids[-1]).standard_normal
            g_shape = states[-1][1].shape
            grad_vars = _backward(net, layers, states, draw(g_shape) * np.sqrt(grad_var))[1]
        return [
            (pre.var(), post.var(), v, (np.abs(post) > SATURATION_THRESHOLD).mean())
            for (pre, post), v in zip(states, grad_vars)
        ]

    # [trials, layers, (pre_var, post_var, grad_var, saturation)]
    rows = np.asarray(_map_trials(one, range(trials), workers))
    stats = zip(rows.mean(axis=0), rows.std(axis=0))
    layers = tuple(
        LayerTrace(*map(float, (m[0], d[0], m[1], d[1], m[2], d[2], m[3]))) for m, d in stats
    )
    return TraceReport(seed, trials, SATURATION_THRESHOLD, layers)


def forward_trace(net: NetworkSpec, seed: int, trials: int, workers: int = 1) -> TraceReport:
    """Propagate standard-normal inputs; per-layer activation statistics.

    Each trial redraws the input and all weights; reported figures are the
    mean over trials (with trial-to-trial standard deviation) of the
    per-layer pre/post-activation variance and the fraction of
    post-activation magnitudes above ``SATURATION_THRESHOLD``.
    """
    return _trace(net, seed, trials, workers)


def backward_trace(
    net: NetworkSpec, seed: int, trials: int, workers: int = 1, grad_var: float = 1.0
) -> TraceReport:
    """Push a random upstream gradient back through the stack.

    The gradient injected at the network output is i.i.d. normal with
    variance ``grad_var``.  Each layer's ``grad_var`` statistic is the
    variance of the loss gradient at that layer's *input*; activation
    derivatives use the exact forward masks.  The activation statistics are
    those of :func:`forward_trace`.
    """
    return _trace(net, seed, trials, workers, grad_var)


def input_gradient(net: NetworkSpec, layers, x: np.ndarray, upstream: np.ndarray):
    """Exact loss gradient at the network input for loss sum(upstream * a(y)).

    ``layers`` are materialized layers matching ``net``; used by gradient
    verification.  The gradient has the shape of ``x``.
    """
    return _backward(net, layers, _forward(net, layers, x), upstream)[0]


# -- single-layer variance check -------------------------------------------


def variance_mc(
    f: LayerFormat,
    plan: InitPlan,
    seed: int,
    trials: int,
    batch: int = 8,
    workers: int = 1,
) -> dict:
    """Measured vs predicted linear output/input variance ratio.

    The prediction is ``phi * prod(sigma^2) * prod(e)`` over the fan-in
    backbone graph; the measurement is taken before any activation, so the
    two agree for every plan mode up to sampling noise.

    Trial ``t`` draws a standard-normal input of ``batch`` samples and then
    every weight from ``SeedSequence([seed, t])``.  Trials run in blocks:
    a block stacks its trials' inputs and weights along a leading trial axis
    and runs one contraction per replica, and each trial's ratio is read off
    its slice.  The block size comes from the layer shapes (see
    :func:`~tcinit.network._trial_block`), so the figures do not depend on
    ``workers``, which map over blocks.  Raises
    :class:`~tcinit.errors.ResourceLimit` before any draw when one block
    would not fit in memory.
    """
    shapes, variances = _weight_specs(f, plan)
    predicted = predicted_output_variance(
        extract_bg(f, FAN_IN), 1.0, variances, 1.0, f.phi
    )
    x_shape = (batch,) + f.input_mode_dims()
    size = _trial_block(f, x_shape, shapes)

    def run_block(block):
        xs, draws = [], []
        for t in block:
            k_in, k_w = np.random.SeedSequence([seed, t]).spawn(2)
            xs.append(np.random.default_rng(k_in).standard_normal(x_shape))
            rng = np.random.default_rng(k_w)
            draws.append(_draw(rng, shapes, variances, plan.distribution, f.phi))
        stacked = len(block) > 1
        if stacked:
            x = np.stack(xs)
            replicas = [[np.stack(ws) for ws in zip(*reps)] for reps in zip(*draws)]
        else:
            x, replicas = xs[0], draws[0]
        out = _contract(f, x, replicas, backward=False, trial_axis=stacked)
        n = len(block)
        return out.reshape(n, -1).var(axis=1) / x.reshape(n, -1).var(axis=1)

    blocks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    ratios = np.concatenate(_map_trials(run_block, blocks, workers))
    return {
        "seed": seed,
        "trials": trials,
        "empirical_ratio": float(np.mean(ratios)),
        "empirical_std": float(np.std(ratios)),
        "predicted_ratio": float(predicted),
    }


# -- matrix chain scale ------------------------------------------------------


def scale_chain(
    seed: int,
    trials: int = 500,
    dims=DEFAULT_CHAIN_DIMS,
    batch: int = 32,
    workers: int = 1,
) -> list[dict]:
    """Per-step variance scale of a chain of standard-normal matrix products.

    Step ``t`` multiplies the running activation by a fresh N(0,1) matrix of
    shape ``(dims[t-1], dims[t])`` and reports
    ``var(out) / (var(in) * sigma^2(W))`` with ``sigma^2(W) = 1``; the
    ground truth is the contracted dimension ``dims[t-1]``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise InvalidParams("chain needs at least two dims")

    def one(trial):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        x = rng.standard_normal((batch, dims[0]))
        scales = []
        for a, b in zip(dims, dims[1:]):
            w = rng.standard_normal((a, b))
            out = x @ w
            scales.append(out.var() / x.var())
            x = out
        return scales

    rows = np.asarray(_map_trials(one, range(trials), workers))
    table = []
    for t in range(len(dims) - 1):
        table.append(
            {
                "step": t + 1,
                "contracted_dim": dims[t],
                "mean": float(rows[:, t].mean()),
                "std": float(rows[:, t].std()),
            }
        )
    return table


# -- distributional propositions ---------------------------------------------


def proposition_checks(seed: int, samples: int = 100_000) -> dict:
    """Monte-Carlo checks of variance additivity and contraction scaling.

    (a) the variance of an elementwise sum of independent zero-mean tensors
    is the sum of their variances; (b) contracting independent zero-mean
    tensors over ``d`` shared dims scales the variance by the product of the
    contracted dims.  Returns measured/expected pairs with pass flags.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, measured, expected, tolerance):
        ratio = measured / expected if expected else measured
        checks.append(
            {
                "name": name,
                "measured": float(measured),
                "expected": float(expected),
                "ratio": float(ratio),
                "tolerance": tolerance,
                "ok": bool(abs(measured - expected) <= tolerance * abs(expected)),
            }
        )

    # (a) additivity.
    a = rng.standard_normal(samples)
    b = rng.standard_normal(samples)
    add("sum of two unit-variance tensors", (a + b).var(), 2.0, 0.03)
    for case in range(3):
        v = rng.uniform(0.25, 2.0, size=3)
        total = sum(
            rng.normal(0.0, np.sqrt(vi), size=samples) for vi in v
        )
        add(f"sum of three tensors #{case}", total.var(), float(v.sum()), 0.03)

    # (b) fixed contraction case: [4,5,6] x [6,7] over the shared dim 6.
    repeats = max(1, samples // (4 * 5 * 7))
    x = rng.standard_normal((repeats, 4, 5, 6))
    y = rng.normal(0.0, 0.5, size=(repeats, 6, 7))
    z = np.einsum("rabk,rkc->rabc", x, y)
    add("contract [4,5,6] with [6,7] over dim 6", z.var(), 1.0 * 0.25 * 6, 0.05)

    # (b) randomized suite: dims 2-8, contraction order d in {1,2,3}.
    for case in range(6):
        d = int(rng.integers(1, 4))
        shared = tuple(int(rng.integers(2, 9)) for _ in range(d))
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        vx = float(rng.uniform(0.25, 2.0))
        vy = float(rng.uniform(0.25, 2.0))
        repeats = max(1, samples // (m * n))
        x = rng.normal(0.0, np.sqrt(vx), size=(repeats, m) + shared)
        y = rng.normal(0.0, np.sqrt(vy), size=(repeats,) + shared + (n,))
        letters = "ijk"[:d]
        z = np.einsum(f"rm{letters},r{letters}n->rmn", x, y)
        expected = vx * vy * float(np.prod(shared))
        add(
            f"contract over dims {shared} #{case}",
            z.var(),
            expected,
            0.05,
        )

    # zero operand.
    x = rng.standard_normal((100, 6))
    z = x @ np.zeros((6, 4))
    add("contract with a zero tensor", z.var() + 1.0, 1.0, 0.0)

    return {"seed": seed, "samples": samples, "checks": checks,
            "ok": all(c["ok"] for c in checks)}
