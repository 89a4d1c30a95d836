"""Turn a layer format plus an initialization plan into executable tensors.

A materialized layer holds ``phi`` independent replicas of the weight
vertices; the layer output is their sum.  Both directions run through one
contraction engine, which executes kernel edges as strided-window gathers
(im2col): the input's kernel axis becomes the open output-spatial index, and
one window axis per kernel edge joins the weight that edge touches.  No
binary pattern tensor is built here; :func:`~tcinit.tensor.build_dummy` and
:func:`~tcinit.transform.backward_pattern` describe the same contractions
exactly and are the reference the tests compare against.

The backward pass is the forward pass of ``build_backward_format(f)``: the
output gradient is its input, each window is gathered from the gradient with
``stride - 1`` zeros inserted between entries and a left pad of
``beta - padding - 1`` (what the ``P' x T`` pattern selects), and the weights
are flipped along their kernel-window axes, which supplies the ``R`` factor.

Each (format, direction, input shape, trial axis) is compiled once into a
plan held in a bounded cache.  Compiling gives every index one einsum letter
keyed by the edge it belongs to (see :func:`_wiring`), then follows a greedy
pairwise path from ``np.einsum_path``; the plan holds the step subscripts,
the window gathers and the kernel flips.  The input side stays un-windowed
until the first step that contracts a window index, so channel contractions
run on the smaller tensor.

Axis conventions (all carry a leading batch axis): channels, then spatial.

* layer input  — input-channel edges in declaration order, then one input
  spatial axis (length ``alpha``) per kernel edge in declaration order;
* layer output — output-channel edges in declaration order, then one output
  spatial axis (length ``alpha_prime``) per kernel edge in declaration order.

The rewrite swaps the two channel kinds and keeps the edge order, so the
forward output layout is the backward format's input layout and the backward
output layout is the forward input layout: no direction permutes axes.

A plan may also take an optional leading *trial axis*, ahead of the batch
axis: an open index joined by the input and by every weight, so that one
contraction runs a block of independent Monte-Carlo trials, each with its own
input and weights.  The steps and window gathers are those of the per-trial
plan with one more index; the per-trial call is the case without it.  Blocks
are sized from the per-trial plan's largest array (see :func:`_trial_block`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PlanIncomplete, ShapeMismatch
from .formats import INPUT_CHANNEL, KERNEL, OUTPUT_CHANNEL, LayerFormat
from .graph import InitPlan
from .tensor import _OPTIMIZE, DenseTensor, _check_array, _einsum, _letters
from .transform import build_backward_format

# Compiled plans kept per process.  A plan holds only subscripts and small
# tuples, so the bound caps memory when many distinct formats are executed.
_PLAN_CACHE_SIZE = 128

# A trial block holds at most this many bytes in the plan's largest array
# (one trial may need more) and at most MAX_TRIAL_BLOCK trials.  Larger blocks
# buy little once per-trial Python overhead is amortized, and cost memory: a
# conv layer with a 330 KB window gather per trial ran slower per trial in
# blocks of 3 than one trial at a time.
TRIAL_BLOCK_BYTES = 1 << 19
MAX_TRIAL_BLOCK = 64


@dataclass(frozen=True)
class MaterializedLayer:
    format: LayerFormat
    plan: InitPlan
    replicas: tuple[dict[str, DenseTensor], ...]


def _sample(rng: np.random.Generator, shape, sigma2: float, distribution: str):
    if distribution == "uniform":
        half = np.sqrt(3.0 * sigma2)
        return rng.uniform(-half, half, size=shape)
    return rng.normal(0.0, np.sqrt(sigma2), size=shape)


def _weight_specs(f: LayerFormat, plan: InitPlan):
    """Shapes and planned variances of the weight vertices, in order."""
    missing = [vid for vid in f.weight_ids if vid not in plan.variances]
    if missing:
        raise PlanIncomplete(f"plan assigns no variance to vertices {missing}")
    shapes = tuple(f.weight_mode_dims(vid) for vid in f.weight_ids)
    return shapes, [plan.variances[vid] for vid in f.weight_ids]


def _draw(rng, shapes, variances, distribution: str, phi: int) -> list[list[np.ndarray]]:
    """``phi`` replicas of the weight arrays, drawn from ``rng`` replica by
    replica and, within a replica, vertex by vertex."""
    return [
        [_sample(rng, s, v, distribution) for s, v in zip(shapes, variances)]
        for _ in range(phi)
    ]


def materialize(f: LayerFormat, plan: InitPlan, rng) -> MaterializedLayer:
    """Draw all weight tensors.

    ``rng`` is a seed or a numpy Generator.  Each replica's weight for
    vertex ``v`` has the shape of its incident-edge dims in declaration
    order; entries are i.i.d. zero mean with the planned variance.
    """
    shapes, variances = _weight_specs(f, plan)
    replicas = _draw(np.random.default_rng(rng), shapes, variances, plan.distribution, f.phi)
    return MaterializedLayer(
        f,
        plan,
        tuple(
            {vid: DenseTensor.from_array(w) for vid, w in zip(f.weight_ids, weights)}
            for weights in replicas
        ),
    )


def _wiring(f: LayerFormat, x_shape, trial_axis: bool):
    """Einsum terms of one replica's forward pass, one letter per index.

    Indices are keyed by name: an edge by its id (a kernel edge's id keys
    its window offset), and the trial axis, the batch axis and each kernel
    edge's window position by tuples, which no edge id can equal.  The
    summed indices take the first letters, in edge declaration order; the
    open indices follow in output order: the trial axis (with
    ``trial_axis``), the batch axis, the output-channel edges, then one
    window position per kernel edge.

    Returns the un-windowed input term, the window-offset letters the
    gather appends to it, one term per weight vertex, the output term and
    the size of every letter.  With ``trial_axis`` the input, every weight
    and the output lead with the trial axis.
    """
    trial, batch = ("trial",), ("batch",)
    kernels = f.kernel_edges
    positions = [(e.id, "position") for e in kernels]
    lead = [trial] if trial_axis else []
    summed = [e.id for e in f.edges if e.kind != OUTPUT_CHANNEL]
    opened = lead + [batch] + [e.id for e in f.edges_of_kind(OUTPUT_CHANNEL)] + positions
    letter = dict(zip(summed + opened, _letters(len(summed) + len(opened))))

    def term(keys):
        return "".join(letter[k] for k in keys)

    size = {e.id: e.dim for e in f.edges}
    size.update(zip(positions, (e.window.alpha_prime for e in kernels)))
    size[trial], size[batch] = x_shape[0], x_shape[len(lead)]
    x_keys = lead + [batch] + [e.id for e in f.edges_of_kind(INPUT_CHANNEL)] + positions
    w_terms = [term(lead + [e.id for e in f.edges_of(vid)]) for vid in f.weight_ids]
    dims = {letter[k]: size[k] for k in letter}
    return term(x_keys), term(e.id for e in kernels), w_terms, term(opened), dims


def _padded(spec) -> int:
    """Length of the zero-expanded, padded axis the windows of ``spec`` read."""
    return spec.stride * (spec.alpha_prime - 1) + spec.beta


def _gather(x: np.ndarray, axes, windows) -> np.ndarray:
    """Windowed view of ``x``: each of ``axes`` becomes the window position
    and the window offsets are appended as trailing axes, in order.  Axis
    ``axes[i]`` is read as window spec ``windows[i]`` gives: ``dilation - 1``
    zeros between entries, ``padding`` zeros before the first, then
    ``alpha_prime`` windows of ``beta`` entries at ``stride``."""
    shape = list(x.shape)
    src = [slice(None)] * x.ndim
    dst = [slice(None)] * x.ndim
    step = [slice(None)] * x.ndim
    for ax, w in zip(axes, windows):
        shape[ax] = _padded(w)
        kept = min(x.shape[ax], (shape[ax] - w.padding - 1) // w.dilation + 1)
        src[ax] = slice(kept)
        dst[ax] = slice(w.padding, w.padding + w.dilation * (kept - 1) + 1, w.dilation)
        step[ax] = slice(None, None, w.stride)
    padded = np.zeros(shape)
    padded[tuple(dst)] = x[tuple(src)]
    view = sliding_window_view(padded, [w.beta for w in windows], axis=axes)
    return view[tuple(step)]


@dataclass(frozen=True)
class _Step:
    """Contract the operands at ``picked`` (removed from the operand list;
    the result is appended).  When ``window`` is set, the operand at that
    position of ``picked`` is the input side and is gathered along ``axes``
    first."""

    picked: tuple[int, ...]
    spec: str
    window: int | None
    axes: tuple[int, ...]


@dataclass(frozen=True)
class _Plan:
    """``largest`` counts the entries of the largest array the plan holds:
    the input, its padded copy, a weight, a gathered window or a step
    result."""

    steps: tuple[_Step, ...]
    windows: tuple  # one window spec per kernel edge, in declaration order
    flips: tuple[tuple[int, ...], ...]
    largest: int


def _steps(x_term: str, offsets: str, w_terms, output: str, dims) -> tuple[tuple[_Step, ...], int]:
    """Pairwise steps along numpy's greedy path, and the entry count of the
    largest weight, gathered window or step result.

    The path is planned for the windowed input, ``x_term + offsets``, and
    the weights.  The input side is the one operand that holds the window
    positions, the last letters of ``output``: it stays un-windowed until
    the first step that contracts a window offset, which gathers it.
    """
    terms = [x_term + offsets, *w_terms]
    standins = [np.broadcast_to(0.0, [dims[c] for c in t]) for t in terms]
    spec = ",".join(terms) + "->" + output
    path = np.einsum_path(spec, *standins, optimize=_OPTIMIZE)[0][1:]

    def size(term):
        return math.prod(dims[c] for c in term)

    largest = max(map(size, w_terms), default=1)
    kernel = output[len(output) - len(offsets):]
    terms[0] = x_term
    steps = []
    for n, picked in enumerate(path):
        args = [terms[i] for i in picked]
        window, axes = None, ()
        if offsets and any(set(offsets) & set(t) for t in args):
            window = next((j for j, t in enumerate(args) if kernel[0] in t), None)
        if window is not None:
            axes = tuple(args[window].index(c) for c in kernel)
            args[window] += offsets
            offsets = ""
            largest = max(largest, size(args[window]))
        rest = [t for i, t in enumerate(terms) if i not in picked]
        live = set(output).union(offsets, *rest)
        out = output if n == len(path) - 1 else "".join(
            dict.fromkeys(c for t in args for c in t if c in live)
        )
        largest = max(largest, size(out))
        steps.append(_Step(tuple(picked), ",".join(args) + "->" + out, window, axes))
        terms = rest + [out]
    return tuple(steps), largest


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(f: LayerFormat, backward: bool, x_shape, trial_axis: bool = False) -> _Plan:
    """Compile one direction of ``f`` for an input of ``x_shape``; the
    weights have the shapes the format gives them."""
    lead = int(trial_axis)
    ef = build_backward_format(f) if backward else f
    windows = tuple(e.window for e in ef.kernel_edges)
    steps, largest = _steps(*_wiring(ef, x_shape, trial_axis))
    flips = tuple(
        tuple(lead + i for i, e in enumerate(f.edges_of(vid)) if backward and e.kind == KERNEL)
        for vid in f.weight_ids
    )
    spatial = math.prod(w.alpha for w in windows)
    padded = math.prod(x_shape) // spatial * math.prod(map(_padded, windows))
    return _Plan(steps, windows, flips, max(largest, math.prod(x_shape), padded))


def _trial_block(f: LayerFormat, x_shape) -> int:
    """Trials per forward block for a per-trial input of ``x_shape``.

    As many trials as keep the block's largest array within
    ``TRIAL_BLOCK_BYTES``, at least one and at most ``MAX_TRIAL_BLOCK``.  The
    size depends on the shapes alone.  Raises
    :class:`~tcinit.errors.ResourceLimit` when even that block would exceed
    the memory limit.
    """
    largest = _plan(f, False, x_shape).largest
    block = min(MAX_TRIAL_BLOCK, max(1, TRIAL_BLOCK_BYTES // (8 * largest)))
    _check_array((block, largest), "the largest array of a trial block")
    return block


def _contract(f: LayerFormat, x: np.ndarray, replicas, backward: bool, trial_axis: bool = False) -> np.ndarray:
    """Sum over replicas of one direction's compiled contraction.

    ``replicas`` holds one list of weight arrays per replica, in
    ``f.weight_ids`` order.  With ``trial_axis`` the input, every weight and
    the result carry a leading trial axis.
    """
    plan = _plan(f, backward, x.shape, trial_axis)
    out = None
    for weights in replicas:
        ops = [x] + [np.flip(w, axis=a) for w, a in zip(weights, plan.flips)]
        for step in plan.steps:
            args = [ops[i] for i in step.picked]
            for i in sorted(step.picked, reverse=True):
                del ops[i]
            if step.window is not None:
                args[step.window] = _gather(args[step.window], step.axes, plan.windows)
            ops.append(_einsum(step.spec, args))
        out = ops[0] if out is None else out + ops[0]
    return out


def _apply(layer: MaterializedLayer, t: DenseTensor, backward: bool) -> DenseTensor:
    f = layer.format
    replicas = [[w[vid].array for vid in f.weight_ids] for w in layer.replicas]
    return DenseTensor.from_array(_contract(f, t.array, replicas, backward))


def forward_apply(layer: MaterializedLayer, x: DenseTensor) -> DenseTensor:
    """Pre-activation layer output for a batched input.

    ``x`` has shape ``(batch, *input mode dims)``; the result has shape
    ``(batch, *output channel dims, *output spatial dims)`` and sums the
    ``phi`` replica outputs.
    """
    expected = layer.format.input_mode_dims()
    if x.shape[1:] != expected:
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} does not match layer input {expected}"
        )
    return _apply(layer, x, backward=False)


def backward_apply(layer: MaterializedLayer, grad: DenseTensor) -> DenseTensor:
    """Gradient of the layer input given the gradient of the layer output.

    ``grad`` uses the layer-output axis convention and the result the
    layer-input one.  The backward pass is the forward pass of
    ``build_backward_format(f)``, whose input layout is this layer's output
    layout: the gradient is gathered in stride-1 windows of its
    zero-expanded, padded form and contracted with each replica's weights
    flipped along their kernel-window axes.
    """
    expected = layer.format.output_mode_dims()
    if grad.shape[1:] != expected:
        raise ShapeMismatch(
            f"gradient shape {grad.shape[1:]} does not match layer output {expected}"
        )
    return _apply(layer, grad, backward=True)
