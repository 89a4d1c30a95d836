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

Each (format, direction, input shape, weight shapes) is compiled once into a
plan held in a bounded cache: the einsum subscripts, a greedy pairwise path
from ``np.einsum_path``, the window gathers, the kernel flips and the layout
permutations.  The input side stays un-windowed until the first step that
contracts a window index, so channel contractions run on the smaller tensor.

Axis conventions (all carry a leading batch axis):

* layer input  — incident edges of the input vertex, declaration order
  (kernel edges contribute their input spatial length);
* layer output — output-channel edges in declaration order, then one output
  spatial axis per kernel edge in declaration order.

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
from .formats import (
    INPUT_CHANNEL,
    KERNEL,
    OUTPUT_CHANNEL,
    RANK,
    LayerFormat,
)
from .graph import InitPlan
from .tensor import _OPTIMIZE, DenseTensor, _check_array, _einsum, _einsum_spec
from .transform import BackwardDummySpec, build_backward_format

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


def _input_perm(f: LayerFormat) -> list[int]:
    """Transpose order taking (batch, channels..., spatial...) to the
    layer's input layout (incident edges of the input vertex in order)."""
    x_edges = f.edges_of(f.input_vertex.id)
    n_c = sum(1 for e in x_edges if e.kind == INPUT_CHANNEL)
    perm = [0]
    ci, ki = 1, 1 + n_c
    for e in x_edges:
        if e.kind == KERNEL:
            perm.append(ki)
            ki += 1
        else:
            perm.append(ci)
            ci += 1
    return perm


def _shift(perm, lead: int) -> tuple[int, ...]:
    """``perm`` behind ``lead`` leading axes that stay in place."""
    return tuple(range(lead)) + tuple(lead + p for p in perm)


def contraction_map(f: LayerFormat, trial_axis: bool = False):
    """Summation groups and open indices wiring one replica's forward pass.

    Tensor slots: 0 is the windowed batched input, then the weight vertices
    in declaration order.  The windowed input has the batch axis, then the
    input vertex's incident edges in order, each kernel edge's axis holding
    the output (window) position, then one window-offset axis per kernel
    edge in declaration order.  The batch axis is the first open index and
    the window positions are the last.  Each open index lists every
    ``(slot, axis)`` it joins: an output-channel edge shared by several
    weight vertices stays one index.

    With ``trial_axis`` every tensor gains a leading trial axis, all other
    axes shift by one, and the trial axis, joined by every slot, becomes the
    first open index.
    """
    lead = int(trial_axis)
    xid = f.input_vertex.id
    x_edges = f.edges_of(xid)
    x_axes = {e.id: lead + 1 + i for i, e in enumerate(x_edges)}
    window_axes = {
        e.id: lead + 1 + len(x_edges) + i for i, e in enumerate(f.kernel_edges)
    }
    w_axes = {
        vid: {e.id: lead + i for i, e in enumerate(f.edges_of(vid))}
        for vid in f.weight_ids
    }
    w_slot = {vid: 1 + i for i, vid in enumerate(f.weight_ids)}

    def weight_axes(e):
        return [(w_slot[p], w_axes[p][e.id]) for p in e.endpoints if p != xid]

    groups = []
    for e in f.edges:
        if e.kind == INPUT_CHANNEL:
            groups.append([(0, x_axes[e.id])] + weight_axes(e))
        elif e.kind == RANK:
            groups.append(weight_axes(e))
        elif e.kind == KERNEL:
            groups.append([(0, window_axes[e.id])] + weight_axes(e))

    open_axes = [[(slot, 0) for slot in range(1 + len(f.weight_ids))]] if lead else []
    open_axes += [[(0, lead)]]
    open_axes += [weight_axes(e) for e in f.edges_of_kind(OUTPUT_CHANNEL)]
    open_axes += [[(0, x_axes[e.id])] for e in f.kernel_edges]
    return groups, open_axes


@dataclass(frozen=True)
class _Window:
    """Gather of one kernel axis: ``count`` windows of ``beta`` entries at
    ``stride``, taken after inserting ``dilation - 1`` zeros between entries
    and ``lo`` zeros before the first (and as many after as the last window
    needs)."""

    beta: int
    stride: int
    dilation: int
    lo: int
    count: int

    @classmethod
    def of(cls, spec) -> "_Window":
        if isinstance(spec, BackwardDummySpec):
            return cls(spec.beta, 1, spec.forward.stride, spec.padding, spec.alpha_prime)
        return cls(spec.beta, spec.stride, 1, spec.padding, spec.alpha_prime)

    @property
    def padded(self) -> int:
        """Length of the zero-expanded, padded axis the windows read."""
        return self.stride * (self.count - 1) + self.beta


def _gather(x: np.ndarray, axes, windows) -> np.ndarray:
    """Windowed view of ``x``: each of ``axes`` becomes the window position
    and the window offsets are appended as trailing axes, in order."""
    shape = list(x.shape)
    src = [slice(None)] * x.ndim
    dst = [slice(None)] * x.ndim
    step = [slice(None)] * x.ndim
    for ax, w in zip(axes, windows):
        shape[ax] = w.padded
        kept = min(x.shape[ax], (shape[ax] - w.lo - 1) // w.dilation + 1)
        src[ax] = slice(kept)
        dst[ax] = slice(w.lo, w.lo + w.dilation * (kept - 1) + 1, w.dilation)
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
    windows: tuple[_Window, ...]
    in_perm: tuple[int, ...]
    flips: tuple[tuple[int, ...], ...]
    out_perm: tuple[int, ...]
    largest: int


def _steps(spec: str, shapes, n_x: int, k_axes) -> tuple[tuple[_Step, ...], int]:
    """Pairwise steps along numpy's greedy path for ``spec``, and the entry
    count of the largest weight, gathered window or step result.

    ``shapes`` are those of the windowed input and the weights; the first
    ``n_x`` letters of the input term are its un-windowed axes, the rest its
    window offsets, and ``k_axes`` the positions of its kernel axes.
    """
    standins = [np.broadcast_to(0.0, s) for s in shapes]
    path = np.einsum_path(spec, *standins, optimize=_OPTIMIZE)[0][1:]
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    dims = {c: d for t, s in zip(terms, shapes) for c, d in zip(t, s)}

    def size(term):
        return math.prod(dims[c] for c in term)

    largest = max(map(size, terms[1:]), default=1)
    offsets = terms[0][n_x:]
    kernel = [terms[0][ax] for ax in k_axes]
    terms[0] = terms[0][:n_x]
    x_at = 0
    steps = []
    for n, picked in enumerate(path):
        args = [terms[i] for i in picked]
        window, axes = None, ()
        if offsets and x_at in picked and any(set(offsets) & set(t) for t in args):
            window = picked.index(x_at)
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
        if x_at in picked:
            x_at = len(rest)
        else:
            x_at -= sum(1 for i in picked if i < x_at)
        terms = rest + [out]
    return tuple(steps), largest


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(f: LayerFormat, backward: bool, x_shape, w_shapes, trial_axis: bool = False) -> _Plan:
    """Compile one direction of ``f`` for the given operand shapes."""
    lead = int(trial_axis)
    ef = build_backward_format(f) if backward else f
    windows = tuple(_Window.of(e.window) for e in ef.kernel_edges)
    x_edges = ef.edges_of(ef.input_vertex.id)
    k_axes = [lead + 1 + i for i, e in enumerate(x_edges) if e.kind == KERNEL]
    in_perm = _shift(_input_perm(ef), lead) if backward else tuple(range(len(x_shape)))
    wx_shape = [x_shape[i] for i in in_perm]
    padded = list(wx_shape)
    for ax, w in zip(k_axes, windows):
        wx_shape[ax] = w.count
        padded[ax] = w.padded
    wx_shape += [w.beta for w in windows]
    shapes = [tuple(wx_shape), *w_shapes]
    spec = _einsum_spec(shapes, *contraction_map(ef, trial_axis))
    flips = tuple(
        tuple(lead + i for i, e in enumerate(f.edges_of(vid)) if backward and e.kind == KERNEL)
        for vid in f.weight_ids
    )
    out_perm = (
        _shift(_input_perm(f), lead)
        if backward
        else tuple(range(lead + 1 + len(f.output_mode_dims())))
    )
    steps, largest = _steps(spec, shapes, len(x_shape), k_axes)
    largest = max(largest, math.prod(x_shape), math.prod(padded))
    return _Plan(steps, windows, in_perm, flips, out_perm, largest)


def _trial_block(f: LayerFormat, x_shape, w_shapes) -> int:
    """Trials per forward block for a per-trial input of ``x_shape``.

    As many trials as keep the block's largest array within
    ``TRIAL_BLOCK_BYTES``, at least one and at most ``MAX_TRIAL_BLOCK``.  The
    size depends on the shapes alone.  Raises
    :class:`~tcinit.errors.ResourceLimit` when even that block would exceed
    the memory limit.
    """
    largest = _plan(f, False, x_shape, w_shapes).largest
    block = min(MAX_TRIAL_BLOCK, max(1, TRIAL_BLOCK_BYTES // (8 * largest)))
    _check_array((block, largest), "the largest array of a trial block")
    return block


def _contract(f: LayerFormat, x: np.ndarray, replicas, backward: bool, trial_axis: bool = False) -> np.ndarray:
    """Sum over replicas of one direction's compiled contraction.

    ``replicas`` holds one list of weight arrays per replica, in
    ``f.weight_ids`` order.  With ``trial_axis`` the input, every weight and
    the result carry a leading trial axis.
    """
    w_shapes = tuple(w.shape for w in replicas[0])
    plan = _plan(f, backward, x.shape, w_shapes, trial_axis)
    x = x.transpose(plan.in_perm)
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
    return out.transpose(plan.out_perm)


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

    ``grad`` uses the layer-output axis convention.  The backward pass is
    the forward pass of ``build_backward_format(f)``: the gradient, as a
    transposed view, is gathered in stride-1 windows of its zero-expanded,
    padded form and contracted with each replica's weights flipped along
    their kernel-window axes; the result is transposed back to the
    layer-input layout.
    """
    expected = layer.format.output_mode_dims()
    if grad.shape[1:] != expected:
        raise ShapeMismatch(
            f"gradient shape {grad.shape[1:]} does not match layer output {expected}"
        )
    return _apply(layer, grad, backward=True)
