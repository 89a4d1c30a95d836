"""Turn a layer format plus an initialization plan into executable tensors.

A materialized layer holds ``phi`` independent replicas of the weight
vertices; the layer output is their sum.  Both directions run through one
contraction engine.  No binary pattern tensor is built here;
:func:`~tcinit.tensor.build_dummy` and
:func:`~tcinit.transform.backward_pattern` describe the same contractions
exactly and are the reference the tests compare against.

Kernel edges run by shift-and-accumulate, the accumulating-GEMM convolution
of Anderson et al. (arXiv:1709.03395), not by an im2col copy of the input's
windows.  A step that joins the input side with a weight holding window
offsets copies the input side once into a zero buffer, padded only along the
kernel edges whose offsets that step contracts, and then, per window offset,
multiplies a strided slice of the buffer by the weight's slice at that
offset with one ``matmul`` and sums the products.  Indices kept on both
sides ride as ``matmul`` batch axes, so cp's per-edge kernel weights run as
separable 1-D passes with its rank index as a batch axis.  A step that sums
channels and whose slices, stacked over all its offsets, fit in
``WINDOW_STACK_BYTES`` stacks them and runs one ``matmul`` over (channels,
offsets) instead: the order in which the dense pattern contraction sums, so
small layers match it bit for bit.  Channel-only steps are einsums.

The backward pass is the forward pass of ``build_backward_format(f)``: the
output gradient is its input, laid out with ``stride - 1`` zeros between
entries and a left pad of ``beta - padding - 1`` (what the ``P' x T``
pattern selects) and read at stride 1, and the weights are flipped along
their kernel-window axes, which supplies the ``R`` factor.

Each (format, direction, input shape, trial axis) is compiled once into a
plan held in a bounded cache.  Compiling gives every index one einsum letter
keyed by the edge it belongs to (see :func:`_wiring`), then follows a greedy
pairwise path from ``np.einsum_path``; the plan holds the steps, the layout
permutations and the kernel flips.

Axis conventions (all carry a leading batch axis): channels, then spatial.

* layer input  — input-channel edges in declaration order, then one input
  spatial axis (length ``alpha``) per kernel edge in declaration order;
* layer output — output-channel edges in declaration order, then one output
  spatial axis (length ``alpha_prime``) per kernel edge in declaration order.

The rewrite swaps the two channel kinds and keeps the edge order, so the
forward output layout is the backward format's input layout and the backward
output layout is the forward input layout.  Inside a contraction the engine
works channels-last (positions, then channels), so that the summed channels
of every step are trailing axes: the input is transposed once on entry (a
window step that reads the input transposes it as it copies it into its
padded buffer), replicas are summed in the plan's layout and the sum is
copied once into the output layout.

A plan may also take an optional leading *trial axis*, ahead of the batch
axis: an open index joined by the input and by every weight, so that one
contraction runs a block of independent Monte-Carlo trials, each with its own
input and weights.  The steps are those of the per-trial plan with one more
index; the per-trial call is the case without it.  Blocks are sized from the
per-trial plan's largest array (see :func:`_trial_block`).

:func:`_draw` fills arrays the caller gives it, so trials are drawn straight
into their slices of a block's arrays.  A window step takes its zero-padded
buffer from a *workspace*, a dict owned by the caller of :func:`_contract`,
never by a module or a cached plan; passed again, it hands back the same
buffers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import PlanIncomplete, ShapeMismatch
from .formats import INPUT_CHANNEL, KERNEL, OUTPUT_CHANNEL, LayerFormat
from .graph import InitPlan
from .tensor import DenseTensor, _check_array, _check_seed, _einsum, _letters
from .transform import build_backward_format

# Compiled plans kept per process.  A plan holds only subscripts and small
# tuples, so the bound caps memory when many distinct formats are executed.
_PLAN_CACHE_SIZE = 128

# A trial block holds at most this many bytes in the plan's largest array
# (one trial may need more) and at most MAX_TRIAL_BLOCK trials.  Larger blocks
# buy little once per-trial Python overhead is amortized.  Criterion-7
# lowrank and cp layers (largest array 24,576 entries, the input) get blocks
# of 2.  Per trial, in four processes of 9 rounds (BLAS 1 thread), blocks of
# 2 and 3 took 0.92-0.97 and 1.10-1.25 times the time of blocks of 1
# (lowrank) and 0.86-0.94 and 0.86-0.93 times (cp), with 3-4 page faults per
# trial in blocks of 2 and 139 (lowrank) in blocks of 3, whose temporaries the
# allocator still returns to the system.
TRIAL_BLOCK_BYTES = 1 << 19
MAX_TRIAL_BLOCK = 64

# A window step that sums channels and whose slices, stacked over all its
# window offsets, fit in this many bytes stacks them and runs one matmul over
# (channels, offsets), the order in which the dense pattern contraction sums,
# so that small layers reproduce it to the last bit; no per-offset order can
# where an output's terms cancel.  Small stacks cost about what per-offset
# steps do: -12% to +18% for standard and tucker2 layers with stacks of 2.5-96
# KiB (best of 100 calls, BLAS 1 thread); larger ones cost more, 2.3x at 576
# KiB and 2.4x at 9 MiB.  With one summed channel each per-offset product is a
# broadcast multiplication, which beats a stacked matmul (cp's criterion-7
# layer: 208-257 against 299-302 us), so such steps never stack.
WINDOW_STACK_BYTES = 1 << 17


@dataclass(frozen=True)
class MaterializedLayer:
    format: LayerFormat
    plan: InitPlan
    replicas: tuple[dict[str, DenseTensor], ...]


def _weight_specs(f: LayerFormat, plan: InitPlan):
    """Shapes and planned variances of the weight vertices, in order."""
    missing = [vid for vid in f.weight_ids if vid not in plan.variances]
    if missing:
        raise PlanIncomplete(f"plan assigns no variance to vertices {missing}")
    shapes = tuple(f.weight_mode_dims(vid) for vid in f.weight_ids)
    return shapes, [plan.variances[vid] for vid in f.weight_ids]


def _draw(rng, slots, variances, distribution: str) -> None:
    """Fill ``slots`` (per replica, one array per variance) in place from
    ``rng``, replica by replica and array by array, with the arithmetic of
    ``rng.normal(0, sqrt(v))`` (``0 + scale * z``, which turns -0.0 into 0.0)
    and ``rng.uniform(-h, h)`` (``low + (high - low) * u``), bit for bit."""
    for replica in slots:
        for slot, v in zip(replica, variances):
            if distribution == "uniform":
                half = np.sqrt(3.0 * v)
                rng.random(out=slot)
                slot *= half - -half
                slot += -half
            else:
                rng.standard_normal(out=slot)
                slot *= np.sqrt(v)
                slot += 0.0


def materialize(f: LayerFormat, plan: InitPlan, rng) -> MaterializedLayer:
    """Draw all weight tensors.

    ``rng`` is a seed or a numpy Generator.  Each replica's weight for
    vertex ``v`` has the shape of its incident-edge dims in declaration
    order; entries are i.i.d. zero mean with the planned variance.
    """
    _check_seed(rng)
    shapes, variances = _weight_specs(f, plan)
    replicas = [[np.empty(s) for s in shapes] for _ in range(f.phi)]
    _draw(np.random.default_rng(rng), replicas, variances, plan.distribution)
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
    open indices follow: the trial axis (with ``trial_axis``), the batch
    axis, the output-channel edges, then one window position per kernel
    edge.

    Returns the input term, the window-offset letters, the window-position
    letters, one term per weight vertex, the output term and the size of
    every letter (a position has its window count ``alpha_prime``).  The
    input and output terms are channels-last: the trial and batch axes,
    then the positions, then the channels.  With ``trial_axis`` the input,
    every weight and the output lead with the trial axis.
    """
    trial, batch = ("trial",), ("batch",)
    kernels = f.kernel_edges
    positions = [(e.id, "position") for e in kernels]
    lead = [trial] if trial_axis else []
    summed = [e.id for e in f.edges if e.kind != OUTPUT_CHANNEL]
    outs = [e.id for e in f.edges_of_kind(OUTPUT_CHANNEL)]
    opened = lead + [batch] + outs + positions
    letter = dict(zip(summed + opened, _letters(len(summed) + len(opened))))

    def term(keys):
        return "".join(letter[k] for k in keys)

    size = {e.id: e.dim for e in f.edges}
    size.update(zip(positions, (e.window.alpha_prime for e in kernels)))
    size[trial], size[batch] = x_shape[0], x_shape[len(lead)]
    x_keys = lead + [batch] + positions + [e.id for e in f.edges_of_kind(INPUT_CHANNEL)]
    w_terms = [term(lead + [e.id for e in f.edges_of(vid)]) for vid in f.weight_ids]
    dims = {letter[k]: size[k] for k in letter}
    y_keys = lead + [batch] + positions + outs
    return term(x_keys), term(e.id for e in kernels), term(positions), w_terms, term(y_keys), dims


def _padded(spec) -> int:
    """Length of the zero-expanded, padded axis the windows of ``spec`` read."""
    return spec.stride * (spec.alpha_prime - 1) + spec.beta


@dataclass(frozen=True)
class _Shift:
    """A window step as shift-and-accumulate.

    The input side is copied once into a zero buffer of shape ``padded``,
    laid out as (kept on both sides, input only, summed) axes: ``x_perm``
    orders its axes, ``src`` selects the entries that fit and ``dst``
    places them behind ``padding`` zeros with ``dilation - 1`` zeros between
    entries, along the axes of the kernel edges this step contracts.  The
    weight side is copied once with those edges' offsets leading
    (``w_perm``, ``w_shape``).  Then, per window offset, a strided slice of
    the buffer, with the summed channels merged into its trailing axis
    (``slice_shape``), is multiplied by the weight at that offset with one
    ``matmul``, kept indices riding as batch axes, and the products are
    summed.  With ``stacked`` (a small step that sums channels) the slices
    are stacked along a trailing offset axis instead and multiplied once,
    summing (channels, offsets), by the weight laid out with its offsets
    behind the summed channels.  ``windows`` holds, per contracted edge, its
    buffer axis, window size, stride and window count.
    """

    x_perm: tuple[int, ...]
    padded: tuple[int, ...]
    src: tuple[slice, ...]
    dst: tuple[slice, ...]
    w_perm: tuple[int, ...]
    w_shape: tuple[int, ...]
    slice_shape: tuple[int, ...]
    windows: tuple[tuple[int, int, int, int], ...]
    out_shape: tuple[int, ...]
    stacked: bool


def _slices(padded: np.ndarray, s: _Shift):
    """Per window offset, the strided slice of ``padded`` it reads, with
    the summed channels merged into the trailing axis."""
    where = [slice(None)] * padded.ndim
    for at in np.ndindex(*(beta for _, beta, _, _ in s.windows)):
        for (ax, _, stride, count), i in zip(s.windows, at):
            where[ax] = slice(i, i + stride * (count - 1) + 1, stride)
        yield at, padded[tuple(where)].reshape(s.slice_shape)


def _shift(x: np.ndarray, w: np.ndarray, s: _Shift, workspace: dict) -> np.ndarray:
    # Only ``dst`` is ever written, so a reused buffer's pads and gaps stay
    # zero.  A _Shift holds slices, unhashable before Python 3.12: key by id,
    # keep the step beside its buffer and check that a hit is that step.
    held = workspace.get(id(s))
    if held is None or held[0] is not s:
        held = workspace[id(s)] = (s, np.zeros(s.padded))
    padded = held[1]
    padded[s.dst] = x.transpose(s.x_perm)[s.src]
    w = np.ascontiguousarray(w.transpose(s.w_perm)).reshape(s.w_shape)
    if s.stacked:
        stack = np.stack([xs for _, xs in _slices(padded, s)], axis=-1)
        return np.matmul(stack.reshape(*stack.shape[:-2], -1), w).reshape(s.out_shape)
    # With one summed entry each product is an outer product.
    product = np.matmul if s.slice_shape[-1] > 1 else np.multiply
    out = part = None
    for at, xs in _slices(padded, s):
        if out is None:
            out = product(xs, w[at])
        else:
            part = product(xs, w[at], out=part)
            out += part
    return out.reshape(s.out_shape)


@dataclass(frozen=True)
class _Step:
    """Contract the operands at ``picked`` (removed from the operand list;
    the result is appended): by ``spec`` with einsum, or, when ``shift`` is
    set, as that window step with the input side first."""

    picked: tuple[int, ...]
    spec: str
    shift: _Shift | None


@dataclass(frozen=True)
class _Plan:
    """``entry`` permutes the input to channels-last, or is ``None`` when the
    input's first step is a window step, whose copy into its padded buffer
    permutes it; ``exit`` permutes the last step's result to the output
    layout.  ``largest`` counts the entries of
    the largest array the plan holds: the input, a weight, a window step's
    padded input or a step result (a window step's sum and each offset's
    product have its size).  A window step's stack is left out:
    ``WINDOW_STACK_BYTES`` bounds it, and the plan of a trial block whose
    stack would pass that bound runs per offset."""

    entry: tuple[int, ...] | None
    steps: tuple[_Step, ...]
    exit: tuple[int, ...]
    flips: tuple[tuple[int, ...], ...]
    largest: int


# Plans are pairwise: with no memory cap numpy's greedy search never falls
# back to one step over all remaining operands, which no window step runs.
_PATH_SEARCH = ("greedy", sys.maxsize)


def _compile_shift(tx: str, tw: str, live, size, windows) -> tuple[_Shift, str]:
    """The window step of input term ``tx`` and weight term ``tw`` over
    ``windows``, a list of (position letter, offset letter, window spec) of
    the kernel edges whose offsets ``tw`` holds.  Updates ``size`` to the
    positions' window counts and returns the step and its result term."""
    offs = "".join(o for _, o, _ in windows)
    bat = [c for c in tx if c in tw and c in live]
    summed = [c for c in tx if c in tw and c not in live]
    x_only = [c for c in tx if c not in tw]
    w_only = [c for c in tw if c not in tx and c not in offs]
    order = bat + x_only + summed
    padded = [size[c] for c in order]
    src, dst = [slice(None)] * len(order), [slice(None)] * len(order)
    axes = []
    for pos, _, w in windows:
        ax = order.index(pos)
        padded[ax] = _padded(w)
        kept = min(size[pos], (padded[ax] - w.padding - 1) // w.dilation + 1)
        src[ax] = slice(kept)
        dst[ax] = slice(w.padding, w.padding + w.dilation * (kept - 1) + 1, w.dilation)
        size[pos] = w.alpha_prime
        axes.append((ax, w.beta, w.stride, w.alpha_prime))

    def dims(letters):
        return [size[c] for c in letters]

    k, n = math.prod(dims(summed)), math.prod(dims(w_only))
    betas = tuple(w.beta for _, _, w in windows)
    depth = k * math.prod(betas)  # entries a stacked matmul sums
    stacked = k > 1 and 8 * math.prod(dims(bat + x_only)) * depth <= WINDOW_STACK_BYTES
    if stacked:
        w_order, w_shape = bat + summed + list(offs) + w_only, (depth, n)
    else:
        w_order, w_shape = list(offs) + bat + summed + w_only, (*betas, k, n)
    out = "".join(bat + x_only + w_only)
    shift = _Shift(
        tuple(tx.index(c) for c in order),
        tuple(padded),
        tuple(src),
        tuple(dst),
        tuple(tw.index(c) for c in w_order),
        (*w_shape[:-2], *dims(bat), *[1] * (len(x_only) - 1), *w_shape[-2:]),
        (*dims(bat + x_only), k),
        tuple(axes),
        tuple(dims(out)),
        stacked,
    )
    return shift, out


def _steps(x_term, offsets, positions, w_terms, output, dims, windows):
    """Pairwise steps along numpy's greedy path, the last step's result
    term and the entry count of the largest weight, padded input or step
    result.

    The path is planned for the windowed input, ``x_term + offsets``, and
    the weights.  The input side is the one operand that holds the window
    positions.  A step that joins it with a weight holding window offsets
    contracts those offsets by shift-and-accumulate; every other step is an
    einsum, written with the input side first so its result stays
    channels-last.  Before its window step a position has the input length
    ``alpha``, after it the window count.
    """
    terms = [x_term + offsets, *w_terms]
    standins = [np.broadcast_to(0.0, [dims[c] for c in t]) for t in terms]
    spec = ",".join(terms) + "->" + output
    path = np.einsum_path(spec, *standins, optimize=_PATH_SEARCH)[0][1:]

    size = dict(dims)
    size.update(zip(positions, (w.alpha for w in windows)))
    kernel = {o: (p, o, w) for p, o, w in zip(positions, offsets, windows)}

    def count(term):
        return math.prod(size[c] for c in term)

    largest = max(map(count, w_terms), default=1)
    pending = set(offsets)
    terms[0] = x_term
    steps = []
    for n, picked in enumerate(path):
        if positions:
            picked = sorted(picked, key=lambda i: positions[0] not in terms[i])
        args = [terms[i] for i in picked]
        rest = [t for i, t in enumerate(terms) if i not in picked]
        live = set(output).union(pending, *rest)
        windowed = [kernel[o] for o in offsets if o in pending and o in args[-1]]
        shift = None
        if windowed and positions[0] in args[0]:
            pending -= {o for _, o, _ in windowed}
            shift, out = _compile_shift(*args, live, size, windowed)
            largest = max(largest, math.prod(shift.padded))
        elif n == len(path) - 1:
            out = output
        else:
            out = "".join(dict.fromkeys(c for t in args for c in t if c in live))
        largest = max(largest, count(out))
        steps.append(_Step(tuple(picked), ",".join(args) + "->" + out, shift))
        terms = rest + [out]
    return tuple(steps), terms[0], largest


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(f: LayerFormat, backward: bool, x_shape, trial_axis: bool = False) -> _Plan:
    """Compile one direction of ``f`` for an input of ``x_shape`` (channels,
    then spatial); the weights have the shapes the format gives them."""
    lead = int(trial_axis)
    ef = build_backward_format(f) if backward else f
    windows = tuple(e.window for e in ef.kernel_edges)
    x_term, offsets, positions, w_terms, output, dims = _wiring(ef, x_shape, trial_axis)
    steps, last, largest = _steps(x_term, offsets, positions, w_terms, output, dims, windows)
    head, k = lead + 1, len(positions)
    entry = (*range(head), *range(len(x_shape) - k, len(x_shape)), *range(head, len(x_shape) - k))
    public = output[:head] + output[head + k:] + positions
    flips = tuple(
        tuple(lead + i for i, e in enumerate(f.edges_of(vid)) if backward and e.kind == KERNEL)
        for vid in f.weight_ids
    )
    exit_ = tuple(last.index(c) for c in public)
    # The input is operand 0 until a step picks it.
    at = next(n for n, step in enumerate(steps) if 0 in step.picked)
    if steps[at].shift is not None:
        shift = steps[at].shift
        shift = replace(shift, x_perm=tuple(entry[i] for i in shift.x_perm))
        steps = (*steps[:at], replace(steps[at], shift=shift), *steps[at + 1:])
        entry = None
    return _Plan(entry, steps, exit_, flips, max(largest, math.prod(x_shape)))


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


def _contract(f: LayerFormat, x: np.ndarray, replicas, backward: bool, trial_axis: bool = False,
              workspace: dict | None = None) -> np.ndarray:
    """Sum over replicas of one direction's compiled contraction.

    ``replicas`` holds one list of weight arrays per replica, in
    ``f.weight_ids`` order.  With ``trial_axis`` the input, every weight and
    the result carry a leading trial axis.  The input is made channels-last
    once (by its first step's copy when that is a window step), replicas
    are summed in the plan's layout and the sum is copied once into the
    output layout.  Window steps take their zero-padded buffers from
    ``workspace``, a dict the caller owns and may pass again to reuse them;
    by default a fresh one.
    """
    plan = _plan(f, backward, x.shape, trial_axis)
    workspace = {} if workspace is None else workspace
    if plan.entry is not None:
        x = np.ascontiguousarray(x.transpose(plan.entry))
    out = None
    for weights in replicas:
        ops = [x] + [np.flip(w, axis=a) for w, a in zip(weights, plan.flips)]
        for step in plan.steps:
            args = [ops[i] for i in step.picked]
            for i in sorted(step.picked, reverse=True):
                del ops[i]
            shift = step.shift
            ops.append(_einsum(step.spec, args) if shift is None else _shift(*args, shift, workspace))
        if out is None:
            out = ops[0]
        else:
            out += ops[0]
    return np.ascontiguousarray(out.transpose(plan.exit))


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
    layout: the gradient is read in stride-1 windows of its zero-expanded,
    padded form and contracted with each replica's weights flipped along
    their kernel-window axes.
    """
    expected = layer.format.output_mode_dims()
    if grad.shape[1:] != expected:
        raise ShapeMismatch(
            f"gradient shape {grad.shape[1:]} does not match layer output {expected}"
        )
    return _apply(layer, grad, backward=True)
