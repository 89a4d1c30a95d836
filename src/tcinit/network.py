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
separable 1-D passes with its rank index as a batch axis.  Summed per offset,
an output's terms are added in another order than the dense pattern
contraction adds them, so the two agree within the forward-error bound of
summation (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1),
not bit for bit.

Every other step contracts channels only and runs as one GEMM,
transpose-transpose-GEMM (TTGT, Springer & Bientinesi, arXiv:1607.00145): both
operands are permuted and reshaped to ``(batch, M, K)`` and ``(batch, K, N)``
and meet in one ``matmul`` whose output is the step's result, laid out batch,
kept left, kept right, and never permuted.  A step that sums no index longer
than 1 is the case ``K = 1``, one product per output entry.  Indices are
grouped as numpy's pairwise einsum groups them, but no einsum runs on the
hot path, and the engine is not held to einsum's figures bit for bit: BLAS
may add a GEMM's terms in another order, so the two agree within the same
summation bound.

The backward pass is the forward pass of ``build_backward_format(f)``: the
output gradient is its input, laid out with ``stride - 1`` zeros between
entries and a left pad of ``beta - padding - 1`` (what the ``P' x T``
pattern selects) and read at stride 1.  Its window steps supply ``R``: the
slice at window offset ``j`` meets the weight at offset ``beta - 1 - j``.

Each (format, direction, input shape) is compiled once into a plan held in a
bounded cache.  Compiling gives every index one einsum letter keyed by the
edge it belongs to (see :func:`_wiring`), then follows a greedy pairwise path
from ``np.einsum_path``, the one einsum call left, made once per plan; the
plan holds the steps (a :class:`_Shift` or a :class:`_Gemm` each), the layout
permutations and the shapes of every buffer its steps write.

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
padded buffer), replicas are summed in the last step's layout and the sum is
copied once into the output layout.

Every plan leads with a *trial axis*, ahead of the batch axis: an open index
joined by the input and by every weight, so that one contraction runs a block
of independent Monte-Carlo trials (see :func:`_trial_block`), each with its
own input and weights.  A per-trial call is a block of one, and a trial's
figures do not depend on the block it runs in.

No weight joins the batch index, so each batch row is an independent
sub-problem.  A plan whose arrays that hold the batch index would not fit in
``TRIAL_BLOCK_BYTES`` is compiled for a *batch tile*, a divisor of the batch
(see :func:`_plan`), and runs its steps once per tile, so that each tile's
arrays stay cache-sized: the cache blocking of Goto & van de Geijn
(*Anatomy of High-Performance Matrix Multiplication*, TOMS 2008) and TVM's
loop tiling.  Every tile follows the path searched at the whole batch and
splits GEMM dimensions only into whole micro-kernel blocks, so its rows come
out as the whole batch gives them, bit for bit.

:func:`_draw` fills arrays the caller gives it, so trials are drawn straight
into their slices of a block's arrays.  The arrays a contraction's steps
write live in a *workspace*, the first ``held`` entries of an
:class:`_Arena`, a flat array owned by the caller of :func:`_contract`,
never by a module or a cached plan: the channels-last input, each window
step's zero-padded buffer, weight copy, sum and per-offset product, each
GEMM step's result and the replica sum, each sized for one batch tile.
:func:`_assign`, TVM's static memory planner (arXiv:1802.04799), gives each
an offset, so that GEMM results whose lives do not overlap share memory;
:mod:`tcinit.simulate` lays out a whole block's arrays by the same rule.
Three kinds of array escape the arena: the result, copied tile by tile into
the caller's destination or else a fresh array (see :func:`_contract`); the
copy numpy's ``reshape`` makes of a GEMM operand whose permuted axes no view
can merge; and numpy's own ufunc buffers, which a window step's broadcast
``multiply`` (one summed entry) works through.  A ``matmul`` there would
need none, but on cp's K = 1 steps it took 598-844 us forward against
415-443 us (batch 16, BLAS at one thread), so the buffers stay.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams, PlanIncomplete, ShapeMismatch, ValidationError
from .formats import INPUT_CHANNEL, OUTPUT_CHANNEL, LayerFormat
from .graph import InitPlan
from .tensor import DenseTensor, _check_array, _check_seed, _check_type, _letters, _shown
from .transform import build_backward_format

# Compiled plans kept per process.  A plan holds only subscripts and small
# tuples, so the bound caps memory when many distinct formats are executed.
_PLAN_CACHE_SIZE = 128

_log = logging.getLogger("tcinit")

# One budget for trial blocks and batch tiles.  A trial block holds at most
# this many bytes in the plan's largest array and at most MAX_TRIAL_BLOCK
# trials.  Larger blocks buy little once per-trial Python overhead is
# amortized.  Criterion-7 lowrank and cp layers (largest array 24,576
# entries, the input) get blocks of 2.  Per trial, in four processes of 9
# rounds (BLAS 1 thread), blocks of 2 and 3 took 0.99-1.15 and 1.03-1.14
# times the time of blocks of 1 (lowrank) and 0.96-1.08 and 0.99-1.07 times
# (cp), with 5 and 12 page faults per trial: step results land in workspace
# buffers, so a larger block buys nothing either.  A trial that needs more
# runs alone, in batch tiles that hold at most this many bytes in every array
# that holds the batch index (see _plan), so a block holds several whole
# trials or one trial's tiles, never both.  A conv_depth layer (htk2, 32
# channels, 32x32, batch 16) runs in tiles of 2 rows, and its workspace falls
# from 1,983,552 entries (15.9 MB) to 248,448 (2.0 MB).
TRIAL_BLOCK_BYTES = 1 << 19
MAX_TRIAL_BLOCK = 64


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
    order; entries are i.i.d. zero mean with the planned variance.  Raises
    :class:`~tcinit.errors.ResourceLimit` before any allocation when a
    weight would exceed the memory limit.
    """
    _check_type(f, LayerFormat, ValidationError, "the format")
    _check_type(plan, InitPlan, InvalidParams, "plan")
    if not isinstance(rng, np.random.Generator):
        _check_seed(rng)
    shapes, variances = _weight_specs(f, plan)
    for vid, shape in zip(f.weight_ids, shapes):
        _check_array(shape, f"the weight of vertex {vid!r}")
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


def _wiring(f: LayerFormat, x_shape):
    """Einsum terms of one replica's forward pass, one letter per index.

    Indices are keyed by name: an edge by its id (a kernel edge's id keys
    its window offset), and the trial axis, the batch axis and each kernel
    edge's window position by tuples, which no edge id can equal.  The
    summed indices take the first letters, in edge declaration order; the
    open indices follow: the batch axis, the output-channel edges, then one
    window position per kernel edge.  The trial axis takes ``0``, which is
    no einsum letter: the path search leaves it out (see :func:`_steps`).

    Returns the input term, the input's axes in its given layout, the
    window-offset letters, the window-position letters, one term per weight
    vertex, the output term and the size of every letter (a position has
    its window count ``alpha_prime``).  The input and output terms are
    channels-last: the trial and batch axes, then the positions, then the
    channels; the given layout has the channels before the positions.  The
    input, every weight and the output lead with the trial axis.
    """
    trial, batch = ("trial",), ("batch",)
    kernels = f.kernel_edges
    positions = [(e.id, "position") for e in kernels]
    summed = [e.id for e in f.edges if e.kind != OUTPUT_CHANNEL]
    outs = [e.id for e in f.edges_of_kind(OUTPUT_CHANNEL)]
    opened = [batch] + outs + positions
    letter = dict(zip(summed + opened, _letters(len(summed) + len(opened))))
    letter[trial] = "0"

    def term(keys):
        return "".join(letter[k] for k in keys)

    size = {e.id: e.dim for e in f.edges}
    size.update(zip(positions, (e.window.alpha_prime for e in kernels)))
    size[trial], size[batch] = x_shape[:2]
    ins = [e.id for e in f.edges_of_kind(INPUT_CHANNEL)]
    w_terms = [term([trial] + [e.id for e in f.edges_of(vid)]) for vid in f.weight_ids]
    dims = {letter[k]: size[k] for k in letter}
    y_keys = [trial, batch] + positions + outs
    return (term([trial, batch] + positions + ins), term([trial, batch] + ins + positions),
            term(e.id for e in kernels), term(positions), w_terms, term(y_keys), dims)


def _padded(spec) -> int:
    """Length of the zero-expanded, padded axis the windows of ``spec`` read."""
    return spec.stride * (spec.alpha_prime - 1) + spec.beta


@dataclass(frozen=True)
class _Shift:
    """A window step as shift-and-accumulate of the registers ``reads``,
    input side first.  Register 0 is the input, 1 to W the weights in
    ``f.weight_ids`` order and W + 1 + k step k's result.

    The input side is copied once into a zero buffer of shape ``buffers[0]``,
    laid out as (kept on both sides, input only, summed) axes: ``x_perm``
    orders its axes, ``src`` selects the entries that fit and ``dst`` places
    them behind ``padding`` zeros with ``dilation - 1`` zeros between
    entries, along the axes of the kernel edges this step contracts.  The
    weight side is copied once with those edges' offsets leading
    (``w_perm``, ``w_shape``).  Then, per window offset, a strided slice of
    the buffer, with the summed channels merged into its trailing axis
    (``slice_shape``), is multiplied by the weight at that offset with one
    ``matmul``, kept indices riding as batch axes, and the products are
    summed.  ``windows`` holds, per contracted edge, its buffer axis, window
    size, stride and window count.  A backward step ``reverses`` the kernel
    (``R``): the slice at offset ``j`` meets the weight at ``beta - 1 - j``.

    ``buffers`` are the shapes of the arrays the step writes: the padded
    input, the weight copy, the sum, then, with more than one offset, each
    offset's product.
    """

    reads: tuple[int, ...]
    x_perm: tuple[int, ...]
    src: tuple[slice, ...]
    dst: tuple[slice, ...]
    w_perm: tuple[int, ...]
    w_shape: tuple[int, ...]
    slice_shape: tuple[int, ...]
    windows: tuple[tuple[int, int, int, int], ...]
    reverses: bool
    out_shape: tuple[int, ...]
    buffers: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class _Gemm:
    """A channel step as one product, transpose-transpose-GEMM (TTGT), of the
    registers ``reads`` (numbered as in :class:`_Shift`).

    The left operand's axes are ordered (batch, kept, summed) by ``a_perm``
    and the right one's (batch, summed, kept) by ``b_perm``; reshaped to
    ``a_shape`` and ``b_shape``, ``(batch, M, K)`` and ``(batch, K, N)``, they
    meet in one ``matmul`` into a buffer of ``buffers[0]``.  A step that sums
    no index longer than 1 is the case ``K = 1``.  Viewed as ``out_shape`` the
    buffer is the result, laid out batch, then kept left, then kept right, so
    it is never permuted.
    """

    reads: tuple[int, ...]
    a_perm: tuple[int, ...]
    a_shape: tuple[int, ...]
    b_perm: tuple[int, ...]
    b_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    buffers: tuple[tuple[int, ...], ...]


def _shift_buffers(s: _Shift, padded, w_copy, out, *extra) -> tuple:
    """The arrays of ``s.buffers`` as views ready for :func:`_shift`: the
    padded buffer, the entries of it the input fills, the weight copy, the
    sum, the per-offset product (``None`` with one offset) and, per window
    offset, the strided slice of the padded buffer it reads, with the summed
    channels merged into the trailing axis, and the weight it meets."""
    w = w_copy.reshape(s.w_shape)
    if s.reverses:
        w = w[(slice(None, None, -1),) * len(s.windows)]
    reads = []
    where = [slice(None)] * padded.ndim
    for at in np.ndindex(*(beta for _, beta, _, _ in s.windows)):
        for (ax, _, stride, count), i in zip(s.windows, at):
            where[ax] = slice(i, i + stride * (count - 1) + 1, stride)
        xs = padded[tuple(where)].reshape(s.slice_shape)
        # The summed channels trail the buffer unsliced, so this is a view.
        assert np.shares_memory(xs, padded)
        reads.append((xs, w[at]))
    return padded, padded[s.dst], w_copy, out, extra[0] if extra else None, reads


def _shift(x: np.ndarray, w: np.ndarray, s: _Shift, held: tuple) -> np.ndarray:
    # Only ``dst`` is written, so the pads and gaps :func:`_contract` zeroes
    # stay zero for every tile and replica of its call.
    _, dst, w_copy, out, extra, reads = held
    np.copyto(dst, x.transpose(s.x_perm)[s.src])
    np.copyto(w_copy, w.transpose(s.w_perm))
    # With one summed entry each product is an outer product.
    product = np.matmul if s.slice_shape[-1] > 1 else np.multiply
    (xs, wa), *rest = reads
    product(xs, wa, out=out)
    for xs, wa in rest:
        out += product(xs, wa, out=extra)
    return out.reshape(s.out_shape)


def _gemm(a: np.ndarray, b: np.ndarray, g: _Gemm, held: tuple) -> np.ndarray:
    a = a.transpose(g.a_perm).reshape(g.a_shape)
    b = b.transpose(g.b_perm).reshape(g.b_shape)
    np.matmul(a, b, out=held[0])
    return held[1]


@dataclass(frozen=True, eq=False)
class _Plan:
    """``entry`` permutes the input to channels-last, or is ``None`` when the
    input's first step reads it as given: a window step, whose copy into its
    padded buffer permutes it, or a channel step on an input that already is
    channels-last.  ``exit`` permutes the last step's result to the output
    layout.  Steps and buffers are sized for a batch tile of ``rows`` rows,
    the whole batch when it fits; ``y_shape`` is the shape of the whole
    result.  ``largest`` counts the entries of the largest array one tile
    holds: its input rows, a weight or an array a step writes (its
    ``buffers``).  ``buffers`` are the shapes of the plan's own arrays: the
    channels-last input (with ``entry``), then the replica sum (with more
    than one replica).  ``at`` gives the offset in the workspace of each of
    them and then of each step's ``buffers`` (see :func:`_slots`), and
    ``held`` the entries the workspace spans, one tile's buffers; the whole
    result and the arrays numpy makes on its own (GEMM operand copies, ufunc
    buffers; see the module docstring) are not among them."""

    entry: tuple[int, ...] | None
    steps: tuple[_Gemm | _Shift, ...]
    exit: tuple[int, ...]
    rows: int
    y_shape: tuple[int, ...]
    largest: int
    held: int
    buffers: tuple[tuple[int, ...], ...]
    at: tuple[int, ...]


# Plans are pairwise: with no memory cap numpy's greedy search never falls
# back to one step over all remaining operands, which no window step runs.
_PATH_SEARCH = ("greedy", sys.maxsize)

# The widest block of matrix rows or columns a BLAS GEMM micro-kernel
# computes at once: 16 in numpy's bundled OpenBLAS on AVX-512.  A partial
# block at the end of a matrix is computed by narrower kernels, which may
# round otherwise: on such a machine, (17, 3) @ (3, 3174) gives 26 of the
# entries in its last 4 columns otherwise than the same columns of
# (17, 3) @ (3, 12696), whose blocks are all whole.  A batch tile splits a
# GEMM dimension only into multiples of this width (see _aligned).
_GEMM_BLOCK = 16


def _groups(ta: str, tb: str, live) -> tuple[list[str], ...]:
    """The batch (``live``), summed and left-only indices of the terms ``ta``
    and ``tb`` in ``ta``'s order, then the right-only ones in ``tb``'s."""
    both = [c for c in ta if c in tb]
    return ([c for c in both if c in live], [c for c in both if c not in live],
            [c for c in ta if c not in tb], [c for c in tb if c not in ta])


def _compile_shift(reads, tx: str, tw: str, x_axes: str, w_axes: str, live, size,
                   windows, reverses: bool) -> tuple[_Shift, str]:
    """The window step of the registers ``reads``, input term ``tx`` and
    weight term ``tw``, whose arrays hold their axes in the orders ``x_axes``
    and ``w_axes``, over ``windows``, a list of (position letter, offset
    letter, window spec) of the kernel edges whose offsets ``tw`` holds.
    Updates ``size`` to the positions' window counts and returns the step and
    its result term, also its axis order."""
    offs = "".join(o for _, o, _ in windows)
    bat, summed, x_only, w_only = _groups(tx, tw, live)
    w_only = [c for c in w_only if c not in offs]
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
    w_order = list(offs) + bat + summed + w_only
    out = "".join(bat + x_only + w_only)
    slice_shape = (*dims(bat + x_only), k)
    total = (*slice_shape[:-1], n)
    extra = [total] if math.prod(betas) > 1 else []
    shift = _Shift(
        tuple(reads),
        tuple(x_axes.index(c) for c in order),
        tuple(src),
        tuple(dst),
        tuple(w_axes.index(c) for c in w_order),
        (*betas, *dims(bat), *[1] * (len(x_only) - 1), k, n),
        slice_shape,
        tuple(axes),
        reverses,
        tuple(dims(out)),
        (tuple(padded), tuple(dims(w_order)), total, *extra),
    )
    return shift, out


def _compile_gemm(reads, ta: str, tb: str, aa: str, ab: str, live,
                  size) -> tuple[_Gemm, str]:
    """The channel step of the registers ``reads``, left term ``ta`` and
    right term ``tb``, whose arrays hold their axes in the orders ``aa`` and
    ``ab``; returns the step and its result's axis order.

    Indices are grouped by :func:`_groups`, as numpy's pairwise
    ``bmm_einsum`` groups them, the batch group dropped when all of length 1.
    The trial index leads every term, so it is the first batch index; it
    stays an axis of its own, so a trial keeps a block of one's strides.
    Every step is one ``matmul``: one that sums no index longer than 1 has
    ``K = 1``, an outer product per batch entry.  The result holds its axes
    as batch, kept left, kept right.
    """
    bat, summed, left, right = _groups(ta, tb, live)
    # validate rejects an edge that only one vertex joins, so an index on
    # one side only is kept.
    assert all(c in live for c in left + right), f"{ta},{tb} sums an index on one side only"

    def fused(*groups):
        return tuple(math.prod(size[c] for c in g) for g in groups)

    axes = bat + left + right
    lead = [bat[:1], bat[1:]] if any(size[c] > 1 for c in bat[1:]) else [bat[:1]]
    gemm = _Gemm(
        tuple(reads),
        tuple(aa.index(c) for c in bat + left + summed),
        fused(*lead, left, summed),
        tuple(ab.index(c) for c in bat + summed + right),
        fused(*lead, summed, right),
        fused(*axes),
        (fused(*lead, left, right),),
    )
    return gemm, "".join(axes)


def _path(x_term, offsets, w_terms, output, dims):
    """numpy's greedy pairwise path for the windowed input, ``x_term +
    offsets``, and the weights, without the trial index they all lead with,
    which would change how numpy's greedy search pairs them."""
    terms = [x_term + offsets, *w_terms]
    standins = [np.broadcast_to(0.0, [dims[c] for c in t[1:]]) for t in terms]
    spec = ",".join(t[1:] for t in terms) + "->" + output[1:]
    return np.einsum_path(spec, *standins, optimize=_PATH_SEARCH)[0][1:]


def _steps(path, x_term, x_axes, offsets, positions, w_terms, output, dims, windows, backward):
    """Pairwise steps along ``path`` (see :func:`_path`), the axis order of
    the last step's result, whether the input is read through a
    channels-last copy and, per step, whether its result holds the batch
    index.

    The input side is the one operand that holds the window positions.  A
    step that joins it with a weight holding window offsets contracts those
    offsets by shift-and-accumulate, input side first, kernel reversed when
    ``backward``; every other step is a :class:`_Gemm`.  Before its window
    step a position has the input length ``alpha``, after it the window count.

    Each operand has a term, which names its indices in the order an einsum
    of the path would hold them, and an axis order, how its array holds
    them (the input's is ``x_axes``).  Steps group indices by terms, as the
    einsum would, and read arrays by axis orders, so no array is permuted
    between steps.  A step names its operands by register (see :class:`_Shift`).
    """
    size = dict(dims)
    size.update(zip(positions, (w.alpha for w in windows)))
    kernel = {o: (p, o, w) for p, o, w in zip(positions, offsets, windows)}
    pending = set(offsets)
    terms = [x_term, *w_terms]
    axes = [x_axes, *w_terms]
    regs = list(range(len(terms)))
    steps, batched, copied = [], [], False
    for picked in path:
        assert len(picked) == 2, "plans are pairwise"
        if positions:
            picked = sorted(picked, key=lambda i: positions[0] not in terms[i])
        args = [terms[i] for i in picked]
        reads = [regs[i] for i in picked]
        rest = [i for i in range(len(terms)) if i not in picked]
        live = set(output).union(pending, *(terms[i] for i in rest))
        windowed = [kernel[o] for o in offsets if o in pending and o in args[-1]]
        shifting = windowed and positions[0] in args[0]
        # The input is operand 0 until the step that reads it.  A window
        # step reads it as given; a channel step reads a channels-last copy,
        # as einsum did, unless the input already is channels-last.
        if 0 in reads:
            copied = not shifting and x_axes != x_term
            axes[0] = x_term if copied else x_axes
        held = [axes[i] for i in picked]
        if shifting:
            pending -= {o for _, o, _ in windowed}
            step, out = _compile_shift(reads, *args, *held, live, size, windowed, backward)
            order = out
        else:
            # einsum names a pair's result by first appearance and takes
            # the pair last operand first; so does the plan.
            out = "".join(dict.fromkeys(c for t in args for c in t if c in live))
            step, order = _compile_gemm(reads[::-1], *args[::-1], *held[::-1], live, size)
        regs = [regs[i] for i in rest] + [len(w_terms) + 1 + len(steps)]
        steps.append(step)
        batched.append(x_term[1] in out)
        terms = [terms[i] for i in rest] + [out]
        axes = [axes[i] for i in rest] + [order]
    return tuple(steps), axes[0], copied, batched


def _compile(f: LayerFormat, backward: bool, wiring, path, windows, x_shape,
             rows: int) -> tuple[_Plan, int]:
    """The plan of ``f`` along ``path`` for tiles of ``rows`` batch rows of
    an input of ``x_shape``, and the entries of the largest array that holds
    the batch index, the one a smaller tile shrinks: the input tile, a
    window step's padded buffer or a step result."""
    x_term, x_axes, offsets, positions, w_terms, output, dims = wiring
    dims = {**dims, x_term[1]: rows}
    tile = (x_shape[0], rows, *x_shape[2:])
    steps, last, copied, batched = _steps(path, x_term, x_axes, offsets, positions, w_terms,
                                          output, dims, windows, backward)
    entry = tuple(x_axes.index(c) for c in x_term) if copied else None
    public = output[:2] + output[2 + len(positions):] + positions
    exit_perm = tuple(last.index(c) for c in public)
    buffers = ((tuple(tile[i] for i in entry),) if entry else ()) + (
        (steps[-1].out_shape,) if f.phi > 1 else ())
    at, held = _slots(steps, buffers)
    weights = ([dims[c] for c in t] for t in w_terms)
    step_buffers = (s for step in steps for s in step.buffers)
    largest = max(map(math.prod, (tile, *weights, *step_buffers)))
    streamed = max(map(math.prod, (tile, *(shape for step, b in zip(steps, batched) if b
                                           for shape in (step.buffers[0], step.out_shape)))))
    y_tile = [steps[-1].out_shape[i] for i in exit_perm]
    plan = _Plan(entry, steps, exit_perm, rows, (x_shape[0], x_shape[1], *y_tile[2:]),
                 largest, held, buffers, at)
    return plan, streamed


def _aligned(tile: _Plan, whole: _Plan) -> bool:
    """Whether every GEMM dimension that ``tile`` shrinks from ``whole``, the
    one that holds the batch index, is a multiple of ``_GEMM_BLOCK``, so that
    neither matrix ends in a partial block there."""
    return all(
        d % _GEMM_BLOCK == 0
        for t, w in zip(tile.steps, whole.steps) if isinstance(t, _Gemm)
        for d, d_whole in ((t.a_shape[-2], w.a_shape[-2]), (t.b_shape[-1], w.b_shape[-1]))
        if d != d_whole
    )


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(f: LayerFormat, backward: bool, x_shape) -> _Plan:
    """Compile one direction of ``f`` for an input of ``x_shape`` (trials,
    batch, channels, then spatial); every weight leads with the trial axis.

    When an array that holds the batch index would take more than
    ``TRIAL_BLOCK_BYTES`` at the whole batch, the steps are compiled for a
    batch tile: the largest divisor of the batch, at least 2, at which every
    such array fits and every GEMM dimension the tile shrinks is a multiple
    of ``_GEMM_BLOCK``, so that a tile's entries are computed as the whole
    batch computes them.  When no such tile fits, the smallest one whose
    GEMM dimensions are multiples of ``_GEMM_BLOCK`` still cuts what each
    tile streams; with no such divisor the batch stays whole.  No weight
    holds the batch index, so a weight, or a product of weights alone, never
    decides the tile.  The path is searched at the whole batch for every
    tile, so a tile pairs its operands as the whole batch does.  A batch
    that fits compiles one plan.

    Each compile logs one DEBUG record on the ``tcinit`` logger: the
    direction, the whole input shape, ``rows``, ``largest``, ``held`` and the
    kind of each step."""
    ef = build_backward_format(f) if backward else f
    assert len(x_shape) == len(ef.input_mode_dims()) + 2, f"{x_shape} has no trial axis"
    windows = tuple(e.window for e in ef.kernel_edges)
    wiring = _wiring(ef, x_shape)
    x_term, _, offsets, _, w_terms, output, dims = wiring
    path = _path(x_term, offsets, w_terms, output, dims)
    batch = x_shape[1]
    whole, streamed = _compile(ef, backward, wiring, path, windows, x_shape, batch)
    plan = whole
    if 8 * streamed > TRIAL_BLOCK_BYTES:
        for rows in (rows for rows in range(batch // 2, 1, -1) if batch % rows == 0):
            tile, streamed = _compile(ef, backward, wiring, path, windows, x_shape, rows)
            if _aligned(tile, whole):
                plan = tile
                if 8 * streamed <= TRIAL_BLOCK_BYTES:
                    break
    _log.debug("plan %s x%s: rows=%d largest=%d held=%d steps=%s",
               "backward" if backward else "forward", x_shape, plan.rows, plan.largest,
               plan.held, ",".join(type(s).__name__[1:].lower() for s in plan.steps))
    return plan


def _assign(lives) -> tuple[tuple[int, ...], int]:
    """Static offsets in one flat array for arrays of ``(entries, first,
    last)`` lives, inclusive spans of steps, by the rule of TVM's memory
    planner (arXiv:1802.04799): in order of their first step, each array
    takes the largest slot whose arrays' lives have all ended, growing it to
    fit, or else a new slot, so arrays whose lives do not overlap share
    memory.  Returns each array's offset, in the order given, and the
    entries of all slots."""
    sizes, slot_of, free, busy = [], [None] * len(lives), [], []
    for k in sorted(range(len(lives)), key=lambda k: lives[k][1]):
        entries, first, last = lives[k]
        while busy and busy[0][0] < first:
            slot = heapq.heappop(busy)[1]
            heapq.heappush(free, (-sizes[slot], slot))
        slot = heapq.heappop(free)[1] if free else len(sizes)
        if slot == len(sizes):
            sizes.append(0)
        sizes[slot] = max(sizes[slot], entries)
        heapq.heappush(busy, (last, slot))
        slot_of[k] = slot
    starts = list(itertools.accumulate(sizes, initial=0))
    return tuple(starts[slot] for slot in slot_of), starts[-1]


def _slots(steps, own) -> tuple[tuple[int, ...], int]:
    """The offsets and span of a plan's workspace (see :func:`_assign`): a
    GEMM step's result lives from its step to the step that reads it, the
    last one to the end.  The plan's ``own`` arrays and a window step's
    arrays live throughout: its padded buffer keeps its zeros for the whole
    call."""
    # A pairwise path over the input and W weights takes W steps, so step
    # k's result is register W + 1 + k.
    end = len(steps)
    read = {r - end - 1: j for j, step in enumerate(steps) for r in step.reads if r > end}
    lives = [(math.prod(s), 0, end) for s in own]
    for k, step in enumerate(steps):
        gemm = isinstance(step, _Gemm)
        lives += [(math.prod(s), k if gemm else 0, read.get(k, end) if gemm else end)
                  for s in step.buffers]
    return _assign(lives)


def _workspace_arrays(plan: _Plan, memory: np.ndarray) -> tuple:
    """Everything a workspace holds for ``plan``, as views of ``memory`` at
    ``plan.at``: its own arrays, then per step those the step writes (see
    :func:`_shift_buffers`; a GEMM step's output and result views)."""
    shapes = [*plan.buffers, *(s for step in plan.steps for s in step.buffers)]
    views = iter([memory[at:at + math.prod(s)].reshape(s) for at, s in zip(plan.at, shapes)])
    own = [next(views) for _ in plan.buffers]
    held = []
    for step in plan.steps:
        arrays = [next(views) for _ in step.buffers]
        held.append(_shift_buffers(step, *arrays) if isinstance(step, _Shift)
                    else (arrays[0], arrays[0].reshape(step.out_shape)))
    return own, held


class _Arena:
    """One flat array, ``memory``, and the views made of it, per key: a
    plan's workspace (see :func:`_contract`), which starts at entry 0, or
    whatever else its owner lays out after it.  One worker thread owns it."""

    def __init__(self, entries: int):
        self.memory, self.views = np.empty(entries), {}


def _trial_block(plans) -> int:
    """Trials per block for ``plans``, the plans a block of one runs: as many
    as keep the largest array of every plan within ``TRIAL_BLOCK_BYTES``, at
    least one and at most ``MAX_TRIAL_BLOCK``; one when a plan runs in batch
    tiles.  The size depends on the shapes alone, and at that size no plan
    is tiled."""
    if any(plan.rows < plan.y_shape[1] for plan in plans):
        return 1
    largest = max(plan.largest for plan in plans)
    return min(MAX_TRIAL_BLOCK, max(1, TRIAL_BLOCK_BYTES // (8 * largest)))


def _contract(f: LayerFormat, x: np.ndarray, replicas, backward: bool,
              arena: _Arena | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over replicas of one direction's compiled contraction.

    ``replicas`` holds one list of weight arrays per replica, in
    ``f.weight_ids`` order.  The input, every weight and the result lead
    with the trial axis, a block of trials.  The plan runs once per batch
    tile (one pass when the batch is whole): the tile's input rows are made
    channels-last once, by the first step's copy when that is a window step.
    Per replica the registers start as the tile and the weights; each step
    reads its ``reads`` and appends its result, written into buffers the
    plan assigns it, and the last register is the replica's result.
    Replicas are summed into one more buffer.  All of them are views of the
    first ``held`` entries of ``arena``, which the caller owns and may pass
    again, by default a fresh one, checked with the result against the
    memory limit.  Other arrays may use that memory between calls, so the
    window steps' padded buffers are zeroed on entry.  The result is
    ``out``, an array of the result's shape, or by default one fresh array;
    each tile's rows are copied once
    from the last step's layout into its slice of it, in the output layout,
    so it never shares memory with the workspace.  ``out`` either shares no
    memory with ``x`` or is ``x``'s memory itself, reshaped, when a result
    batch row holds as many entries as an input row: then a tile's result
    rows are the memory of its input rows, written only after every step and
    replica has read them, and no other tile reads them.
    """
    plan = _plan(f, backward, x.shape)
    if arena is None:
        _check_array((plan.held + math.prod(plan.y_shape),),
                     "the workspace and result of a contraction")
        arena = _Arena(plan.held)
    if plan not in arena.views:
        arena.views[plan] = _workspace_arrays(plan, arena.memory)
    own, arrays = arena.views[plan]
    for step, held in zip(plan.steps, arrays):
        if isinstance(step, _Shift):
            held[0].fill(0.0)
    # Not a step buffer: a window step's sum is reused by every replica.
    total = own[-1] if len(replicas) > 1 else None
    y = np.empty(plan.y_shape) if out is None else out
    for lo in range(0, x.shape[1], plan.rows):
        tile = x[:, lo:lo + plan.rows]
        if plan.entry is not None:
            np.copyto(own[0], tile.transpose(plan.entry))
            tile = own[0]
        for n, weights in enumerate(replicas):
            regs = [tile, *weights]
            for step, held in zip(plan.steps, arrays):
                run = _shift if isinstance(step, _Shift) else _gemm
                regs.append(run(*(regs[r] for r in step.reads), step, held))
            if total is not None and n == 0:
                np.copyto(total, regs[-1])
            elif total is not None:
                total += regs[-1]
        out = regs[-1] if total is None else total
        np.copyto(y[:, lo:lo + plan.rows], out.transpose(plan.exit))
    return y


def _apply(layer: MaterializedLayer, t: DenseTensor, backward: bool) -> DenseTensor:
    _check_type(layer, MaterializedLayer, InvalidParams, "layer")
    f = layer.format
    name, side, expected = (("gradient", "output", f.output_mode_dims()) if backward
                            else ("input", "input", f.input_mode_dims()))
    _check_type(t, DenseTensor, ShapeMismatch, name)
    if t.shape[1:] != expected:
        raise ShapeMismatch(
            f"{name} shape {t.shape[1:]} does not match layer {side} {_shown(expected, str)}"
        )
    replicas = [[w[vid].array[None] for vid in f.weight_ids] for w in layer.replicas]
    return DenseTensor.from_array(_contract(f, t.array[None], replicas, backward)[0])


def forward_apply(layer: MaterializedLayer, x: DenseTensor) -> DenseTensor:
    """Pre-activation layer output for a batched input.

    ``x`` has shape ``(batch, *input mode dims)``; the result has shape
    ``(batch, *output channel dims, *output spatial dims)`` and sums the
    ``phi`` replica outputs.
    """
    return _apply(layer, x, False)


def backward_apply(layer: MaterializedLayer, grad: DenseTensor) -> DenseTensor:
    """Gradient of the layer input given the gradient of the layer output.

    ``grad`` uses the layer-output axis convention and the result the
    layer-input one.  The backward pass is the forward pass of
    ``build_backward_format(f)``, whose input layout is this layer's output
    layout: the gradient is read in stride-1 windows of its zero-expanded,
    padded form, each window meeting each replica's weights at the reversed
    kernel offsets.
    """
    return _apply(layer, grad, True)
