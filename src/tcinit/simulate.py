"""Seeded Monte-Carlo propagation through stacks of tensorized layers.

Every randomized entry point takes an explicit master seed; trial ``t``
draws from the streams numpy seeds from ``SeedSequence([seed, t])`` (that
sequence itself, or its ``spawn`` children), and results are reduced in
trial order, so reports are byte-identical for any worker count.  The words
those streams are seeded from are computed for a chunk of up to
``SEED_CHUNK`` trials at once, by numpy's NEP-19 ``SeedSequence`` hash over
arrays, and each stream is seeded from them into its worker's generator, so
no ``SeedSequence`` or generator is built per trial.  The traces and
:func:`variance_mc` share one runner, :func:`_run`, whose blocks of trials
have a size that depends on the layer shapes alone, never on the worker
count; :func:`scale_chain`'s blocks are single trials.  :func:`_map_seeded`
runs every seeded call's blocks on its worker threads and gives each worker
one pool (see :class:`~tcinit.network._Pool`) for the length of the call,
which owns every buffer the worker reuses: the contraction workspace, the
whole-batch arrays, the statistics' temporaries, the drawn gradient's buffer
and :func:`scale_chain`'s weights.  A statistic and the drawn gradient work
through a temporary of at most ``TRIAL_BLOCK_BYTES``, and a backward
contraction writes into its own input where the shapes allow (see
:func:`_passes`), so a block of the ``conv_depth`` benchmark stack makes no
whole-batch array beyond its five kept post-activations.  numpy's bundled
OpenBLAS runs at one thread for the whole of every seeded call, at any
worker count, so reports do not depend on its thread count either.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import numbers
import operator
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .formats import LayerFormat
from .graph import (
    FAN_IN,
    PLAN_MODES,
    InitPlan,
    extract_bg,
    make_plan,
    predicted_output_variance,
)
from . import network
from .network import _Pool, _contract, _draw, _plan, _trial_block, _weight_specs
from .tensor import (ACTIVATION_SCALE, _activation, _activation_grad, _check_array,
                     _check_integers, _check_seed)

DEFAULT_CHAIN_DIMS = (96, 200, 400, 600, 800, 1000, 800, 600, 400, 200, 100)
SATURATION_THRESHOLD = 0.99

_log = logging.getLogger("tcinit")


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
            **asdict(self),
            "layers": [{"layer": i, **asdict(t)} for i, t in enumerate(self.layers)],
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


def _kept_entries(f: LayerFormat, batch: int, backward: bool = True) -> int:
    """Entries a trial keeps of layer ``f``: its replicas' weights and, for a
    backward pass, the post-activation, the one array that pass reads."""
    weights = f.phi * sum(math.prod(f.weight_mode_dims(vid)) for vid in f.weight_ids)
    return weights + (batch * math.prod(f.output_mode_dims()) if backward else 0)


def validate_network(net: NetworkSpec, trials: int = 1, workers: int = 1,
                     backward: bool = True) -> int:
    """Check that every layer names a known activation and plan mode, that
    the layers chain and that ``trials`` fit in memory, forward and, with
    ``backward``, backward; return the trials per block (see
    :func:`~tcinit.network._trial_block`).  A layer object met again on the
    same input shape only adds what it keeps: its checks ran the first time.

    No array may exceed the memory limit: the batched input, a layer
    output, the largest array of a plan (such as a window step's zero-padded
    input) or the arrays its workspace holds at once, one batch tile's
    buffers.  Compiling a plan allocates nothing.  Then a block's input and
    what it keeps (see :func:`_kept_entries`) must fit, and so must they
    with the largest workspace of any plan, that plan's result and two
    result-sized temporaries, for a block of ``min(block, trials)`` trials
    and for the ``min(workers, blocks)`` blocks run at once.  So must the
    statistics of all ``trials``, at most 4 figures per layer, twice: their
    chunks are concatenated (see :func:`_map_seeded`).  All of it raises
    :class:`~tcinit.errors.ResourceLimit` before any draw, and a ``trials``,
    ``workers`` or batch that is not an integer raises
    :class:`~tcinit.errors.InvalidParams`."""
    _check_integers(InvalidParams, trials=trials, workers=workers, batch=net.batch)
    if not net.layers:
        raise InvalidParams("network has no layers")
    if net.batch < 1:
        raise InvalidParams("batch must be >= 1")
    feed = tuple(net.input_shape)
    _check_array((net.batch, *feed), "the batched network input")
    kept, plans, seen = math.prod((net.batch, *feed)), [], {}
    for i, spec in enumerate(net.layers):
        key = id(spec), feed
        if key not in seen:
            if spec.activation not in ACTIVATION_SCALE:
                raise InvalidParams(f"layer {i} has unknown activation {spec.activation!r}")
            if spec.mode not in PLAN_MODES:
                raise InvalidParams(f"layer {i} has unknown plan mode {spec.mode!r}")
            f = spec.format
            if feed != f.input_mode_dims():
                raise ShapeMismatch(
                    f"layer {i} expects input dims {f.input_mode_dims()} "
                    f"(channels, then spatial) but receives {feed}"
                )
            out = f.output_mode_dims()
            _check_array((net.batch, *out), f"the output of layer {i}")
            seen[key] = out, _kept_entries(f, net.batch, backward)
            for direction, dims in (("forward", feed), ("backward", out))[:1 + backward]:
                plan = _plan(f, direction == "backward", (1, net.batch, *dims))
                _check_array((plan.largest,),
                             f"the largest array of layer {i}'s {direction} pass")
                _check_array((plan.held,), f"the workspace of layer {i}'s {direction} pass")
                plans.append(plan)
        feed, entries = seen[key]
        kept += entries
    size = _trial_block(plans)
    holds = kept + max(plan.held + 3 * math.prod(plan.y_shape) for plan in plans)
    block = min(size, trials)
    _check_array((block, kept), "the input, weights and kept activations of a trial block")
    _check_array((block, holds),
                 "the input, weights, kept activations, workspace and result of a trial block")
    copies = min(workers, -(-trials // size))
    if copies > 1:
        _check_array((copies, block, holds),
                     f"the inputs, weights, kept activations, workspaces and results of "
                     f"{copies} trial blocks run at once")
    _check_array((2, trials, len(net.layers), 4),
                 f"the statistics of {trials} trials and their concatenation")
    return size


# numpy's pairwise summation adds a run of at most this many entries in one
# unrolled loop, and halves only longer runs (its PW_BLOCKSIZE).
_PAIRWISE_BLOCK = 128


def _span(trials: int) -> int:
    """Entries per trial of a temporary of ``trials`` trials that stays
    within ``TRIAL_BLOCK_BYTES``, or one pairwise block if more."""
    return max(_PAIRWISE_BLOCK, network.TRIAL_BLOCK_BYTES // (8 * trials))


def _row_mean(a: np.ndarray, pool: _Pool, fill) -> np.ndarray:
    """Per-trial mean of what ``fill(part, tmp)`` writes into ``tmp`` from
    each column span ``part`` of ``a``, a block array seen as ``(trials,
    entries)``, with one temporary taken from ``pool`` (see
    :func:`_tree_sum`).  A row that fits :func:`_span` is one span, and the
    temporary is as large as ``a``."""
    a = a.reshape(len(a), -1)
    trials, n = a.shape
    tmp = pool.take((trials * min(n, _span(trials)),))
    sums = _tree_sum(a, tmp, fill, 0, n)
    pool.give(tmp)
    return np.true_divide(sums, n, out=sums)


def _tree_sum(a: np.ndarray, tmp: np.ndarray, fill, lo: int, m: int) -> np.ndarray:
    """The sums of :func:`_row_mean` over columns ``lo`` to ``lo + m``.

    The rows are cut where numpy's pairwise summation cuts a row (``n2 = n
    // 2``, less ``n2 % 8``) until a span fits ``tmp``; each span is filled
    into ``tmp`` and summed for all trials at once, and the span sums are
    added up along the same tree, so the total is numpy's sum of the whole
    filled row, bit for bit."""
    trials = len(a)
    if trials * m <= len(tmp):
        part = tmp[:trials * m].reshape(trials, m)
        fill(a[:, lo:lo + m], part)
        return np.add.reduce(part, axis=1)
    m2 = m // 2
    m2 -= m2 % 8
    return _tree_sum(a, tmp, fill, lo, m2) + _tree_sum(a, tmp, fill, lo + m2, m - m2)


def _var(a: np.ndarray, pool: _Pool) -> np.ndarray:
    """Per-trial variance of a block array, bit for bit that of each trial's
    slice alone: numpy's own ufunc sequence for ``var``, its mean over the
    whole array and the mean of its squared deviations (see
    :func:`_row_mean`)."""
    a = a.reshape(len(a), -1)
    mean = np.add.reduce(a, axis=1, keepdims=True)
    np.true_divide(mean, a.shape[1], out=mean)

    def squares(part, tmp):
        np.subtract(part, mean, out=tmp)
        np.square(tmp, out=tmp)

    return _row_mean(a, pool, squares)


def _saturation(a: np.ndarray, pool: _Pool) -> np.ndarray:
    """Per-trial fraction of a block array's entries whose magnitude exceeds
    ``SATURATION_THRESHOLD``, bit for bit the mean of numpy's boolean
    comparison: the mean of the comparison's ones, written into a temporary
    span by span (see :func:`_row_mean`) and summed exactly."""

    def ones(part, tmp):
        np.abs(part, out=tmp)
        np.greater(tmp, SATURATION_THRESHOLD, out=tmp)

    return _row_mean(a, pool, ones)


def _passes(net: NetworkSpec, weights, x: np.ndarray, pool: _Pool, measure, upstream=None):
    """Run a block of trials (``x`` and, per layer, one ``(phi, block, ...)``
    array per weight vertex) through the stack, contracting in ``pool``.

    Every whole-batch array is one of ``pool``'s and goes back to it once its
    role ends.  Forward, each layer contracts into a pool array, the
    pre-activation; ``measure[0](pool, x, pre)`` gives per-trial statistics
    of the layer's input and pre-activation, the activation then overwrites
    ``pre`` in place (in-place activation storage, as in Chen et al.,
    arXiv:1604.06174) and ``measure[1](pool, post)`` gives those of the
    post-activation.  The input goes back once measured, and so does each
    post-activation of a forward-only run.  With ``upstream``, backward
    follows, reading the post-activations, the only arrays kept:
    ``upstream(post, activation)`` writes the output gradient times the last
    activation's derivative into the last post-activation, and each earlier
    one is overwritten with the gradient times its own derivative.  Each is
    then contracted into its own memory when a result batch row holds as
    many entries as an input row (see :func:`~tcinit.network._contract`),
    or else into a pool array, and given back.  Returns ``[block, layers, k
    + 1]`` rows (the statistics, then the gradient's variance at the layer's
    input, or 0) and the input gradient, a pool array, or None without
    ``upstream``.  Logs each layer's pass seconds at DEBUG."""
    layers, n, posts, stats, g = net.layers, len(x), [], [], None
    ticks = [time.perf_counter()]
    for i, (spec, w) in enumerate(zip(layers, weights)):
        f = spec.format
        pre = _contract(f, x, list(zip(*w)), False, pool,
                        pool.take((n, net.batch, *f.output_mode_dims())))
        row = measure[0](pool, x, pre)
        if i == 0 or upstream is None:
            pool.give(x)
        post = _activation(pre, spec.activation)
        stats.append([*row, *measure[1](pool, post), np.zeros(n)])
        if upstream is not None:
            posts.append(post)
        x = post
        ticks.append(time.perf_counter())
    if upstream is None:
        pool.give(x)
    else:
        for i in range(len(layers) - 1, -1, -1):
            spec, d = layers[i], posts.pop()
            if g is None:
                upstream(d, spec.activation)
            else:
                _activation_grad(g, d, spec.activation)
                pool.give(g)
            shape = (n, net.batch, *spec.format.input_mode_dims())
            in_place = math.prod(shape) == d.size
            g = _contract(spec.format, d, list(zip(*weights[i])), True, pool,
                          d.reshape(shape) if in_place else pool.take(shape))
            if not in_place:
                pool.give(d)
            stats[i][-1] = _var(g, pool)
            ticks.append(time.perf_counter())
    if _log.isEnabledFor(logging.DEBUG):
        spans = np.diff(ticks).tolist()
        forward_s, backward_s = spans[:len(layers)], spans[len(layers):][::-1]
        _log.debug("block of %d trials: forward_s=%s backward_s=%s", n,
                   ",".join(f"{t:.6f}" for t in forward_s),
                   ",".join(f"{t:.6f}" for t in backward_s),
                   extra={"forward_s": forward_s, "backward_s": backward_s})
    # In C order, as the reduction over trials reads it.
    return np.ascontiguousarray(np.transpose(stats, (2, 0, 1))), g


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


# Open _one_blas_thread contexts, in any thread, and the BLAS thread count
# the first of them found; both change only under the lock.
_BLAS_LOCK = threading.Lock()
_blas_holds = 0
_blas_before = 1


@contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread while any such context is open, in any
    thread; the last to close restores the count the first one found."""
    global _blas_holds, _blas_before
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _BLAS_LOCK:
        if _blas_holds == 0:
            _blas_before = get()
            set_(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_holds -= 1
            if _blas_holds == 0:
                set_(_blas_before)


# -- trial seed streams -------------------------------------------------------

# The constants of numpy's SeedSequence hash and of PCG64's 128-bit LCG, both
# fixed by NEP 19 under numpy's stream-compatibility policy.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# Trials whose seed words are computed at once: 32 bytes per stream, under
# 1 MB for the 7 streams of a depth-5 trace, whatever the trial count.
SEED_CHUNK = 4096


def _words(n: int) -> list[int]:
    """``n >= 0`` as SeedSequence reads an integer: 32-bit words, least
    significant first, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash step over uint32 arrays: each call hashes with the
    next constant of the sequence ``const``, ``const * mult``, ... (mod 2**32)."""

    def hash_(v):
        nonlocal const
        v = v ^ const
        const = const * mult & _MASK32
        v = v * const
        return v ^ v >> 16

    return hash_


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _seed_words(seed: int, trials: range, keys=None) -> np.ndarray:
    """The words ``default_rng`` seeds PCG64 from, per trial ``t`` of
    ``trials`` and key ``k`` of ``keys``: ``generate_state(4, np.uint64)``
    of ``SeedSequence([seed, t], spawn_key=(k,))``, which is
    ``SeedSequence([seed, t]).spawn(n)[k]``; with ``keys=None``, of
    ``SeedSequence([seed, t])`` alone, as one key.  Shape
    ``(len(trials), len(keys), 4)``, uint64.

    Bit for bit numpy's own hash, computed for all trials at once: it runs
    over uint32 arrays with one entry per trial, and over the keys only once
    the trial's words are mixed in.  Trials whose index has the same number
    of 32-bit words share one such pass."""
    seed_words = _words(operator.index(seed))
    runs = []
    lo = trials.start
    while lo < trials.stop:
        t_words = len(_words(lo))
        hi = min(trials.stop, 1 << 32 * t_words)
        # Every array is [key, trial]; the trial's words have one key.
        t = np.arange(lo, hi, dtype=np.uint64)[None]
        entropy = [np.full(t.shape, w, np.uint32) for w in seed_words]
        entropy += [(t >> 32 * k).astype(np.uint32) for k in range(t_words)]
        # A spawned sequence pads its entropy with zeros to the pool size; an
        # unspawned one hashes zeros in their place, which is the same.
        entropy += [np.zeros(t.shape, np.uint32)] * (4 - len(entropy))
        if keys is not None:
            entropy.append(np.array(keys, np.uint32)[:, None])
        hash_ = _hasher(_INIT_A, _MULT_A)
        pool = [hash_(w) for w in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hash_(pool[src]))
        for w in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hash_(w))
        hash_ = _hasher(_INIT_B, _MULT_B)
        out = np.empty((t.size, 1 if keys is None else len(keys), 8), "<u4")
        for i in range(8):
            out[..., i] = hash_(pool[i % 4]).T
        # The 64-bit words pair the 32-bit ones little-endian.
        runs.append(out.view("<u8"))
        lo = hi
    return np.concatenate(runs)


def _stream(rng: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    """``rng``, a PCG64 generator, set to the state ``default_rng`` gives
    PCG64 from one stream's four :func:`_seed_words`: PCG64's ``srandom`` of
    the 128-bit state ``s`` and stream ``i``."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _map_seeded(fn, seed: int, trials: int, keys, workers: int, size: int = 1) -> np.ndarray:
    """The rows ``fn(pool, rng, words)`` gives for each block of ``size``
    consecutive trials of ``range(trials)``, ``words`` those trials'
    :func:`_seed_words`, concatenated in order.  Worker ``k`` of ``workers``
    (at most one per block) runs every ``workers``-th block from the
    ``k``-th with its own :class:`~tcinit.network._Pool` and PCG64 generator
    (see :func:`_stream`), both kept for the call; one worker is the calling
    thread.  BLAS runs at one thread for the whole call, at every worker
    count: a GEMM split over BLAS threads may add its terms in another
    order, and workers would contend with BLAS threads for cores.  The words
    of a chunk of at most ``SEED_CHUNK`` trials (at least one block, in
    whole blocks) are computed before its blocks are mapped, and its rows
    are joined once they are, so neither the words nor the per-block results
    take memory in proportion to ``trials``.  Raises
    :class:`~tcinit.errors.InvalidParams` before any draw when ``seed`` is
    not an integer >= 0 or ``trials`` or ``workers`` is below 1."""
    _check_seed(seed, sequence=False)
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    if workers < 1:
        raise InvalidParams("workers must be >= 1")
    workers = min(workers, -(-trials // size))
    states = [(_Pool(), np.random.Generator(np.random.PCG64())) for _ in range(workers)]
    chunk = size * max(1, SEED_CHUNK // size)
    results = []
    with _one_blas_thread(), ThreadPoolExecutor(workers) as ex:
        for lo in range(0, trials, chunk):
            hi = min(lo + chunk, trials)
            words = _seed_words(seed, range(lo, hi), keys)
            blocks = [words[b:b + size] for b in range(0, hi - lo, size)]
            rows = [None] * len(blocks)
            parts = (ex.map if workers > 1 else map)(
                lambda k: [fn(*states[k], w) for w in blocks[k::workers]], range(workers))
            for k, part in enumerate(parts):
                rows[k::workers] = part
            results.append(np.concatenate(rows))
    return np.concatenate(results)


def _run(net: NetworkSpec, seed: int, trials: int, workers: int, measure, grad_var=None,
         inits=None) -> np.ndarray:
    """``[trials, layers, k + 1]`` rows of :func:`_passes` for seeded trials
    through ``net`` in blocks (see :func:`validate_network`), weights drawn as
    ``inits`` plan them, by default the layers' own plans; ``measure`` is as
    in :func:`_passes`.

    Trial ``t`` draws from the children of ``SeedSequence([seed, t])`` (see
    :func:`_seed_words`) in place into its slices of block arrays: a
    standard-normal input from the first, layer ``i``'s weights from child
    ``i + 1`` and, unless ``grad_var`` is None, a normal output gradient of
    that variance from the last.  Each worker's pool (see
    :func:`_map_seeded`), which holds the contraction workspace and the
    whole-batch arrays, lives as long as the call, so when every layer has
    one shape a block after the first makes no whole-batch array; with
    several shapes a later block may still make one where the pool's best
    fit misses.  A trial's figures depend
    neither on its block nor on ``workers``."""
    size = validate_network(net, trials, workers, grad_var is not None)
    inits = inits or [make_plan(s.format, s.mode, s.activation) for s in net.layers]
    specs = [_weight_specs(s.format, init) for s, init in zip(net.layers, inits)]

    def normal(pool, rng, words, shape):
        out = pool.take((len(words), *shape))
        for t, w in enumerate(words):
            _draw(_stream(rng, w), [[out[t]]], [1.0], "normal")
        return out

    def gradient(pool, rng, words, post, activation):
        # Each trial's gradient is drawn span by span into one small buffer:
        # standard_normal fills the spans from the stream in turn, as it
        # fills the whole row, and every later step is elementwise.
        rows = post.reshape(len(post), -1)
        span = min(rows.shape[1], _span(1))
        buf = pool.take((span,))
        for row, w in zip(rows, words):
            _stream(rng, w)
            for lo in range(0, len(row), span):
                part = row[lo:lo + span]
                g = buf[:len(part)]
                _draw(rng, [[g]], [grad_var], "normal")
                _activation_grad(g, part, activation)
        pool.give(buf)

    def block(pool, rng, words):
        weights = []
        for i, (spec, init, (shapes, variances)) in enumerate(zip(net.layers, inits, specs)):
            arrays = [np.empty((spec.format.phi, len(words), *s)) for s in shapes]
            for t, w in enumerate(words[:, 1 + i]):
                slots = [[a[t] for a in replica] for replica in zip(*arrays)]
                _draw(_stream(rng, w), slots, variances, init.distribution)
            weights.append(arrays)
        upstream = None if grad_var is None else (
            lambda post, activation: gradient(pool, rng, words[:, -1], post, activation))
        x = normal(pool, rng, words[:, 0], (net.batch, *net.input_shape))
        rows, g = _passes(net, weights, x, pool, measure, upstream)
        if g is not None:
            pool.give(g)
        return rows

    keys = range(len(net.layers) + 1 + (grad_var is not None))
    return _map_seeded(block, seed, trials, keys, workers, size)


def _trace(net: NetworkSpec, seed: int, trials: int, workers: int, grad_var=None) -> TraceReport:
    """Mean and trial-to-trial std of the per-layer statistics of
    :func:`_run`: pre- and post-activation variance, saturation and gradient
    variance (0 unless ``grad_var`` is given)."""
    measure = (lambda pool, x, pre: (_var(pre, pool),),
               lambda pool, post: (_var(post, pool), _saturation(post, pool)))
    rows = _run(net, seed, trials, workers, measure, grad_var)
    stats = zip(rows.mean(axis=0), rows.std(axis=0))
    layers = tuple(
        LayerTrace(*map(float, (m[0], d[0], m[1], d[1], m[3], d[3], m[2]))) for m, d in stats
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
    derivatives use the exact forward masks.  Each trial runs the stack
    forward once and backward once, and the activation statistics come
    from that forward pass: they equal those of :func:`forward_trace`, bit
    for bit, so one call yields the full report.  Raises
    :class:`~tcinit.errors.InvalidParams` before any draw when ``grad_var``
    is not a finite real >= 0.
    """
    if not isinstance(grad_var, numbers.Real) or not 0 <= grad_var <= sys.float_info.max:
        raise InvalidParams(f"grad_var must be a finite real >= 0, got {grad_var!r}")
    return _trace(net, seed, trials, workers, float(grad_var))


def input_gradient(net: NetworkSpec, layers, x: np.ndarray, upstream: np.ndarray):
    """Exact loss gradient at the network input for loss sum(upstream * a(y)).

    ``layers`` are materialized layers matching ``net``; used by gradient
    verification.  The passes are those of the traces, as a block of one,
    on a copy of ``x``; neither ``x`` nor ``upstream`` is written.  The
    gradient has the shape of ``x``.
    """
    weights = [[np.stack([w[vid].array for w in layer.replicas])[:, None]
                for vid in layer.format.weight_ids] for layer in layers]
    pool = _Pool()
    block = pool.take((1, *x.shape))
    np.copyto(block[0], x)
    return _passes(net, weights, block, pool, (lambda *_: (),) * 2,
                   lambda post, activation: _activation_grad(upstream, post, activation))[1][0]


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

    The measurement is the one-layer, forward-only case of the traces'
    runner (see :func:`_run`), with no activation: trial ``t`` draws a
    standard-normal input of ``batch`` samples from the first child of
    ``SeedSequence([seed, t])`` and every weight from the second.  Raises
    :class:`~tcinit.errors.ResourceLimit` before any draw when the blocks
    would not fit in memory (see :func:`validate_network`), and
    :class:`~tcinit.errors.InvalidParams` when ``batch`` is below 1.
    """
    variances = _weight_specs(f, plan)[1]
    predicted = predicted_output_variance(
        extract_bg(f, FAN_IN), 1.0, variances, 1.0, f.phi
    )
    net = NetworkSpec((LayerSpec(f),), f.input_mode_dims(), batch)
    measure = (lambda pool, x, pre: (_var(pre, pool) / _var(x, pool),), lambda *_: ())
    rows = _run(net, seed, trials, workers, measure, inits=[plan])
    ratios = rows[:, 0, 0]
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
    ground truth is the contracted dimension ``dims[t-1]``.  Each trial
    draws its input and then every matrix from the stream of
    ``SeedSequence([seed, trial])`` (see :func:`_seed_words`).  Raises
    :class:`~tcinit.errors.ResourceLimit` before any draw when an input,
    weight or step output, or the scales of all trials and their
    concatenation (see :func:`_map_seeded`), would not fit in memory, and
    :class:`~tcinit.errors.InvalidParams` when a dim is not a whole number
    or ``trials``, ``batch`` or ``workers`` is not an integer.  BLAS runs
    at one thread (see :func:`_map_seeded`), so the scales depend neither on
    ``workers`` nor on its thread count.
    """
    _check_integers(InvalidParams, trials=trials, batch=batch, workers=workers)
    try:
        dims = tuple(dims)
        whole = all(isinstance(d, numbers.Integral)
                    or isinstance(d, numbers.Real) and math.isfinite(d) and d == int(d)
                    for d in dims)
    except TypeError:
        whole = False
    if not whole:
        raise InvalidParams(f"chain dims must be whole numbers, got {dims!r}")
    dims = tuple(map(int, dims))
    if len(dims) < 2:
        raise InvalidParams("chain needs at least two dims")
    if min(dims) < 1:
        raise InvalidParams(f"chain dims must be >= 1, got {dims}")
    if batch < 1:
        raise InvalidParams("batch must be >= 1")
    _check_array((batch, dims[0]), "the chain input")
    for t in range(1, len(dims)):
        _check_array((dims[t - 1], dims[t]), f"the weight of chain step {t}")
        _check_array((batch, dims[t]), f"the output of chain step {t}")
    _check_array((2, trials, len(dims) - 1),
                 f"the scales of {trials} trials and their concatenation")

    def one(pool, rng, streams):
        _stream(rng, streams[0][0])
        x = rng.standard_normal((batch, dims[0]))
        scales = []
        for a, b in zip(dims, dims[1:]):
            # standard_normal fills the pool's view in C order, as it fills
            # a fresh array of that shape.
            w = rng.standard_normal(out=pool.take((a, b)))
            out = x @ w
            pool.give(w)
            scales.append(out.var() / x.var())
            x = out
        return [scales]  # the rows of a block of one trial

    rows = _map_seeded(one, seed, trials, None, workers)
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
    Raises :class:`~tcinit.errors.InvalidParams` when ``samples`` is not an
    integer of at least 1, and :class:`~tcinit.errors.ResourceLimit` before
    drawing an array that would not fit in memory.
    """
    _check_seed(seed)
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise InvalidParams(f"samples must be an integer >= 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    checks = []

    def size(*shape):
        _check_array(shape, "a proposition-check sample")
        return shape

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
    a = rng.standard_normal(size(samples))
    b = rng.standard_normal(size(samples))
    add("sum of two unit-variance tensors", (a + b).var(), 2.0, 0.03)
    for case in range(3):
        v = rng.uniform(0.25, 2.0, size=3)
        total = sum(
            rng.normal(0.0, np.sqrt(vi), size=size(samples)) for vi in v
        )
        add(f"sum of three tensors #{case}", total.var(), float(v.sum()), 0.03)

    # (b) fixed contraction case: [4,5,6] x [6,7] over the shared dim 6.
    repeats = max(1, samples // (4 * 5 * 7))
    x = rng.standard_normal(size(repeats, 4, 5, 6))
    y = rng.normal(0.0, 0.5, size=size(repeats, 6, 7))
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
        x = rng.normal(0.0, np.sqrt(vx), size=size(repeats, m, *shared))
        y = rng.normal(0.0, np.sqrt(vy), size=size(repeats, *shared, n))
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
