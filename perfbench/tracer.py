"""Outside-in tracing: pass-through wrappers around the package's layers.

``Tracer`` replaces every public function of the package modules at each
name its callers bind, plus ``numpy.einsum``, the ``einsum_path`` that
``einsum`` looks up, ``LayerFormat.edges_of`` and
``DenseTensor.__post_init__``.  Each call records a span (parent, layer,
name, start, end, info) in memory; nothing is reduced while the run is
timed.  ``metrics()`` turns the spans into the per-layer metrics after the
run: a span's self time is its duration minus that of its child spans, and
the einsum and pattern counts are computed from the recorded shapes.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

try:
    import numpy._core.einsumfunc as _einsumfunc
except ImportError:  # numpy < 2
    import numpy.core.einsumfunc as _einsumfunc

from tcinit.formats import LayerFormat
from tcinit.tensor import DenseTensor

_ORIGINAL_EINSUM_PATH = _einsumfunc.einsum_path

LAYERS = ("cli", "simulate", "network", "tensor", "transform", "graph", "formats")
ITEM = "item"

# Per-layer metrics: name -> (unit, better).  Times are seconds per item and
# counts are per item, except ratios and the largest intermediate.
PER_LAYER = {
    "einsum.flops": ("count", "lower"),
    "einsum.max_intermediate": ("elements", "lower"),
    "einsum.calls": ("count", "lower"),
    "einsum.self_s": ("s", "lower"),
    "einsum.path_s": ("s", "lower"),
    "einsum.distinct_ratio": ("ratio", "higher"),
    "tensor.calls": ("count", "lower"),
    "tensor.self_s": ("s", "lower"),
    "tensor.pattern.calls": ("count", "lower"),
    "tensor.pattern_bytes": ("B", "lower"),
    "tensor.pattern_density": ("ratio", "higher"),
    "tensor.dense_tensor.count": ("count", "lower"),
    "tensor.multi_contract.calls": ("count", "lower"),
    "tensor.multi_contract.self_s": ("s", "lower"),
    "network.calls": ("count", "lower"),
    "network.self_s": ("s", "lower"),
    "network.forward_apply.calls": ("count", "lower"),
    "network.forward_apply.self_s": ("s", "lower"),
    "network.backward_apply.calls": ("count", "lower"),
    "network.backward_apply.self_s": ("s", "lower"),
    "network.contraction_map.calls": ("count", "lower"),
    "network.materialize.calls": ("count", "lower"),
    "network.materialize.self_s": ("s", "lower"),
    **{
        f"depth.{i}.{d}_s": ("s", "lower")
        for i in range(5)
        for d in ("forward", "backward")
    },
    "formats.calls": ("count", "lower"),
    "formats.self_s": ("s", "lower"),
    "formats.edges_of.calls": ("count", "lower"),
    "graph.calls": ("count", "lower"),
    "graph.self_s": ("s", "lower"),
    "transform.calls": ("count", "lower"),
    "transform.self_s": ("s", "lower"),
    "simulate.calls": ("count", "lower"),
    "simulate.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
DEPTHS = 5


def _targets():
    """(callable, layer, name) of everything the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"tcinit.{layer}"]
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ and not name.startswith("_"):
                out.append((fn, layer, name))
    out.append((LayerFormat.edges_of, "formats", "edges_of"))
    out.append((DenseTensor.__post_init__, "tensor", "dense_tensor"))
    out.append((np.einsum, "einsum", "einsum"))
    out.append((_einsumfunc.einsum_path, "einsum", "einsum_path"))
    return out


def _bindings(originals):
    """Every (namespace object, attribute) that binds one of ``originals``."""
    spaces = [m for n, m in sys.modules.items() if n == "tcinit" or n.startswith("tcinit.")]
    spaces += [np, _einsumfunc, LayerFormat, DenseTensor]
    found = []
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if callable(value) and id(value) in originals:
                found.append((space, attr, value))
    return found


def _einsum_info(args, kwargs):
    spec = args[0].replace(" ", "")
    shapes = tuple(np.shape(a) for a in args[1:])
    return spec, shapes, kwargs.get("optimize", False)


def _pattern_info(args, kwargs):
    s = args[0] if args else kwargs["spec"]
    return s.alpha, s.beta, s.stride, s.padding


INFO = {("einsum", "einsum"): _einsum_info, ("tensor", "build_dummy"): _pattern_info}


class Tracer:
    """Install with ``with Tracer():``; wrappers are removed on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self._stack
        info_of = INFO.get((layer, name))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            info = info_of(args, kwargs) if info_of else None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (parent, layer, name, t0, t1, info)

        return span

    def item(self, fn, *args):
        """Run one benchmark item as a root span, so depth is per item."""
        return self._wrap(fn, ITEM, ITEM)(*args)

    def __enter__(self):
        wrappers = {id(fn): self._wrap(fn, layer, name) for fn, layer, name in _targets()}
        for space, attr, value in _bindings(wrappers):
            setattr(space, attr, wrappers[id(value)])
            self._installed.append((space, attr, value))
        return self

    def __exit__(self, *exc):
        for space, attr, value in reversed(self._installed):
            setattr(space, attr, value)
        self._installed.clear()

    # -- reduction ----------------------------------------------------------

    def metrics(self, depth: int, items: int) -> dict:
        """Per-layer metrics; ``depth`` is the network depth of one item."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = Counter()
        self_s = defaultdict(float)
        einsum_keys = Counter()
        patterns = Counter()
        depth_s = defaultdict(float)
        order = defaultdict(int)  # (item span, name) -> calls so far
        item_of = [-1] * len(spans)
        for i, (parent, layer, name, t0, t1, info) in enumerate(spans):
            item_of[i] = i if layer == ITEM else (item_of[parent] if parent >= 0 else -1)
            if layer == ITEM:
                continue
            s = t1 - t0 - child[i]
            calls[layer] += 1
            calls[layer, name] += 1
            self_s[layer] += s
            self_s[layer, name] += s
            if info is not None and layer == "einsum":
                einsum_keys[info] += 1
            elif info is not None:
                patterns[info] += 1
            if layer == "network" and name in ("forward_apply", "backward_apply"):
                n = order[item_of[i], name]
                order[item_of[i], name] += 1
                d = n % depth
                if name == "backward_apply":
                    d = depth - 1 - d
                depth_s[d, name] += t1 - t0

        flops, largest = 0, 0
        for (spec, shapes, optimize), n in einsum_keys.items():
            f, big = einsum_cost(spec, shapes, optimize)
            flops += n * f
            largest = max(largest, big)
        entries = ones = 0
        for (alpha, beta, stride, padding), n in patterns.items():
            alpha_prime = (alpha + 2 * padding - beta) // stride + 1
            entries += n * alpha * alpha_prime * beta
            ones += n * sum(
                1
                for jp in range(alpha_prime)
                for k in range(beta)
                if 0 <= stride * jp + k - padding < alpha
            )

        n_einsum = calls["einsum", "einsum"]
        per = {
            "einsum.flops": flops / items,
            "einsum.max_intermediate": largest,
            "einsum.calls": n_einsum / items,
            "einsum.self_s": self_s["einsum"] / items,
            "einsum.path_s": self_s["einsum", "einsum_path"] / items,
            "einsum.distinct_ratio": len(einsum_keys) / n_einsum if n_einsum else 0.0,
            "tensor.pattern.calls": calls["tensor", "build_dummy"] / items,
            "tensor.pattern_bytes": 8 * entries / items,
            "tensor.pattern_density": ones / entries if entries else 0.0,
            "tensor.dense_tensor.count": calls["tensor", "dense_tensor"] / items,
            "formats.edges_of.calls": calls["formats", "edges_of"] / items,
        }
        for layer in LAYERS:
            per[f"{layer}.calls"] = calls[layer] / items
            per[f"{layer}.self_s"] = self_s[layer] / items
        for layer, name in (
            ("tensor", "multi_contract"),
            ("network", "forward_apply"),
            ("network", "backward_apply"),
            ("network", "contraction_map"),
            ("network", "materialize"),
        ):
            per[f"{layer}.{name}.calls"] = calls[layer, name] / items
            per[f"{layer}.{name}.self_s"] = self_s[layer, name] / items
        for d in range(DEPTHS):
            per[f"depth.{d}.forward_s"] = depth_s[d, "forward_apply"] / items
            per[f"depth.{d}.backward_s"] = depth_s[d, "backward_apply"] / items
        return {k: v for k, v in per.items() if k in PER_LAYER}


def einsum_cost(spec: str, shapes, optimize) -> tuple[int, int]:
    """FLOPs and largest intermediate (elements) along numpy's chosen path.

    The path comes from the unwrapped ``einsum_path`` on zero-stride
    stand-ins; each step is costed the way ``einsum_path`` reports it.
    """
    operands = [np.broadcast_to(0.0, s) for s in shapes]
    path, _ = _ORIGINAL_EINSUM_PATH(spec, *operands, optimize=optimize)
    inputs, output = spec.split("->")
    terms = [set(t) for t in inputs.split(",")]
    size = {}
    for term, shape in zip(inputs.split(","), shapes):
        size.update(zip(term, shape))
    flops, largest = 0, 0
    for step in path[1:]:
        picked = [terms[i] for i in step]
        for i in sorted(step, reverse=True):
            del terms[i]
        involved = set().union(*picked)
        keep = involved & (set(output).union(*terms))
        factor = max(1, len(picked) - 1) + (1 if involved - keep else 0)
        flops += math.prod(size[c] for c in involved) * factor
        largest = max(largest, math.prod(size[c] for c in keep))
        terms.append(keep)
    return flops, largest

