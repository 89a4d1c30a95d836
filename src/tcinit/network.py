"""Turn a layer format plus an initialization plan into executable tensors.

A materialized layer holds ``phi`` independent replicas of the weight
vertices (the layer output is their sum) and the forward convolution index
patterns.  Both directions run through one contraction engine, which wires a
format with :func:`contraction_map` and contracts each replica in one einsum.
The backward pass is the forward pass of ``build_backward_format(f)``: the
output gradient is its input, its kernel patterns are ``P' x T`` and the
weights are flipped along their kernel-window axes, which supplies the ``R``
factor of the backward identity.

Axis conventions (all carry a leading batch axis):

* layer input  — incident edges of the input vertex, declaration order
  (kernel edges contribute their input spatial length);
* layer output — output-channel edges in declaration order, then one output
  spatial axis per kernel edge in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanIncomplete, ShapeMismatch
from .formats import (
    INPUT_CHANNEL,
    KERNEL,
    OUTPUT_CHANNEL,
    RANK,
    LayerFormat,
)
from .graph import InitPlan
from .tensor import DenseTensor, _einsum, _einsum_spec, build_dummy
from .transform import backward_pattern, build_backward_format


@dataclass(frozen=True)
class MaterializedLayer:
    format: LayerFormat
    plan: InitPlan
    replicas: tuple[dict[str, DenseTensor], ...]
    dummies: dict[str, DenseTensor]


def _sample(rng: np.random.Generator, shape, sigma2: float, distribution: str):
    if distribution == "uniform":
        half = np.sqrt(3.0 * sigma2)
        return rng.uniform(-half, half, size=shape)
    return rng.normal(0.0, np.sqrt(sigma2), size=shape)


def materialize(f: LayerFormat, plan: InitPlan, rng) -> MaterializedLayer:
    """Draw all weight tensors and build the convolution patterns.

    ``rng`` is a seed or a numpy Generator.  Each replica's weight for
    vertex ``v`` has the shape of its incident-edge dims in declaration
    order; entries are i.i.d. zero mean with the planned variance.
    """
    rng = np.random.default_rng(rng)
    missing = [vid for vid in f.weight_ids if vid not in plan.variances]
    if missing:
        raise PlanIncomplete(f"plan assigns no variance to vertices {missing}")
    replicas = []
    for _ in range(f.phi):
        weights = {}
        for vid in f.weight_ids:
            shape = f.weight_mode_dims(vid)
            weights[vid] = DenseTensor.from_array(
                _sample(rng, shape, plan.variances[vid], plan.distribution)
            )
        replicas.append(weights)
    dummies = {e.id: build_dummy(e.window) for e in f.kernel_edges}
    return MaterializedLayer(f, plan, tuple(replicas), dummies)


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


def contraction_map(f: LayerFormat):
    """Summation groups and open indices wiring one replica's forward pass.

    Tensor slots: 0 is the batched input, then the weight vertices in
    declaration order, then one convolution pattern per kernel edge.  The
    input's axes are shifted by one for the batch axis, which is the first
    open index.  Each open index lists every ``(slot, axis)`` it joins: an
    output-channel edge shared by several weight vertices stays one index.
    """
    xid = f.input_vertex.id
    x_axes = {e.id: i for i, e in enumerate(f.edges_of(xid))}
    w_axes = {
        vid: {e.id: i for i, e in enumerate(f.edges_of(vid))}
        for vid in f.weight_ids
    }
    w_slot = {vid: 1 + i for i, vid in enumerate(f.weight_ids)}
    d_slot = {
        e.id: 1 + len(f.weight_ids) + i for i, e in enumerate(f.kernel_edges)
    }

    def weight_axes(e):
        return [(w_slot[p], w_axes[p][e.id]) for p in e.endpoints if p != xid]

    groups = []
    for e in f.edges:
        if e.kind == INPUT_CHANNEL:
            groups.append([(0, 1 + x_axes[e.id])] + weight_axes(e))
        elif e.kind == RANK:
            groups.append(weight_axes(e))
        elif e.kind == KERNEL:
            groups.append([(0, 1 + x_axes[e.id]), (d_slot[e.id], 0)])
            groups.append([(d_slot[e.id], 2)] + weight_axes(e))

    open_axes = [[(0, 0)]]
    open_axes += [weight_axes(e) for e in f.edges_of_kind(OUTPUT_CHANNEL)]
    open_axes += [[(d_slot[e.id], 1)] for e in f.kernel_edges]
    return groups, open_axes


def _contract(f: LayerFormat, x: np.ndarray, replicas, patterns) -> np.ndarray:
    """Sum over replicas of the contraction that ``contraction_map(f)`` wires.

    ``x`` is the batched input in ``f``'s input layout, each replica lists
    its weight arrays in ``f.weight_ids`` order, and ``patterns`` holds one
    index pattern per kernel edge.
    """
    shapes = [x.shape] + [w.shape for w in replicas[0]] + [p.shape for p in patterns]
    spec = _einsum_spec(shapes, *contraction_map(f))
    out = None
    for weights in replicas:
        part = _einsum(spec, [x, *weights, *patterns])
        out = part if out is None else out + part
    return out


def forward_apply(layer: MaterializedLayer, x: DenseTensor) -> DenseTensor:
    """Pre-activation layer output for a batched input.

    ``x`` has shape ``(batch, *input mode dims)``; the result has shape
    ``(batch, *output channel dims, *output spatial dims)`` and sums the
    ``phi`` replica outputs.
    """
    f = layer.format
    expected = f.input_mode_dims()
    if x.shape[1:] != expected:
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} does not match layer input {expected}"
        )
    replicas = [[w[vid].array for vid in f.weight_ids] for w in layer.replicas]
    patterns = [layer.dummies[e.id].array for e in f.kernel_edges]
    return DenseTensor.from_array(_contract(f, x.array, replicas, patterns))


def backward_apply(layer: MaterializedLayer, grad: DenseTensor) -> DenseTensor:
    """Gradient of the layer input given the gradient of the layer output.

    ``grad`` uses the layer-output axis convention.  The backward pass is
    the forward pass of ``build_backward_format(f)``: the gradient, as a
    transposed view, is contracted with the ``P' x T`` patterns and with
    each replica's weights flipped along their kernel-window axes; the
    result is transposed back to the layer-input layout.
    """
    f = layer.format
    expected = f.output_mode_dims()
    if grad.shape[1:] != expected:
        raise ShapeMismatch(
            f"gradient shape {grad.shape[1:]} does not match layer output {expected}"
        )
    bf = build_backward_format(f)
    flips = {
        vid: tuple(i for i, e in enumerate(f.edges_of(vid)) if e.kind == KERNEL)
        for vid in f.weight_ids
    }
    replicas = [
        [np.flip(w[vid].array, axis=flips[vid]) for vid in f.weight_ids]
        for w in layer.replicas
    ]
    patterns = [backward_pattern(e.window).array for e in bf.kernel_edges]
    x = grad.array.transpose(_input_perm(bf))
    out = _contract(bf, x, replicas, patterns)
    return DenseTensor.from_array(out.transpose(_input_perm(f)))
