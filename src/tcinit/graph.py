"""Backbone graphs and initialization variance calculus.

A backbone graph keeps only the contracted edges among the traced vertex
(the input for fan-in, the output gradient for fan-out) and the weight
vertices; each adjacency entry is the total contracted dimension between a
vertex pair (parallel edges merged by multiplying dims, 1 meaning no edge).
The product of all off-diagonal entries, together with the per-vertex weight
variances, the layer multiplicity phi and the activation scale p_a, gives
the linear output/input variance ratio; forcing that ratio to 1 with equal
per-vertex variances yields the graph initialization.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass

from .errors import InvalidParams
from .formats import (
    INPUT_CHANNEL,
    KERNEL,
    OUTPUT_CHANNEL,
    LayerFormat,
)
from .tensor import ACTIVATION_SCALE, _check_integers
from .transform import build_backward_format

FAN_IN = "fan-in"
FAN_OUT = "fan-out"

# The side each graph mode traces: the input, or the output gradient.
GRAPH_SIDES = {"graph-in": FAN_IN, "graph-out": FAN_OUT}
GRAPH_MODES = tuple(GRAPH_SIDES)

# The dense baselines' one variance for every weight vertex, from the total
# window size k2 and the input and output channel products.
DENSE_BASELINES = {
    "xavier-in": lambda k2, c_in, c_out: 1 / (k2 * c_in),
    "xavier-out": lambda k2, c_in, c_out: 1 / (k2 * c_out),
    "xavier-harmonic": lambda k2, c_in, c_out: 2 / (k2 * (c_in + c_out)),
    "kaiming-in": lambda k2, c_in, c_out: 2 / (k2 * c_in),
    "kaiming-out": lambda k2, c_in, c_out: 2 / (k2 * c_out),
}
BASELINE_MODES = (*DENSE_BASELINES, "xavier-vertex")
PLAN_MODES = GRAPH_MODES + BASELINE_MODES


@dataclass(frozen=True)
class BackboneGraph:
    """Symmetric integer adjacency of contracted dims.

    Index 0 is the traced (input-role) vertex; indices 1..tau-1 are the
    weight vertices in ``vertex_ids`` order.  Diagonal entries are 1 and an
    off-diagonal 1 encodes "no edge".
    """

    vertex_ids: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def tau(self) -> int:
        return len(self.vertex_ids)

    @property
    def weight_count(self) -> int:
        return self.tau - 1


def extract_bg(f: LayerFormat, mode: str) -> BackboneGraph:
    """Reduce a layer format to its backbone graph.

    ``mode`` is ``"fan-in"`` (trace the input) or ``"fan-out"`` (trace the
    output gradient through the backward rewrite).  Kernel windows collapse
    to plain edges of dim beta between the traced vertex and their weight;
    channel edges on the non-traced side are dropped; parallel edges between
    the same vertex pair merge by multiplying dims.  Edges joining more than
    two vertices contribute their dim once, recorded on the first pair.
    """
    if mode == FAN_IN:
        g = f
    elif mode == FAN_OUT:
        g = build_backward_format(f)
    else:
        raise InvalidParams(f"unknown backbone mode {mode!r}")

    xid = g.input_vertex.id
    ids = (xid,) + g.weight_ids
    index = {vid: i for i, vid in enumerate(ids)}
    adj = [[1] * len(ids) for _ in ids]

    for e in g.edges:
        if e.kind == OUTPUT_CHANNEL:
            continue
        if e.kind == KERNEL:
            weight = next(p for p in e.endpoints if p != xid)
            pair = (index[xid], index[weight])
        else:
            # INPUT_CHANNEL or RANK; record on the first endpoint pair.
            a, b = e.endpoints[0], e.endpoints[1]
            pair = (index[a], index[b])
        i, j = sorted(pair)
        adj[i][j] *= e.dim
        adj[j][i] = adj[i][j]

    return BackboneGraph(ids, tuple(tuple(row) for row in adj))


def edge_product(bg: BackboneGraph) -> int:
    """Product of the upper-triangle adjacency entries (exact integer)."""
    prod = 1
    for i in range(bg.tau):
        for j in range(i + 1, bg.tau):
            prod *= bg.adjacency[i][j]
    return prod


def _float(n) -> float:
    """``n`` as a float, or inf when it is past the float range."""
    return float(n) if n <= sys.float_info.max else math.inf


def _scaled_power(scale: float, factors, edge_prod: int, power: float) -> float:
    """``(scale * edge_prod) ** power``, ``scale`` being the caller's plain
    product of ``factors`` (with ``_float`` of an integer factor).

    Where that product is not a finite float (an exact ``edge_prod`` beyond
    the float range, or factors that overflow or underflow on the way), the
    power is taken in log space over ``factors`` and ``edge_prod``.
    """
    base = scale * _float(edge_prod)
    if math.isfinite(base):
        return base ** power
    if not all(factors):
        return 0.0
    log = math.fsum(math.log(v) for v in factors) + math.log(edge_prod)
    try:
        return math.exp(power * log)
    except OverflowError:
        return math.inf


def predicted_output_variance(
    bg: BackboneGraph,
    input_var: float,
    vertex_vars,
    p_a: float,
    phi: int,
) -> float:
    """Linear-output variance: p_a * phi * var(x) * prod(var(w)) * prod(e)."""
    vertex_vars = list(vertex_vars)
    scale = p_a * _float(phi) * input_var * math.prod(vertex_vars, start=1.0)
    return _scaled_power(scale, [p_a, phi, input_var, *vertex_vars], edge_product(bg), 1.0)


def graph_init_variance(bg: BackboneGraph, n: int, p_a: float, phi: int) -> float:
    """Equal per-vertex variance making the linear variance ratio exactly 1.

    ``n`` must equal the number of weight vertices in the graph; the result
    is ``(p_a * phi * prod(e)) ** (-1/n)``.  Raises
    :class:`~tcinit.errors.InvalidParams` unless ``p_a`` is a finite real > 0
    and ``phi`` an integer >= 1.
    """
    _check_integers(InvalidParams, n=n, phi=phi)
    if n < 1 or n != bg.weight_count:
        raise InvalidParams(
            f"n = {n} does not match the graph's {bg.weight_count} weight vertices"
        )
    if not isinstance(p_a, numbers.Real) or not 0 < p_a <= sys.float_info.max:
        raise InvalidParams(f"p_a must be a finite real > 0, got {p_a!r}")
    if phi < 1:
        raise InvalidParams(f"phi must be >= 1, got {phi}")
    return _scaled_power(p_a * _float(phi), [p_a, phi], edge_product(bg), -1.0 / n)


def _channel_products(f: LayerFormat) -> tuple[int, int, int]:
    k2 = math.prod(e.dim for e in f.edges_of_kind(KERNEL))
    c_in = math.prod(e.dim for e in f.edges_of_kind(INPUT_CHANNEL))
    c_out = math.prod(e.dim for e in f.edges_of_kind(OUTPUT_CHANNEL))
    return k2, c_in, c_out


def baseline_variance(f: LayerFormat, mode: str) -> dict[str, float]:
    """Per-vertex variances of the classical initializations.

    The fan-in/fan-out modes treat the whole factorized kernel as one dense
    kernel (total window size times total input or output channels); the
    per-vertex mode gives each weight vertex 1/fan with fan the product of
    all its incident edge dims except the last declared one, emulating
    framework-default initialization of each factor in isolation.
    """
    if mode in DENSE_BASELINES:
        value = DENSE_BASELINES[mode](*_channel_products(f))
        return {vid: value for vid in f.weight_ids}
    if mode not in BASELINE_MODES:
        raise InvalidParams(f"unknown baseline mode {mode!r}")
    # xavier-vertex, the one baseline that is not dense.
    out = {}
    for vid in f.weight_ids:
        dims = f.weight_mode_dims(vid)
        fan = math.prod(dims[:-1]) if len(dims) > 1 else 1
        out[vid] = 1 / fan
    return out


@dataclass(frozen=True)
class InitPlan:
    """Per-weight-vertex variance assignment plus sampling metadata."""

    mode: str
    p_a: float
    phi: int
    variances: dict[str, float]
    distribution: str = "normal"

    def __post_init__(self):
        if self.distribution not in ("normal", "uniform"):
            raise InvalidParams(f"unknown distribution {self.distribution!r}")
        if not all(math.isfinite(v) for v in self.variances.values()):
            raise InvalidParams("variances must be finite")
        if any(v < 0 for v in self.variances.values()):
            raise InvalidParams("variances must be nonnegative")


def make_plan(
    f: LayerFormat,
    mode: str,
    activation: str = "tanh",
    distribution: str = "normal",
) -> InitPlan:
    """Build an initialization plan for every weight vertex of ``f``."""
    if activation not in ACTIVATION_SCALE:
        raise InvalidParams(f"unknown activation {activation!r}")
    p_a = ACTIVATION_SCALE[activation]
    if mode in GRAPH_SIDES:
        bg = extract_bg(f, GRAPH_SIDES[mode])
        sigma2 = graph_init_variance(bg, bg.weight_count, p_a, f.phi)
        variances = {vid: sigma2 for vid in f.weight_ids}
    elif mode in BASELINE_MODES:
        variances = baseline_variance(f, mode)
    else:
        raise InvalidParams(f"unknown plan mode {mode!r}")
    return InitPlan(mode, p_a, f.phi, variances, distribution)


def backbone_report(bg: BackboneGraph) -> dict:
    """JSON-ready encoding of a backbone graph: its vertices, adjacency rows
    and edge product."""
    return {
        "vertices": list(bg.vertex_ids),
        "adjacency": [list(row) for row in bg.adjacency],
        "edge_product": edge_product(bg),
    }


def plan_report(f: LayerFormat, plan: InitPlan) -> dict:
    """JSON-ready summary of a plan and the backbone graph it derives from."""
    side = GRAPH_SIDES.get(plan.mode, FAN_IN)
    bg = extract_bg(f, side)
    return {
        "mode": plan.mode,
        "p_a": plan.p_a,
        "phi": plan.phi,
        "distribution": plan.distribution,
        "variances": dict(sorted(plan.variances.items())),
        "backbone": {"side": side, **backbone_report(bg)},
    }


def plan_report_json(f: LayerFormat, plan: InitPlan) -> str:
    return json.dumps(plan_report(f, plan), sort_keys=True, indent=2) + "\n"
