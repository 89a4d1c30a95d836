"""Hypergraph description of one tensorized layer.

A :class:`LayerFormat` holds the single input vertex, the weight vertices,
and typed edges: ``input-channel`` and ``output-channel`` edges carry channel
dimensions, ``rank`` edges join weight vertices, and ``kernel`` edges attach
a convolution window (:class:`~tcinit.tensor.DummySpec`) between the input's
spatial mode and exactly one weight vertex.  ``phi`` is the hyperedge
multiplicity: the layer output is the sum of ``phi`` independent,
identically shaped sub-structures.

Mode order convention: the modes of a weight tensor follow the declaration
order of its incident edges.  The input and output tensors put channels
first, then spatial: their channel edges in declaration order, then one
spatial mode per kernel edge in declaration order (see
:meth:`LayerFormat.input_mode_dims` and :meth:`LayerFormat.output_mode_dims`).
Parsing and serialization preserve declaration order, so the convention
survives a round trip.

Text grammar (one directive per line, ``#`` starts a comment)::

    phi <int>
    vertex <id> input|weight
    edge <id> input-channel <dim> <vertex> [<vertex> ...]
    edge <id> output-channel <dim> <vertex> [<vertex> ...]
    edge <id> rank <dim> <vertex> <vertex> [<vertex> ...]
    edge <id> kernel <beta> <weight-vertex> alpha <int> stride <int> pad <int>

Vertices must be declared before the edges that use them.  Kernel edges name
only their weight vertex; the input vertex endpoint is implicit, and ``pad``
is at most ``beta - 1`` so that the backward pass is defined.  Unknown
directives or kernel attributes are parse errors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParams, ParseError, ValidationError
from .tensor import DummySpec

INPUT = "input"
WEIGHT = "weight"

INPUT_CHANNEL = "input-channel"
OUTPUT_CHANNEL = "output-channel"
RANK = "rank"
KERNEL = "kernel"

_EDGE_KINDS = (INPUT_CHANNEL, OUTPUT_CHANNEL, RANK, KERNEL)


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str  # INPUT or WEIGHT


@dataclass(frozen=True)
class HyperEdge:
    """One typed edge.  ``window`` is set only for kernel edges."""

    id: str
    kind: str
    dim: int
    endpoints: tuple[str, ...]
    window: object = None  # DummySpec (forward) or BackwardDummySpec

    def touches(self, vid: str) -> bool:
        return vid in self.endpoints


@dataclass(frozen=True)
class LayerFormat:
    vertices: tuple[Vertex, ...]
    edges: tuple[HyperEdge, ...]
    phi: int = 1

    # -- structure queries ------------------------------------------------

    @property
    def input_vertex(self) -> Vertex:
        for v in self.vertices:
            if v.kind == INPUT:
                return v
        raise ValidationError("format has no input vertex")

    @property
    def weight_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.kind == WEIGHT)

    def edges_of(self, vid: str) -> tuple[HyperEdge, ...]:
        return tuple(e for e in self.edges if e.touches(vid))

    def edges_of_kind(self, kind: str) -> tuple[HyperEdge, ...]:
        return tuple(e for e in self.edges if e.kind == kind)

    @property
    def kernel_edges(self) -> tuple[HyperEdge, ...]:
        return self.edges_of_kind(KERNEL)

    @property
    def spatial(self) -> tuple[str, ...]:
        """Ids of the kernel-window edges (0 for linear, 1/2 for 1D/2D conv)."""
        return tuple(e.id for e in self.kernel_edges)

    @property
    def in_channel_dims(self) -> tuple[int, ...]:
        return tuple(e.dim for e in self.edges_of_kind(INPUT_CHANNEL))

    @property
    def out_channel_dims(self) -> tuple[int, ...]:
        return tuple(e.dim for e in self.edges_of_kind(OUTPUT_CHANNEL))

    def weight_mode_dims(self, vid: str) -> tuple[int, ...]:
        """Mode sizes of a weight vertex, in incident-edge declaration order."""
        return tuple(e.dim for e in self.edges_of(vid))

    def input_mode_dims(self) -> tuple[int, ...]:
        """Input channel dims then the input spatial length per window.

        Channels and windows each keep their declaration order, wherever the
        kernel edges sit among the input-channel edges; a kernel edge
        contributes its spatial input length ``alpha``, not the window size.
        """
        return self.in_channel_dims + tuple(e.window.alpha for e in self.kernel_edges)

    def output_mode_dims(self) -> tuple[int, ...]:
        """Output channel dims then the output spatial length per window."""
        dims = [e.dim for e in self.edges_of_kind(OUTPUT_CHANNEL)]
        dims.extend(e.window.alpha_prime for e in self.kernel_edges)
        return tuple(dims)


# -- validation -----------------------------------------------------------


def _padding_problem(eid: str, window) -> str:
    return (
        f"kernel edge {eid!r} padding {window.padding} exceeds beta-1 = "
        f"{window.beta - 1}; its backward pass is undefined"
    )


def validate(f: LayerFormat) -> None:
    """Raise :class:`ValidationError` listing every violated invariant."""
    problems: list[str] = []

    ids = [v.id for v in f.vertices]
    if len(set(ids)) != len(ids):
        problems.append("vertex ids are not unique")
    inputs = [v for v in f.vertices if v.kind == INPUT]
    if len(inputs) != 1:
        problems.append(f"expected exactly one input vertex, found {len(inputs)}")
    for v in f.vertices:
        if v.kind not in (INPUT, WEIGHT):
            problems.append(f"vertex {v.id!r} has unknown kind {v.kind!r}")
    xid = inputs[0].id if len(inputs) == 1 else None

    eids = [e.id for e in f.edges]
    if len(set(eids)) != len(eids):
        problems.append("edge ids are not unique")

    known = set(ids)
    for e in f.edges:
        if e.kind not in _EDGE_KINDS:
            problems.append(f"edge {e.id!r} has unknown kind {e.kind!r}")
            continue
        if e.dim < 1:
            problems.append(f"edge {e.id!r} has non-positive dim {e.dim}")
        if not e.endpoints:
            problems.append(f"edge {e.id!r} has no endpoints")
        if len(set(e.endpoints)) != len(e.endpoints):
            problems.append(f"edge {e.id!r} repeats an endpoint")
        missing = [p for p in e.endpoints if p not in known]
        if missing:
            problems.append(f"edge {e.id!r} references unknown vertices {missing}")
            continue
        weights = [p for p in e.endpoints if p != xid]
        if e.kind == INPUT_CHANNEL:
            if xid not in e.endpoints:
                problems.append(f"input-channel edge {e.id!r} misses the input vertex")
            if not weights:
                problems.append(f"input-channel edge {e.id!r} touches no weight vertex")
        elif e.kind == OUTPUT_CHANNEL:
            if xid in e.endpoints:
                problems.append(f"output-channel edge {e.id!r} includes the input vertex")
            if not weights:
                problems.append(f"output-channel edge {e.id!r} touches no weight vertex")
        elif e.kind == RANK:
            if xid in e.endpoints:
                problems.append(f"rank edge {e.id!r} includes the input vertex")
            if len(weights) < 2:
                problems.append(
                    f"rank edge {e.id!r} needs at least two weight endpoints "
                    "(a single endpoint would leave an open weight mode)"
                )
        elif e.kind == KERNEL:
            if e.window is None:
                problems.append(f"kernel edge {e.id!r} carries no window spec")
            elif e.dim != e.window.beta:
                problems.append(
                    f"kernel edge {e.id!r} dim {e.dim} != window beta {e.window.beta}"
                )
            elif e.window.padding > e.window.beta - 1:
                problems.append(_padding_problem(e.id, e.window))
            if xid not in e.endpoints or len(weights) != 1:
                problems.append(
                    f"kernel edge {e.id!r} must join the input vertex to exactly "
                    "one weight vertex"
                )

    if not f.edges_of_kind(INPUT_CHANNEL):
        problems.append("format has no input-channel edge")
    if not f.edges_of_kind(OUTPUT_CHANNEL):
        problems.append("format has no output-channel edge")
    if not isinstance(f.phi, int) or f.phi < 1:
        problems.append(f"phi must be an integer >= 1, got {f.phi!r}")

    for v in f.vertices:
        if v.kind == WEIGHT and not f.edges_of(v.id):
            problems.append(f"weight vertex {v.id!r} touches no edge")

    if problems:
        raise ValidationError(problems)


# -- text format ----------------------------------------------------------


def serialize_format(f: LayerFormat) -> str:
    lines = [f"phi {f.phi}"]
    for v in f.vertices:
        lines.append(f"vertex {v.id} {v.kind}")
    for e in f.edges:
        if e.kind == KERNEL:
            w = e.window
            weight = next(p for p in e.endpoints if p != f.input_vertex.id)
            lines.append(
                f"edge {e.id} kernel {e.dim} {weight} "
                f"alpha {w.alpha} stride {w.stride} pad {w.padding}"
            )
        else:
            lines.append(
                f"edge {e.id} {e.kind} {e.dim} " + " ".join(e.endpoints)
            )
    return "\n".join(lines) + "\n"


def parse_format(text: str) -> LayerFormat:
    """Parse the text grammar; raises :class:`ParseError` with line/column."""
    vertices: list[Vertex] = []
    edges: list[HyperEdge] = []
    phi: int | None = None
    input_id: str | None = None
    seen = {}

    def fail(msg, lineno, col):
        raise ParseError(msg, lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        cols = []
        pos = 0
        for tok in tokens:
            pos = line.index(tok, pos)
            cols.append(pos + 1)
            pos += len(tok)

        def expect_int(i, what):
            if i >= len(tokens):
                fail(f"missing {what}", lineno, len(line) + 1)
            try:
                return int(tokens[i])
            except ValueError:
                fail(f"{what} must be an integer, got {tokens[i]!r}", lineno, cols[i])

        head = tokens[0]
        if head == "phi":
            if len(tokens) != 2:
                fail("phi takes exactly one value", lineno, cols[0])
            phi = expect_int(1, "phi")
        elif head == "vertex":
            if len(tokens) != 3:
                fail("vertex takes an id and a kind", lineno, cols[0])
            vid, kind = tokens[1], tokens[2]
            if kind not in (INPUT, WEIGHT):
                fail(f"unknown vertex kind {kind!r}", lineno, cols[2])
            vertices.append(Vertex(vid, kind))
            seen[vid] = kind
            if kind == INPUT:
                input_id = vid
        elif head == "edge":
            if len(tokens) < 4:
                fail("edge takes an id, a kind and a dim", lineno, cols[0])
            eid, kind = tokens[1], tokens[2]
            if kind == KERNEL:
                beta = expect_int(3, "kernel window size")
                if len(tokens) != 11:
                    fail(
                        "kernel edge needs: <beta> <weight> alpha <a> stride <s> pad <p>",
                        lineno,
                        cols[2],
                    )
                weight = tokens[4]
                attrs, attr_cols = {}, {}
                for i in (5, 7, 9):
                    key = tokens[i]
                    if key not in ("alpha", "stride", "pad") or key in attrs:
                        fail(f"unknown or repeated kernel attribute {key!r}", lineno, cols[i])
                    attrs[key] = expect_int(i + 1, key)
                    attr_cols[key] = cols[i + 1]
                if input_id is None:
                    fail("kernel edge declared before the input vertex", lineno, cols[0])
                if weight not in seen:
                    fail(f"unknown vertex {weight!r}", lineno, cols[4])
                try:
                    window = DummySpec(
                        alpha=attrs["alpha"],
                        beta=beta,
                        stride=attrs["stride"],
                        padding=attrs["pad"],
                    )
                except Exception as exc:
                    fail(str(exc), lineno, cols[3])
                if window.padding > window.beta - 1:
                    fail(_padding_problem(eid, window), lineno, attr_cols["pad"])
                edges.append(
                    HyperEdge(eid, KERNEL, beta, (input_id, weight), window)
                )
            elif kind in (INPUT_CHANNEL, OUTPUT_CHANNEL, RANK):
                dim = expect_int(3, "edge dim")
                endpoints = tokens[4:]
                if not endpoints:
                    fail("edge lists no endpoints", lineno, len(line) + 1)
                for i, p in enumerate(endpoints):
                    if p not in seen:
                        fail(f"unknown vertex {p!r}", lineno, cols[4 + i])
                edges.append(HyperEdge(eid, kind, dim, tuple(endpoints)))
            else:
                fail(f"unknown edge kind {kind!r}", lineno, cols[2])
        else:
            fail(f"unknown directive {head!r}", lineno, cols[0])

    fmt = LayerFormat(tuple(vertices), tuple(edges), phi if phi is not None else 1)
    validate(fmt)
    return fmt


# -- builtin formats ------------------------------------------------------


def _windows(weight: str, k: int, spatial: int, alpha, stride, padding, input_id="x"):
    if spatial == 0:
        return []
    alphas = alpha if isinstance(alpha, (tuple, list)) else (alpha,) * spatial
    if len(alphas) != spatial:
        raise InvalidParams(f"alpha must give {spatial} spatial lengths")
    return [
        HyperEdge(
            f"k{i}",
            KERNEL,
            k,
            (input_id, weight),
            DummySpec(alpha=alphas[i], beta=k, stride=stride, padding=padding),
        )
        for i in range(spatial)
    ]


# Fixed stand-in topology for the 9-vertex, 14-rank-edge "odd" format: the
# original construction is not recoverable here, so we use a connected
# irregular layout with the same vertex and rank-edge counts.
_ODD_RANK_PAIRS = (
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
    (3, 5), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (6, 8),
)


def builtin_format(name: str, **params) -> LayerFormat:
    """Construct a named layer topology.

    Names: ``standard``, ``lowrank``, ``tucker2``, ``htk2`` (tucker2 with
    phi defaulting to 4), ``cp``, ``tt``, ``tr``, ``oddlike``.

    Common parameters: ``c_in``/``c_out`` (or ``i_dims``/``o_dims`` tuples
    for tt/tr/oddlike), ``rank`` (or ``r0``/``r1`` for tucker2), ``k``,
    ``spatial`` (0 linear, 1 or 2 conv; default 2 when ``k`` is given, else
    0), ``alpha``, ``stride``, ``padding``, ``phi``.
    """
    name = name.lower()
    phi = int(params.pop("phi", 4 if name == "htk2" else 1))
    k = int(params.pop("k", 0))
    spatial = int(params.pop("spatial", 2 if k else 0))
    if spatial and not k:
        raise InvalidParams("spatial > 0 requires a kernel size k")
    alpha = params.pop("alpha", 8)
    stride = int(params.pop("stride", 1))
    padding = int(params.pop("padding", 0))

    def take(key, default=None):
        if key in params:
            return params.pop(key)
        if default is None:
            raise InvalidParams(f"builtin {name!r} requires parameter {key!r}")
        return default

    x = Vertex("x", INPUT)

    def dims_tuple(val):
        return tuple(int(d) for d in (val if isinstance(val, (tuple, list)) else (val,)))

    def bond_ranks(cores: int, bonds: int):
        """``ranks`` (one per bond, or one for all) or else ``rank``; when
        both are given ``rank`` is left over and rejected as unused."""
        ranks = dims_tuple(take("ranks") if "ranks" in params else take("rank"))
        if len(ranks) == 1:
            ranks = ranks * bonds
        if len(ranks) != bonds:
            raise InvalidParams(f"{name} with {cores} cores needs {bonds} ranks")
        return ranks

    if name == "standard":
        c_in, c_out = int(take("c_in")), int(take("c_out"))
        v = [x, Vertex("w", WEIGHT)]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w")),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w",)),
            *_windows("w", k, spatial, alpha, stride, padding),
        ]
    elif name == "lowrank":
        c_in, c_out, r = int(take("c_in")), int(take("c_out")), int(take("rank"))
        v = [x, Vertex("w0", WEIGHT), Vertex("w1", WEIGHT)]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w0")),
            HyperEdge("r0", RANK, r, ("w0", "w1")),
            *_windows("w1", k, spatial, alpha, stride, padding),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w1",)),
        ]
    elif name in ("tucker2", "htk2"):
        c_in, c_out = int(take("c_in")), int(take("c_out"))
        r = params.pop("rank", None)
        r0 = int(params.pop("r0", r if r is not None else 0)) or int(take("r0"))
        r1 = int(params.pop("r1", r if r is not None else 0)) or int(take("r1"))
        v = [x, Vertex("w0", WEIGHT), Vertex("w1", WEIGHT), Vertex("w2", WEIGHT)]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w0")),
            HyperEdge("r0", RANK, r0, ("w0", "w1")),
            *_windows("w1", k, spatial, alpha, stride, padding),
            HyperEdge("r1", RANK, r1, ("w1", "w2")),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w2",)),
        ]
    elif name == "cp":
        c_in, c_out, r = int(take("c_in")), int(take("c_out")), int(take("rank"))
        v = [x, Vertex("w_in", WEIGHT)]
        e = [HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w_in"))]
        shared = ["w_in"]
        for i in range(spatial):
            wid = f"w_k{i}"
            v.append(Vertex(wid, WEIGHT))
            e.extend(_windows(wid, k, 1, (dims_tuple(alpha) * spatial)[i], stride, padding))
            e[-1] = replace(e[-1], id=f"k{i}")
            shared.append(wid)
        v.append(Vertex("w_out", WEIGHT))
        shared.append("w_out")
        e.append(HyperEdge("r", RANK, r, tuple(shared)))
        e.append(HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w_out",)))
    elif name == "tt":
        i_dims = dims_tuple(take("i_dims"))
        o_dims = dims_tuple(take("o_dims"))
        if len(i_dims) != len(o_dims):
            raise InvalidParams("tt needs equally many input and output dims")
        m = len(i_dims)
        ranks = bond_ranks(m, m - 1)
        v = [x] + [Vertex(f"w{j}", WEIGHT) for j in range(m)]
        e = []
        for j in range(m):
            e.append(HyperEdge(f"i{j}", INPUT_CHANNEL, i_dims[j], ("x", f"w{j}")))
        e.extend(_windows("w0", k, spatial, alpha, stride, padding))
        for j in range(m - 1):
            e.append(HyperEdge(f"r{j}", RANK, ranks[j], (f"w{j}", f"w{j + 1}")))
        for j in range(m):
            e.append(HyperEdge(f"o{j}", OUTPUT_CHANNEL, o_dims[j], (f"w{j}",)))
    elif name == "tr":
        i_dims = dims_tuple(take("i_dims"))
        o_dims = dims_tuple(take("o_dims"))
        cores = len(i_dims) + len(o_dims) + (1 if spatial else 0)
        ranks = bond_ranks(cores, cores)
        names = [f"wi{j}" for j in range(len(i_dims))]
        if spatial:
            names.append("wk")
        names += [f"wo{j}" for j in range(len(o_dims))]
        v = [x] + [Vertex(n, WEIGHT) for n in names]
        e = []
        for j, d in enumerate(i_dims):
            e.append(HyperEdge(f"i{j}", INPUT_CHANNEL, d, ("x", f"wi{j}")))
        if spatial:
            e.extend(_windows("wk", k, spatial, alpha, stride, padding))
        for j in range(cores):
            e.append(
                HyperEdge(f"r{j}", RANK, ranks[j], (names[j], names[(j + 1) % cores]))
            )
        for j, d in enumerate(o_dims):
            e.append(HyperEdge(f"o{j}", OUTPUT_CHANNEL, d, (f"wo{j}",)))
    elif name == "oddlike":
        i_dims = dims_tuple(take("i_dims"))
        o_dims = dims_tuple(take("o_dims"))
        if len(i_dims) != 2 or len(o_dims) != 2:
            raise InvalidParams("oddlike uses exactly two input and two output dims")
        r = int(take("rank"))
        v = [x] + [Vertex(f"w{j}", WEIGHT) for j in range(9)]
        e = [
            HyperEdge("i0", INPUT_CHANNEL, i_dims[0], ("x", "w0")),
            HyperEdge("i1", INPUT_CHANNEL, i_dims[1], ("x", "w1")),
        ]
        e.extend(_windows("w4", k, spatial, alpha, stride, padding))
        for n, (a, b) in enumerate(_ODD_RANK_PAIRS):
            e.append(HyperEdge(f"r{n}", RANK, r, (f"w{a}", f"w{b}")))
        e.append(HyperEdge("o0", OUTPUT_CHANNEL, o_dims[0], ("w7",)))
        e.append(HyperEdge("o1", OUTPUT_CHANNEL, o_dims[1], ("w8",)))
    else:
        raise InvalidParams(f"unknown builtin format {name!r}")

    if params:
        raise InvalidParams(f"unused parameters for {name!r}: {sorted(params)}")
    fmt = LayerFormat(tuple(v), tuple(e), phi)
    validate(fmt)
    return fmt


BUILTIN_NAMES = ("standard", "lowrank", "tucker2", "htk2", "cp", "tt", "tr", "oddlike")


# -- random generator ------------------------------------------------------


@dataclass(frozen=True)
class RandomFormatConstraints:
    in_dim_range: tuple[int, int] = (2, 8)
    out_dim_range: tuple[int, int] = (2, 8)
    rank_dim_range: tuple[int, int] = (2, 6)
    max_rank_edges: int = 6
    phi: int = 1


def random_format(
    seed: int, constraints: RandomFormatConstraints = RandomFormatConstraints()
) -> LayerFormat:
    """Generate a random valid linear layer format, deterministic per seed.

    Draws 4-8 weight vertices, 2-3 input-channel and 2-3 output-channel
    edges, and a random number of rank edges; any vertex left without an
    edge is attached with an extra rank edge.
    """
    rng = np.random.default_rng(seed)

    def draw(lo_hi):
        return int(rng.integers(lo_hi[0], lo_hi[1] + 1))

    while True:
        n_w = int(rng.integers(4, 9))
        weights = [f"w{j}" for j in range(n_w)]
        edges: list[HyperEdge] = []
        for j in range(int(rng.integers(2, 4))):
            tgt = weights[int(rng.integers(n_w))]
            edges.append(
                HyperEdge(f"i{j}", INPUT_CHANNEL, draw(constraints.in_dim_range), ("x", tgt))
            )
        for j in range(int(rng.integers(2, 4))):
            tgt = weights[int(rng.integers(n_w))]
            edges.append(
                HyperEdge(f"o{j}", OUTPUT_CHANNEL, draw(constraints.out_dim_range), (tgt,))
            )
        n_r = int(rng.integers(0, constraints.max_rank_edges + 1))
        ridx = 0
        for _ in range(n_r):
            a, b = rng.choice(n_w, size=2, replace=False)
            edges.append(
                HyperEdge(
                    f"r{ridx}",
                    RANK,
                    draw(constraints.rank_dim_range),
                    (weights[int(a)], weights[int(b)]),
                )
            )
            ridx += 1
        touched = {p for e in edges for p in e.endpoints}
        for j, w in enumerate(weights):
            if w not in touched:
                other = weights[(j + 1 + int(rng.integers(n_w - 1))) % n_w]
                edges.append(
                    HyperEdge(
                        f"r{ridx}", RANK, draw(constraints.rank_dim_range), (w, other)
                    )
                )
                ridx += 1
        fmt = LayerFormat(
            tuple([Vertex("x", INPUT)] + [Vertex(w, WEIGHT) for w in weights]),
            tuple(edges),
            constraints.phi,
        )
        try:
            validate(fmt)
        except ValidationError:
            continue
        return fmt
