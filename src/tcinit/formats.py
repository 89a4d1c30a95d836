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

import itertools
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ParseError, ValidationError
from .tensor import DummySpec, _check_integers, _check_seed, _is_integer, _shown

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
        return self.out_channel_dims + tuple(e.window.alpha_prime for e in self.kernel_edges)


# -- validation -----------------------------------------------------------


def _padding_problem(eid: str, window) -> str:
    return (
        f"kernel edge {eid!r} padding {_shown(window.padding, str)} exceeds beta-1 = "
        f"{_shown(window.beta - 1, str)}; its backward pass is undefined"
    )


def _phi_problem(phi) -> str | None:
    """What is wrong with ``phi`` as a layer's multiplicity, or None: it
    must be an integer (see :func:`~tcinit.tensor._is_integer`) >= 1."""
    if not _is_integer(phi) or phi < 1:
        return f"phi must be an integer >= 1, got {_shown(phi)}"
    return None


def _check_phi(phi) -> None:
    """Raise :class:`~tcinit.errors.InvalidParams` with
    :func:`_phi_problem`'s text unless ``phi`` is an integer >= 1."""
    if problem := _phi_problem(phi):
        raise InvalidParams(problem)


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
            problems.append(f"edge {e.id!r} has non-positive dim {_shown(e.dim, str)}")
        if not e.endpoints:
            problems.append(f"edge {e.id!r} has no endpoints")
        if len(set(e.endpoints)) != len(e.endpoints):
            problems.append(f"edge {e.id!r} repeats an endpoint")
        missing = [p for p in e.endpoints if p not in known]
        if missing:
            problems.append(f"edge {e.id!r} references unknown vertices {missing}")
            continue
        weights = [p for p in e.endpoints if p != xid]
        if e.kind == INPUT_CHANNEL and xid not in e.endpoints:
            problems.append(f"input-channel edge {e.id!r} misses the input vertex")
        elif e.kind in (OUTPUT_CHANNEL, RANK) and xid in e.endpoints:
            problems.append(f"{e.kind} edge {e.id!r} includes the input vertex")
        if e.kind in (INPUT_CHANNEL, OUTPUT_CHANNEL) and not weights:
            problems.append(f"{e.kind} edge {e.id!r} touches no weight vertex")
        elif e.kind == RANK and len(weights) < 2:
            problems.append(
                f"rank edge {e.id!r} needs at least two weight endpoints "
                "(a single endpoint would leave an open weight mode)"
            )
        elif e.kind == KERNEL:
            if e.window is None:
                problems.append(f"kernel edge {e.id!r} carries no window spec")
            elif e.dim != e.window.beta:
                problems.append(
                    f"kernel edge {e.id!r} dim {_shown(e.dim, str)} != window beta "
                    f"{_shown(e.window.beta, str)}"
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
    if problem := _phi_problem(f.phi):
        problems.append(problem)

    for v in f.vertices:
        if v.kind == WEIGHT and not f.edges_of(v.id):
            problems.append(f"weight vertex {v.id!r} touches no edge")

    if problems:
        raise ValidationError(problems)


# -- text format ----------------------------------------------------------


def serialize_format(f: LayerFormat) -> str:
    """The text grammar of ``f``; raises :class:`ValidationError` when ``f``
    is not a :class:`LayerFormat`."""
    if not isinstance(f, LayerFormat):
        raise ValidationError(f"serialize_format needs a LayerFormat, got {f!r}")
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
    """Parse the text grammar; raises :class:`ParseError` with line/column,
    also for ``text`` that is not a ``str`` (line 1, column 1)."""
    if not isinstance(text, str):
        raise ParseError(f"format text must be a str, got {type(text).__name__}", 1, 1)
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
        found = list(re.finditer(r"\S+", line))
        tokens = [m.group() for m in found]
        cols = [m.start() + 1 for m in found]

        def expect_int(i, what):
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


def parse_ints(key: str, value) -> tuple[int, ...]:
    """``value`` as a tuple of ints: an int, a sequence of ints or text of
    comma-separated ints.  Anything else raises :class:`InvalidParams`
    naming ``key``."""
    if isinstance(value, str):
        items = value.split(",")
    else:
        items = value if isinstance(value, (tuple, list)) else [value]
    try:
        return tuple(int(v) if isinstance(v, str) else operator.index(v) for v in items)
    except (TypeError, ValueError):
        raise InvalidParams(
            f"{key} must be an integer or comma-separated integers, got {_shown(value)}"
        ) from None


def _windows(weights, k: int, alpha: tuple[int, ...], stride: int, padding: int):
    """Kernel edges ``k0``, ``k1``, ... from the input to each of ``weights``;
    ``alpha`` gives each edge's input length, or one length for all."""
    if len(alpha) == 1:
        alpha *= len(weights)
    if weights and len(alpha) != len(weights):
        raise InvalidParams(f"alpha must give {len(weights)} spatial lengths")
    return [
        HyperEdge(
            f"k{i}", KERNEL, k, ("x", w),
            DummySpec(alpha=a, beta=k, stride=stride, padding=padding),
        )
        for i, (w, a) in enumerate(zip(weights, alpha))
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
    0), ``alpha``, ``stride``, ``padding``, ``phi``.  Each value is an int,
    a sequence of ints or comma-separated text (see :func:`parse_ints`).
    """
    name = name.lower()

    def param(key, default=None, many=False):
        """Pop ``key`` (or take ``default``) as a tuple of ints when ``many``,
        else as one int; with no default the parameter is required."""
        value = params.pop(key, default)
        if value is None:
            raise InvalidParams(f"builtin {name!r} requires parameter {key!r}")
        ints = parse_ints(key, value)
        if many:
            return ints
        if len(ints) != 1:
            raise InvalidParams(f"{key} must be one integer, got {_shown(value)}")
        return ints[0]

    phi = param("phi", 4 if name == "htk2" else 1)
    k = param("k", 0)
    spatial = param("spatial", 2 if k else 0)
    if spatial < 0:
        raise InvalidParams(f"spatial must be >= 0, got {_shown(spatial, str)}")
    if spatial and not k:
        raise InvalidParams("spatial > 0 requires a kernel size k")
    alpha = param("alpha", 8, many=True)
    stride = param("stride", 1)
    padding = param("padding", 0)
    x = Vertex("x", INPUT)

    def bond_ranks(cores: int, bonds: int):
        """``ranks`` (one per bond, or one for all) or else ``rank``; when
        both are given ``rank`` is left over and rejected as unused."""
        ranks = param("ranks" if "ranks" in params else "rank", many=True)
        if len(ranks) == 1:
            ranks = ranks * bonds
        if len(ranks) != bonds:
            raise InvalidParams(f"{name} with {cores} cores needs {bonds} ranks")
        return ranks

    if name == "standard":
        c_in, c_out = param("c_in"), param("c_out")
        v = [x, Vertex("w", WEIGHT)]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w")),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w",)),
            *_windows(["w"] * spatial, k, alpha, stride, padding),
        ]
    elif name == "lowrank":
        c_in, c_out, r = param("c_in"), param("c_out"), param("rank")
        v = [x, Vertex("w0", WEIGHT), Vertex("w1", WEIGHT)]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w0")),
            HyperEdge("r0", RANK, r, ("w0", "w1")),
            *_windows(["w1"] * spatial, k, alpha, stride, padding),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w1",)),
        ]
    elif name in ("tucker2", "htk2"):
        c_in, c_out = param("c_in"), param("c_out")
        r = param("rank") if "rank" in params else None
        r0, r1 = param("r0", r), param("r1", r)
        v = [x, Vertex("w0", WEIGHT), Vertex("w1", WEIGHT), Vertex("w2", WEIGHT)]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w0")),
            HyperEdge("r0", RANK, r0, ("w0", "w1")),
            *_windows(["w1"] * spatial, k, alpha, stride, padding),
            HyperEdge("r1", RANK, r1, ("w1", "w2")),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w2",)),
        ]
    elif name == "cp":
        c_in, c_out, r = param("c_in"), param("c_out"), param("rank")
        kernel_weights = [f"w_k{i}" for i in range(spatial)]
        shared = ["w_in", *kernel_weights, "w_out"]
        v = [x] + [Vertex(w, WEIGHT) for w in shared]
        e = [
            HyperEdge("cin", INPUT_CHANNEL, c_in, ("x", "w_in")),
            *_windows(kernel_weights, k, alpha, stride, padding),
            HyperEdge("r", RANK, r, tuple(shared)),
            HyperEdge("cout", OUTPUT_CHANNEL, c_out, ("w_out",)),
        ]
    elif name == "tt":
        i_dims, o_dims = param("i_dims", many=True), param("o_dims", many=True)
        if len(i_dims) != len(o_dims):
            raise InvalidParams("tt needs equally many input and output dims")
        m = len(i_dims)
        ranks = bond_ranks(m, m - 1)
        v = [x] + [Vertex(f"w{j}", WEIGHT) for j in range(m)]
        e = []
        for j in range(m):
            e.append(HyperEdge(f"i{j}", INPUT_CHANNEL, i_dims[j], ("x", f"w{j}")))
        e.extend(_windows(["w0"] * spatial, k, alpha, stride, padding))
        for j in range(m - 1):
            e.append(HyperEdge(f"r{j}", RANK, ranks[j], (f"w{j}", f"w{j + 1}")))
        for j in range(m):
            e.append(HyperEdge(f"o{j}", OUTPUT_CHANNEL, o_dims[j], (f"w{j}",)))
    elif name == "tr":
        i_dims, o_dims = param("i_dims", many=True), param("o_dims", many=True)
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
        e.extend(_windows(["wk"] * spatial, k, alpha, stride, padding))
        for j in range(cores):
            e.append(
                HyperEdge(f"r{j}", RANK, ranks[j], (names[j], names[(j + 1) % cores]))
            )
        for j, d in enumerate(o_dims):
            e.append(HyperEdge(f"o{j}", OUTPUT_CHANNEL, d, (f"wo{j}",)))
    elif name == "oddlike":
        i_dims, o_dims = param("i_dims", many=True), param("o_dims", many=True)
        if len(i_dims) != 2 or len(o_dims) != 2:
            raise InvalidParams("oddlike uses exactly two input and two output dims")
        r = param("rank")
        v = [x] + [Vertex(f"w{j}", WEIGHT) for j in range(9)]
        e = [
            HyperEdge("i0", INPUT_CHANNEL, i_dims[0], ("x", "w0")),
            HyperEdge("i1", INPUT_CHANNEL, i_dims[1], ("x", "w1")),
        ]
        e.extend(_windows(["w4"] * spatial, k, alpha, stride, padding))
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


# numpy draws an int64 below an exclusive high of at most 2**63.
_DRAW_MAX = 2**63 - 1


def random_format(
    seed: int, constraints: RandomFormatConstraints = RandomFormatConstraints()
) -> LayerFormat:
    """Generate a random valid linear layer format, deterministic per seed.

    Draws 4-8 weight vertices, 2-3 input-channel and 2-3 output-channel
    edges, and a random number of rank edges; any vertex left without an
    edge is attached with an extra rank edge.  Raises
    :class:`~tcinit.errors.InvalidParams` when ``constraints`` is not a
    :class:`RandomFormatConstraints`, and names the first of its fields
    that no format can meet, that is not an integer (a pair of them for a
    range) or that passes numpy's draw bound ``2**63 - 1``.
    """
    _check_seed(seed)
    if not isinstance(constraints, RandomFormatConstraints):
        raise InvalidParams(
            f"constraints must be RandomFormatConstraints, got {_shown(constraints)}")
    for name in ("in_dim_range", "out_dim_range", "rank_dim_range"):
        pair = getattr(constraints, name)
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise InvalidParams(f"{name} must be a pair of integers, got {_shown(pair)}")
        _check_integers(InvalidParams, **{f"{name}[0]": pair[0], f"{name}[1]": pair[1]})
        lo, hi = pair
        if not 1 <= lo <= hi:
            raise InvalidParams(f"{name} must have 1 <= low <= high, got {_shown((lo, hi), str)}")
        if hi > _DRAW_MAX:
            raise InvalidParams(
                f"{name} must have high <= {_DRAW_MAX}, got {_shown((lo, hi), str)}")
    _check_integers(InvalidParams, max_rank_edges=constraints.max_rank_edges)
    edges_max = constraints.max_rank_edges
    if edges_max < 0:
        raise InvalidParams(f"max_rank_edges must be >= 0, got {_shown(edges_max, str)}")
    # A rank edge takes about 25 us to draw and validate, so the most edges
    # the bound lets a format draw take about 1 s.
    if edges_max > 40_000:
        raise InvalidParams(f"max_rank_edges must be <= 40000, got {_shown(edges_max, str)}")
    _check_phi(constraints.phi)
    rng = np.random.default_rng(seed)

    def draw(lo_hi):
        return int(rng.integers(lo_hi[0], lo_hi[1] + 1))

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

    ranks = itertools.count()

    def rank(a, b):
        """A rank edge from ``a`` to ``b``, its dim drawn after both ends."""
        edges.append(HyperEdge(f"r{next(ranks)}", RANK, draw(constraints.rank_dim_range), (a, b)))

    for _ in range(int(rng.integers(0, constraints.max_rank_edges + 1))):
        a, b = rng.choice(n_w, size=2, replace=False)
        rank(weights[int(a)], weights[int(b)])
    touched = {p for e in edges for p in e.endpoints}
    for j, w in enumerate(weights):
        if w not in touched:
            rank(w, weights[(j + 1 + int(rng.integers(n_w - 1))) % n_w])
    fmt = LayerFormat(
        tuple([Vertex("x", INPUT)] + [Vertex(w, WEIGHT) for w in weights]),
        tuple(edges),
        constraints.phi,
    )
    validate(fmt)
    return fmt
