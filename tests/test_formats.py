import math

import numpy as np
import pytest

from tcinit.errors import InvalidParams, ParseError, ValidationError
from tcinit.formats import (
    BUILTIN_NAMES,
    INPUT_CHANNEL,
    KERNEL,
    OUTPUT_CHANNEL,
    RANK,
    HyperEdge,
    LayerFormat,
    RandomFormatConstraints,
    WEIGHT,
    Vertex,
    builtin_format,
    parse_format,
    random_format,
    serialize_format,
    validate,
)
from tcinit.tensor import DummySpec

MINIMAL_CONV = """
phi 1
vertex x input
vertex w weight
edge cin input-channel 3 x w
edge cout output-channel 8 w
edge k0 kernel 3 w alpha 8 stride 1 pad 1
edge k1 kernel 3 w alpha 8 stride 1 pad 1
"""


# Text each parse rule rejects, with the message and the line and column
# the error points at.
PARSE_REJECTS = {
    "phi-no-value": ("phi\n", "phi takes exactly one value", 1, 1),
    "phi-two-values": ("phi 1 2\n", "phi takes exactly one value", 1, 1),
    "vertex-no-kind": ("vertex x\n", "vertex takes an id and a kind", 1, 1),
    "vertex-unknown-kind": ("vertex x bias\n", "unknown vertex kind 'bias'", 1, 10),
    "edge-no-dim": ("vertex x input\nedge e rank\n", "edge takes an id, a kind and a dim",
                    2, 1),
    "kernel-short": ("vertex x input\nvertex w weight\nedge k kernel 3 w alpha 8\n",
                     "kernel edge needs: <beta> <weight> alpha <a> stride <s> pad <p>", 3, 8),
    "kernel-before-input": ("vertex w weight\nedge k kernel 3 w alpha 8 stride 1 pad 0\n",
                            "kernel edge declared before the input vertex", 2, 1),
    "kernel-unknown-weight": ("vertex x input\nedge k kernel 3 v alpha 8 stride 1 pad 0\n",
                              "unknown vertex 'v'", 2, 17),
    "edge-no-endpoints": ("vertex x input\nedge e rank 2\n", "edge lists no endpoints", 2, 14),
}


class TestParse:
    @pytest.mark.parametrize("case", sorted(PARSE_REJECTS))
    def test_rejected_text_points_at_token(self, case):
        text, message, line, column = PARSE_REJECTS[case]
        with pytest.raises(ParseError) as err:
            parse_format(text)
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)

    def test_minimal_conv_parses(self):
        f = parse_format(MINIMAL_CONV)
        assert f.weight_ids == ("w",)
        assert f.spatial == ("k0", "k1")
        assert f.weight_mode_dims("w") == (3, 8, 3, 3)

    def test_round_trip_builtins(self):
        for name, params in [
            ("standard", dict(c_in=3, c_out=8, k=3, alpha=8)),
            ("htk2", dict(c_in=16, c_out=16, r0=4, r1=4, k=3, alpha=8)),
            ("tt", dict(i_dims=(4, 4), o_dims=(4, 4), rank=3)),
            ("tr", dict(i_dims=(6, 4, 4), o_dims=(6, 4, 4), rank=10)),
            ("oddlike", dict(i_dims=(4, 5), o_dims=(4, 5), rank=3)),
        ]:
            f = builtin_format(name, **params)
            assert parse_format(serialize_format(f)) == f

    def test_round_trip_random(self):
        for seed in range(20):
            f = random_format(seed)
            assert parse_format(serialize_format(f)) == f

    @pytest.mark.parametrize("f", [None, "phi 1\n"])
    def test_serializing_a_non_format_raises_validation_error(self, f):
        with pytest.raises(ValidationError, match="^serialize_format needs a LayerFormat, got "):
            serialize_format(f)

    def test_comments_and_blank_lines(self):
        f = parse_format("# header\n\n" + MINIMAL_CONV + "\n# trailing\n")
        assert f.phi == 1

    def test_parse_error_has_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_format("phi 1\nvertex x input\nedge e widget 3 x\n")
        assert err.value.line == 3
        assert err.value.column == 8
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("text", [b"phi 1\n", None, ["phi 1"]])
    def test_text_that_is_not_a_str_rejected(self, text):
        with pytest.raises(ParseError, match="format text must be a str") as err:
            parse_format(text)
        assert (err.value.line, err.value.column) == (1, 1)

    @pytest.mark.parametrize("space", [" ", "\t", "\u00a0", "\u2003", "\x1f"])
    def test_columns_count_any_whitespace(self, space):
        with pytest.raises(ParseError) as err:
            parse_format(f"phi 1\nvertex x input\nedge{space}e{space * 2}widget 3 x\n")
        assert (err.value.line, err.value.column) == (3, 9)

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_format("phi 1\nblorb x\n")
        assert err.value.line == 2

    def test_unknown_kernel_attribute(self):
        with pytest.raises(ParseError):
            parse_format(
                "phi 1\nvertex x input\nvertex w weight\n"
                "edge cin input-channel 3 x w\n"
                "edge cout output-channel 3 w\n"
                "edge k kernel 3 w alpha 8 dilation 1 pad 0\n"
            )

    def test_non_integer_dim(self):
        with pytest.raises(ParseError):
            parse_format("phi 1\nvertex x input\nvertex w weight\n"
                         "edge cin input-channel big x w\n")

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ParseError):
            parse_format("phi 1\nvertex x input\nedge cin input-channel 3 x nope\n")

    def test_padding_above_beta_minus_one_points_at_pad(self):
        text = MINIMAL_CONV.replace(
            "edge k1 kernel 3 w alpha 8 stride 1 pad 1",
            "edge k1 kernel 3 w alpha 8 stride 1 pad 3",
        )
        with pytest.raises(ParseError) as err:
            parse_format(text)
        line = text.splitlines()[err.value.line - 1]
        assert line.endswith("pad 3")
        assert err.value.column == len(line)
        assert "padding 3 exceeds beta-1 = 2" in str(err.value)
        # pad = beta - 1 is the largest padding with a backward pass
        parse_format(text.replace("pad 3", "pad 2"))


WINDOW = DummySpec(alpha=8, beta=3, stride=1, padding=0)

# One case per problem validate lists: the vertices and edges added to the
# base format, the edge kind dropped from it and the message listed.
VALIDATE_PROBLEMS = {
    "repeated-vertex-id": ((Vertex("w", WEIGHT),), (), None, "vertex ids are not unique"),
    "unknown-vertex-kind": ((Vertex("b", "bias"),), (), None,
                            "vertex 'b' has unknown kind 'bias'"),
    "repeated-edge-id": ((), (HyperEdge("cout", OUTPUT_CHANNEL, 2, ("w",)),), None,
                         "edge ids are not unique"),
    "unknown-edge-kind": ((), (HyperEdge("e", "bias", 2, ("w",)),), None,
                          "edge 'e' has unknown kind 'bias'"),
    "no-endpoints": ((), (HyperEdge("e", RANK, 2, ()),), None, "edge 'e' has no endpoints"),
    "repeated-endpoint": ((), (HyperEdge("e", RANK, 2, ("w", "w")),), None,
                          "edge 'e' repeats an endpoint"),
    "input-channel-misses-input": ((), (HyperEdge("e", INPUT_CHANNEL, 2, ("w",)),), None,
                                   "input-channel edge 'e' misses the input vertex"),
    "input-channel-no-weight": ((), (HyperEdge("e", INPUT_CHANNEL, 2, ("x",)),), None,
                                "input-channel edge 'e' touches no weight vertex"),
    "output-channel-has-input": ((), (HyperEdge("e", OUTPUT_CHANNEL, 2, ("x", "w")),), None,
                                 "output-channel edge 'e' includes the input vertex"),
    "output-channel-no-weight": ((), (HyperEdge("e", OUTPUT_CHANNEL, 2, ("x",)),), None,
                                 "output-channel edge 'e' touches no weight vertex"),
    "rank-has-input": ((), (HyperEdge("e", RANK, 2, ("x", "w")),), None,
                       "rank edge 'e' includes the input vertex"),
    "kernel-no-window": ((), (HyperEdge("e", KERNEL, 3, ("x", "w")),), None,
                         "kernel edge 'e' carries no window spec"),
    "kernel-dim-not-beta": ((), (HyperEdge("e", KERNEL, 2, ("x", "w"), WINDOW),), None,
                            "kernel edge 'e' dim 2 != window beta 3"),
    "kernel-not-input-to-one-weight": (
        (), (HyperEdge("e", KERNEL, 3, ("w",), WINDOW),), None,
        "kernel edge 'e' must join the input vertex to exactly one weight vertex"),
    "no-input-channel": ((), (), INPUT_CHANNEL, "format has no input-channel edge"),
    "no-output-channel": ((), (), OUTPUT_CHANNEL, "format has no output-channel edge"),
}


class TestValidate:
    def _base(self):
        return builtin_format("standard", c_in=3, c_out=8, k=3, alpha=8)

    @pytest.mark.parametrize("case", sorted(VALIDATE_PROBLEMS))
    def test_problem_listed(self, case):
        vertices, edges, dropped, message = VALIDATE_PROBLEMS[case]
        f = self._base()
        kept = tuple(e for e in f.edges if e.kind != dropped)
        with pytest.raises(ValidationError) as err:
            validate(LayerFormat(f.vertices + vertices, kept + edges, 1))
        assert message in err.value.violations

    def test_padding_above_beta_minus_one_listed(self):
        with pytest.raises(ValidationError) as err:
            builtin_format("standard", c_in=2, c_out=2, k=3, padding=3, alpha=4)
        assert err.value.violations == [
            f"kernel edge {eid!r} padding 3 exceeds beta-1 = 2; "
            "its backward pass is undefined"
            for eid in ("k0", "k1")
        ]

    def test_edgeless_weight_rejected(self):
        f = self._base()
        bad = LayerFormat(f.vertices + (Vertex("lonely", "weight"),), f.edges, 1)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert any("lonely" in v for v in err.value.violations)

    def test_missing_input_vertex(self):
        f = self._base()
        bad = LayerFormat(
            tuple(v for v in f.vertices if v.kind != "input"), f.edges, 1
        )
        with pytest.raises(ValidationError):
            validate(bad)

    def test_input_vertex_of_a_format_with_none(self):
        with pytest.raises(ValidationError, match="^format has no input vertex$") as err:
            LayerFormat((), ()).input_vertex
        assert err.value.violations == ["format has no input vertex"]

    def test_rank_edge_needs_two_endpoints(self):
        f = self._base()
        bad = LayerFormat(
            f.vertices, f.edges + (HyperEdge("r", RANK, 4, ("w",)),), 1
        )
        with pytest.raises(ValidationError):
            validate(bad)

    def test_bad_phi(self):
        f = self._base()
        with pytest.raises(ValidationError):
            validate(LayerFormat(f.vertices, f.edges, 0))

    def test_numpy_integer_phi_validates_and_bool_phi_does_not(self):
        # One phi rule for validate, random_format and the graph calculus:
        # make_plan takes a numpy integer phi, and none of them a bool.
        f = self._base()
        validate(LayerFormat(f.vertices, f.edges, np.int64(2)))
        with pytest.raises(ValidationError) as err:
            validate(LayerFormat(f.vertices, f.edges, True))
        assert err.value.violations == ["phi must be an integer >= 1, got True"]

    def test_violations_are_listed(self):
        f = self._base()
        bad = LayerFormat(
            f.vertices + (Vertex("lonely", "weight"),),
            f.edges + (HyperEdge("r", RANK, 4, ("w",)),),
            0,
        )
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert len(err.value.violations) >= 3


class TestBuiltins:
    @pytest.mark.parametrize("name,params,message", [
        ("tt", dict(i_dims=(2, 3, 4), o_dims=(2, 3, 4), ranks=(2, 2, 2)),
         "tt with 3 cores needs 2 ranks"),
        ("tt", dict(i_dims=(2, 3), o_dims=(2,), rank=2),
         "tt needs equally many input and output dims"),
        ("oddlike", dict(i_dims=(2, 3, 4), o_dims=(2, 3), rank=2),
         "oddlike uses exactly two input and two output dims"),
    ])
    def test_inconsistent_params_rejected(self, name, params, message):
        with pytest.raises(InvalidParams) as err:
            builtin_format(name, **params)
        assert str(err.value) == message

    def test_standard_conv_shape(self):
        f = builtin_format("standard", c_in=3, c_out=96, k=3, alpha=8)
        assert f.weight_mode_dims("w") == (3, 96, 3, 3)
        assert f.in_channel_dims == (3,)
        assert f.out_channel_dims == (96,)

    def test_htk2_topology(self):
        f = builtin_format("htk2", c_in=96, c_out=96, r0=10, r1=10, k=3, alpha=8)
        assert f.phi == 4
        assert len(f.weight_ids) == 3
        kinds = [e.kind for e in f.edges]
        assert kinds.count(RANK) == 2
        assert kinds.count(KERNEL) == 2
        # the window sits on the middle vertex
        assert all("w1" in e.endpoints for e in f.kernel_edges)

    def test_tensor_ring_matches_channel_split(self):
        f = builtin_format("tr", i_dims=(6, 4, 4), o_dims=(6, 4, 4), rank=10)
        assert f.in_channel_dims == (6, 4, 4)
        assert f.out_channel_dims == (6, 4, 4)
        ring = f.edges_of_kind(RANK)
        assert len(ring) == 6
        assert all(e.dim == 10 for e in ring)

    def test_tt_chain(self):
        f = builtin_format("tt", i_dims=(4, 6, 4), o_dims=(4, 6, 4), rank=3)
        assert len(f.weight_ids) == 3
        assert len(f.edges_of_kind(RANK)) == 2

    @pytest.mark.parametrize("name", ["tt", "tr"])
    def test_rank_and_ranks_together_rejected(self, name):
        with pytest.raises(InvalidParams, match="unused parameters"):
            builtin_format(name, i_dims=(4, 4), o_dims=(4, 4), rank=3, ranks=5)

    @pytest.mark.parametrize("name,bonds", [("tt", 1), ("tr", 4)])
    def test_ranks_alone_sets_every_bond(self, name, bonds):
        f = builtin_format(name, i_dims=(4, 4), o_dims=(4, 4), ranks=5)
        assert [e.dim for e in f.edges_of_kind(RANK)] == [5] * bonds

    def test_cp_shares_one_rank_edge(self):
        f = builtin_format("cp", c_in=8, c_out=8, rank=4, k=3, alpha=8)
        ranks = f.edges_of_kind(RANK)
        assert len(ranks) == 1
        assert len(ranks[0].endpoints) == len(f.weight_ids)

    def test_oddlike_counts(self):
        f = builtin_format("oddlike", i_dims=(20, 25), o_dims=(20, 25), rank=5)
        assert len(f.weight_ids) == 9
        assert len(f.edges_of_kind(RANK)) == 14

    def test_unknown_builtin(self):
        with pytest.raises(InvalidParams):
            builtin_format("butterfly", c_in=4, c_out=4)

    def test_missing_param(self):
        with pytest.raises(InvalidParams):
            builtin_format("standard", c_in=4)

    def test_unused_param_rejected(self):
        with pytest.raises(InvalidParams):
            builtin_format("standard", c_in=4, c_out=4, widgets=2)

    def test_cp_alpha_gives_one_length_per_window(self):
        with pytest.raises(InvalidParams, match="alpha must give 2 spatial lengths"):
            builtin_format("cp", c_in=4, c_out=4, rank=2, k=3, spatial=2, alpha=(8, 9, 10))

    def test_tucker2_zero_rank_is_a_non_positive_dim(self):
        with pytest.raises(ValidationError, match="non-positive dim"):
            builtin_format("tucker2", c_in=4, c_out=4, r0=0, r1=2)

    def test_dims_from_text_tuple_or_list(self):
        f = [builtin_format("tt", i_dims=dims, o_dims=(4, 6), rank=2)
             for dims in ("4,6", (4, 6), [4, 6])]
        assert f[0] == f[1] == f[2]

    def test_all_builtins_validate(self):
        cases = {
            "standard": dict(c_in=4, c_out=4, k=3, alpha=8),
            "lowrank": dict(c_in=4, c_out=4, rank=2, k=3, alpha=8),
            "tucker2": dict(c_in=4, c_out=4, rank=2, k=3, alpha=8),
            "htk2": dict(c_in=4, c_out=4, rank=2, k=3, alpha=8),
            "cp": dict(c_in=4, c_out=4, rank=2, k=3, alpha=8),
            "tt": dict(i_dims=(2, 3), o_dims=(2, 3), rank=2),
            "tr": dict(i_dims=(2, 3), o_dims=(2, 3), rank=2),
            "oddlike": dict(i_dims=(2, 3), o_dims=(2, 3), rank=2),
        }
        assert set(cases) == set(BUILTIN_NAMES)
        for name, params in cases.items():
            validate(builtin_format(name, **params))


class TestRandomFormat:
    def test_deterministic(self):
        assert random_format(17) == random_format(17)

    def test_validation_sweep(self):
        for seed in range(1000):
            validate(random_format(seed))

    def test_vertex_count_coverage(self):
        counts = {len(random_format(seed).weight_ids) for seed in range(1000)}
        assert counts == {4, 5, 6, 7, 8}

    def test_channel_edge_counts(self):
        for seed in range(100):
            f = random_format(seed)
            assert 2 <= len(f.edges_of_kind(INPUT_CHANNEL)) <= 3
            assert 2 <= len(f.edges_of_kind(OUTPUT_CHANNEL)) <= 3

    def test_constraints_respected(self):
        c = RandomFormatConstraints(
            in_dim_range=(3, 3), out_dim_range=(5, 5), rank_dim_range=(2, 2)
        )
        f = random_format(0, c)
        assert all(e.dim == 3 for e in f.edges_of_kind(INPUT_CHANNEL))
        assert all(e.dim == 5 for e in f.edges_of_kind(OUTPUT_CHANNEL))
        assert all(e.dim == 2 for e in f.edges_of_kind(RANK))

    @pytest.mark.parametrize("field,value,message", [
        ("phi", 0, "phi must be an integer >= 1, got 0"),
        ("in_dim_range", (0, 0), "in_dim_range must have 1 <= low <= high, got (0, 0)"),
        ("rank_dim_range", (5, 2), "rank_dim_range must have 1 <= low <= high, got (5, 2)"),
        ("max_rank_edges", -1, "max_rank_edges must be >= 0, got -1"),
        ("in_dim_range", (2, math.inf), "in_dim_range[1] must be an integer, got inf"),
        ("out_dim_range", (math.nan, 3), "out_dim_range[0] must be an integer, got nan"),
        ("rank_dim_range", None, "rank_dim_range must be a pair of integers, got None"),
        ("rank_dim_range", (2, 10**30),
         f"rank_dim_range must have high <= {2**63 - 1}, got (2, {10**30})"),
        ("max_rank_edges", 2.5, "max_rank_edges must be an integer, got 2.5"),
        ("max_rank_edges", math.inf, "max_rank_edges must be an integer, got inf"),
        ("max_rank_edges", 10**30, f"max_rank_edges must be <= 40000, got {10**30}"),
        ("max_rank_edges", 40_001, "max_rank_edges must be <= 40000, got 40001"),
        ("phi", True, "phi must be an integer >= 1, got True"),
    ])
    def test_constraints_no_format_meets_rejected(self, field, value, message):
        with pytest.raises(InvalidParams) as err:
            random_format(0, RandomFormatConstraints(**{field: value}))
        assert str(err.value) == message

    def test_constraints_at_the_draw_bound_run(self):
        top = 2**63 - 1
        f = random_format(0, RandomFormatConstraints(rank_dim_range=(top, top)))
        assert all(e.dim == top for e in f.edges_of_kind(RANK))

    def test_constraints_of_wrong_type_rejected(self):
        with pytest.raises(InvalidParams, match="^constraints must be RandomFormatConstraints"):
            random_format(0, None)
