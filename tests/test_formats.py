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
    Vertex,
    builtin_format,
    parse_format,
    random_format,
    serialize_format,
    validate,
)

MINIMAL_CONV = """
phi 1
vertex x input
vertex w weight
edge cin input-channel 3 x w
edge cout output-channel 8 w
edge k0 kernel 3 w alpha 8 stride 1 pad 1
edge k1 kernel 3 w alpha 8 stride 1 pad 1
"""


class TestParse:
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

    def test_comments_and_blank_lines(self):
        f = parse_format("# header\n\n" + MINIMAL_CONV + "\n# trailing\n")
        assert f.phi == 1

    def test_parse_error_has_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_format("phi 1\nvertex x input\nedge e widget 3 x\n")
        assert err.value.line == 3
        assert err.value.column == 8
        assert "line 3" in str(err.value)

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


class TestValidate:
    def _base(self):
        return builtin_format("standard", c_in=3, c_out=8, k=3, alpha=8)

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
