import json
import math

import numpy as np
import pytest

from tcinit.errors import InvalidParams
from tcinit.formats import (
    RANK,
    HyperEdge,
    LayerFormat,
    builtin_format,
    random_format,
)
from tcinit.graph import (
    BASELINE_MODES,
    BackboneGraph,
    FAN_IN,
    FAN_OUT,
    InitPlan,
    baseline_variance,
    edge_product,
    extract_bg,
    graph_init_variance,
    make_plan,
    plan_report,
    plan_report_json,
    predicted_output_variance,
)

DESK_BUILTINS = [
    ("standard", dict(c_in=16, c_out=16, k=3, alpha=8)),
    ("lowrank", dict(c_in=16, c_out=16, rank=4, k=3, alpha=8)),
    ("tucker2", dict(c_in=16, c_out=16, rank=4, k=3, alpha=8)),
    ("htk2", dict(c_in=16, c_out=16, rank=4, k=3, alpha=8)),
    ("cp", dict(c_in=16, c_out=16, rank=4, k=3, alpha=8)),
    ("tt", dict(i_dims=(4, 4), o_dims=(4, 4), rank=3)),
    ("tr", dict(i_dims=(4, 4), o_dims=(4, 4), rank=3)),
    ("oddlike", dict(i_dims=(4, 5), o_dims=(4, 5), rank=3)),
]


class TestExtract:
    def test_standard_fan_in(self):
        f = builtin_format("standard", c_in=64, c_out=96, k=3, alpha=8)
        bg = extract_bg(f, FAN_IN)
        assert bg.tau == 2
        assert bg.adjacency[0][1] == 9 * 64
        assert bg.adjacency[0][0] == bg.adjacency[1][1] == 1
        assert edge_product(bg) == 576

    def test_standard_fan_out(self):
        f = builtin_format("standard", c_in=64, c_out=96, k=3, alpha=8)
        bg = extract_bg(f, FAN_OUT)
        assert bg.adjacency[0][1] == 9 * 96

    def test_htk2_fan_in(self):
        f = builtin_format("htk2", c_in=96, c_out=96, rank=10, k=3, alpha=8)
        bg = extract_bg(f, FAN_IN)
        assert bg.tau == 4
        assert edge_product(bg) == 86400

    def test_adjacency_symmetric(self):
        for name, params in DESK_BUILTINS:
            f = builtin_format(name, **params)
            for mode in (FAN_IN, FAN_OUT):
                adj = np.array(extract_bg(f, mode).adjacency)
                assert np.array_equal(adj, adj.T)
                assert np.array_equal(np.diag(adj), np.ones(adj.shape[0]))

    def test_parallel_edges_merge_by_product(self):
        f = builtin_format("lowrank", c_in=4, c_out=4, rank=3, k=3, alpha=8)
        doubled = LayerFormat(
            f.vertices,
            f.edges + (HyperEdge("r_extra", RANK, 5, ("w0", "w1")),),
            f.phi,
        )
        bg = extract_bg(doubled, FAN_IN)
        i0, i1 = bg.vertex_ids.index("w0"), bg.vertex_ids.index("w1")
        assert bg.adjacency[i0][i1] == 15

    def test_fan_sides_differ_only_in_channels_when_symmetric(self):
        for name, params in [
            ("htk2", dict(c_in=8, c_out=16, rank=4, k=3, alpha=8)),
            ("tr", dict(i_dims=(4, 6), o_dims=(8, 3), rank=3)),
        ]:
            f = builtin_format(name, **params)
            a_in = np.array(extract_bg(f, FAN_IN).adjacency)
            a_out = np.array(extract_bg(f, FAN_OUT).adjacency)
            # entries between weight vertices agree; only row/col 0 differ
            assert np.array_equal(a_in[1:, 1:], a_out[1:, 1:])


class TestEdgeProduct:
    def test_identity_only(self):
        f = builtin_format("standard", c_in=2, c_out=2)
        bg = extract_bg(f, FAN_IN)
        assert bg.adjacency[0][1] == 2  # just c_in, no windows
        assert edge_product(bg) == 2

    def test_exact_python_int_beyond_64_bits(self, caplog):
        f = builtin_format(
            "tt",
            i_dims=(512, 512, 512, 512),
            o_dims=(2, 2, 2, 2),
            rank=512,
        )
        with caplog.at_level("WARNING"):
            value = edge_product(extract_bg(f, FAN_IN))
        assert value == 512**4 * 512**3
        assert value > 2**63 - 1
        # Python ints do not overflow, so an exact product is no warning.
        assert not caplog.records


class TestGraphInit:
    def test_degenerates_to_xavier_and_kaiming(self):
        for k in (1, 3, 5):
            for c_in in (16, 64, 96):
                for c_out in (32, 96):
                    f = builtin_format(
                        "standard", c_in=c_in, c_out=c_out, k=k, alpha=10
                    )
                    bg_in = extract_bg(f, FAN_IN)
                    bg_out = extract_bg(f, FAN_OUT)
                    xavier_in = 1.0 / (k * k * c_in)
                    xavier_out = 1.0 / (k * k * c_out)
                    assert graph_init_variance(bg_in, 1, 1.0, 1) == pytest.approx(
                        xavier_in, rel=1e-12
                    )
                    assert graph_init_variance(bg_out, 1, 1.0, 1) == pytest.approx(
                        xavier_out, rel=1e-12
                    )
                    assert graph_init_variance(bg_in, 1, 0.5, 1) == pytest.approx(
                        2 * xavier_in, rel=1e-12
                    )

    def test_htk2_closed_form(self):
        f = builtin_format("htk2", c_in=96, c_out=96, rank=10, k=3, alpha=8)
        bg = extract_bg(f, FAN_IN)
        got = graph_init_variance(bg, 3, 1.0, 4)
        assert got == pytest.approx((4 * 86400) ** (-1 / 3), rel=1e-12)

    def test_relu_rescales_by_nth_root_of_two(self):
        f = builtin_format("tucker2", c_in=8, c_out=8, rank=4, k=3, alpha=8)
        bg = extract_bg(f, FAN_IN)
        tanh = graph_init_variance(bg, 3, 1.0, 1)
        relu = graph_init_variance(bg, 3, 0.5, 1)
        assert relu == pytest.approx(tanh * 2 ** (1 / 3), rel=1e-12)

    def test_unit_closure_over_formats(self):
        cases = [builtin_format(n, **p) for n, p in DESK_BUILTINS]
        cases += [random_format(seed) for seed in range(30)]
        for f in cases:
            for p_a in (1.0, 0.5):
                for side in (FAN_IN, FAN_OUT):
                    bg = extract_bg(f, side)
                    s2 = graph_init_variance(bg, bg.weight_count, p_a, f.phi)
                    value = p_a * f.phi * s2 ** bg.weight_count * edge_product(bg)
                    assert abs(value - 1.0) < 1e-9

    def test_vertex_count_mismatch(self):
        f = builtin_format("htk2", c_in=8, c_out=8, rank=4, k=3, alpha=8)
        with pytest.raises(InvalidParams):
            graph_init_variance(extract_bg(f, FAN_IN), 2, 1.0, 1)

    @pytest.mark.parametrize("n,p_a,phi,message", [
        (3, 0, 1, "p_a must be a finite real > 0, got 0"),
        (3, -0.5, 1, "p_a must be a finite real > 0, got -0.5"),
        (3, math.nan, 1, "p_a must be a finite real > 0, got nan"),
        (3, math.inf, 1, "p_a must be a finite real > 0, got inf"),
        (3, "a", 1, "p_a must be a finite real > 0, got 'a'"),
        (3, 1.0, 0, "phi must be >= 1, got 0"),
        (3, 1.0, 2.5, "phi must be an integer, got 2.5"),
        ("a", 1.0, 1, "n must be an integer, got 'a'"),
        (2, 1.0, 1, "n = 2 does not match the graph's 3 weight vertices"),
    ])
    def test_bad_arguments_raise_invalid_params(self, n, p_a, phi, message):
        f = builtin_format("htk2", c_in=8, c_out=8, rank=4, k=3, alpha=8)
        with pytest.raises(InvalidParams) as err:
            graph_init_variance(extract_bg(f, FAN_IN), n, p_a, phi)
        assert str(err.value) == message


class TestPrediction:
    def test_graph_in_plan_preserves_variance(self):
        f = builtin_format("htk2", c_in=16, c_out=16, rank=4, k=3, alpha=8)
        bg = extract_bg(f, FAN_IN)
        plan = make_plan(f, "graph-in", "tanh")
        out = predicted_output_variance(
            bg, 0.7, list(plan.variances.values()), plan.p_a, f.phi
        )
        assert out == pytest.approx(0.7, rel=1e-12)

    def test_no_edges_reduces_to_plain_product(self):
        bg = BackboneGraph(("x", "w"), ((1, 1), (1, 1)))
        assert predicted_output_variance(bg, 2.0, [0.5], 0.5, 3) == pytest.approx(1.5)

    def test_per_vertex_xavier_failure_ratio(self):
        f = builtin_format("htk2", c_in=96, c_out=96, rank=10, k=3, alpha=8)
        bg = extract_bg(f, FAN_IN)
        sigma2 = 1.0 / (9 * 96)
        out = predicted_output_variance(bg, 1.0, [sigma2] * 3, 1.0, 4)
        assert out == pytest.approx(4 * 10 * 10 / (9 * 96) ** 2, rel=1e-12)


class TestBeyondFloatRange:
    # Edge product 10**400 exceeds the float range (about 1.8e308).
    BG = BackboneGraph(
        ("x", "w0", "w1"),
        ((1, 10**200, 1), (10**200, 1, 10**200), (1, 10**200, 1)),
    )

    def test_graph_init_variance_in_log_space(self):
        assert graph_init_variance(self.BG, 2, 1.0, 1) == pytest.approx(
            1e-200, rel=1e-12
        )
        assert graph_init_variance(self.BG, 2, 0.5, 4) == pytest.approx(
            2 ** -0.5 * 1e-200, rel=1e-12
        )

    def test_predicted_output_variance_in_log_space(self):
        # The vertex variances alone underflow to zero as a float product.
        sigma2 = graph_init_variance(self.BG, 2, 1.0, 1)
        out = predicted_output_variance(self.BG, 0.7, [sigma2] * 2, 1.0, 1)
        assert out == pytest.approx(0.7, rel=1e-9)
        assert predicted_output_variance(self.BG, 1.0, [0.0, 1.0], 1.0, 1) == 0.0
        assert predicted_output_variance(self.BG, 1.0, [1.0, 1.0], 1.0, 1) == math.inf

    def test_phi_past_float_range(self):
        # The unit closure holds for a phi that no float can hold.
        f = builtin_format("htk2", c_in=96, c_out=96, rank=10, k=3, alpha=8)
        bg, phi = extract_bg(f, FAN_IN), 4 * 10**399
        sigma2 = graph_init_variance(bg, 3, 1.0, phi)
        assert sigma2 == pytest.approx((4 * 86400) ** (-1 / 3) * 1e-133, rel=1e-9)
        out = predicted_output_variance(bg, 0.7, [sigma2] * 3, 1.0, phi)
        assert out == pytest.approx(0.7, rel=1e-9)

    def test_float_product_overflowing_to_inf(self):
        # 10**308 converts to a float, but 4 * 1e308 overflows.
        bg = BackboneGraph(("x", "w0"), ((1, 10**308), (10**308, 1)))
        assert graph_init_variance(bg, 1, 1.0, 4) == pytest.approx(
            2.5e-309, rel=1e-9
        )
        # The vertex variances overflow on the way to a product of 1.
        huge_then_tiny = [1e300, 1e300, 1e-300, 1e-300]
        out = predicted_output_variance(bg, 1e-10, huge_then_tiny, 1.0, 4)
        assert out == pytest.approx(4e298, rel=1e-9)

    def test_baselines_of_huge_channel_products(self):
        f = builtin_format("tt", i_dims=(10**6,) * 60, o_dims=(2,) * 60, rank=2)
        for mode in BASELINE_MODES:
            values = baseline_variance(f, mode).values()
            assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert baseline_variance(f, "xavier-out")["w0"] == 1 / (2**60)


class TestBaselines:
    def test_standard_values(self):
        f = builtin_format("standard", c_in=96, c_out=48, k=3, alpha=8)
        assert baseline_variance(f, "xavier-in")["w"] == pytest.approx(1 / 864)
        assert baseline_variance(f, "xavier-out")["w"] == pytest.approx(1 / 432)
        assert baseline_variance(f, "kaiming-in")["w"] == pytest.approx(2 / 864)
        assert baseline_variance(f, "xavier-harmonic")["w"] == pytest.approx(
            2 / (9 * 144)
        )

    def test_harmonic_equals_xavier_when_symmetric(self):
        f = builtin_format("standard", c_in=32, c_out=32, k=3, alpha=8)
        assert baseline_variance(f, "xavier-harmonic") == baseline_variance(
            f, "xavier-in"
        )

    def test_per_vertex_convention(self):
        f = builtin_format("htk2", c_in=16, c_out=16, rank=4, k=3, alpha=8)
        got = baseline_variance(f, "xavier-vertex")
        # mode dims: w0 [c_in, r0]; w1 [r0, k, k, r1]; w2 [r1, c_out]
        assert got["w0"] == pytest.approx(1 / 16)
        assert got["w1"] == pytest.approx(1 / (4 * 3 * 3))
        assert got["w2"] == pytest.approx(1 / 4)

    def test_unknown_mode(self):
        f = builtin_format("standard", c_in=4, c_out=4)
        with pytest.raises(InvalidParams):
            baseline_variance(f, "lecun")


class TestPlans:
    @pytest.mark.parametrize("build,message", [
        (lambda f: extract_bg(f, "sideways"), "unknown backbone mode 'sideways'"),
        (lambda f: InitPlan("graph-in", 1.0, 1, {"w": 1.0}, "laplace"),
         "unknown distribution 'laplace'"),
        (lambda f: InitPlan("graph-in", 1.0, 1, {"w": -1.0}), "variances must be nonnegative"),
        (lambda f: make_plan(f, "graph-in", "gelu"), "unknown activation 'gelu'"),
        (lambda f: make_plan(f, "lecun"), "unknown plan mode 'lecun'"),
    ], ids=["side", "distribution", "variance", "activation", "mode"])
    def test_unknown_or_negative_input_rejected(self, build, message):
        f = builtin_format("standard", c_in=4, c_out=4, k=3, alpha=8)
        with pytest.raises(InvalidParams) as err:
            build(f)
        assert str(err.value) == message

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_variance_rejected(self, v):
        with pytest.raises(InvalidParams) as err:
            InitPlan("graph-in", 1.0, 1, {"w": 1.0, "v": v})
        assert str(err.value) == "variances must be finite"

    def test_activation_scales(self):
        f = builtin_format("standard", c_in=4, c_out=4, k=3, alpha=8)
        assert make_plan(f, "graph-in", "tanh").p_a == 1.0
        assert make_plan(f, "graph-in", "relu").p_a == 0.5
        assert make_plan(f, "graph-in", "identity").p_a == 1.0

    def test_baseline_modes_covered(self):
        f = builtin_format("htk2", c_in=8, c_out=8, rank=4, k=3, alpha=8)
        for mode in BASELINE_MODES:
            plan = make_plan(f, mode, "tanh")
            assert set(plan.variances) == set(f.weight_ids)

    def test_report_schema(self):
        f = builtin_format("htk2", c_in=16, c_out=16, rank=4, k=3, alpha=8)
        plan = make_plan(f, "graph-out", "relu")
        report = plan_report(f, plan)
        assert report["mode"] == "graph-out"
        assert report["p_a"] == 0.5
        assert report["phi"] == 4
        assert report["backbone"]["side"] == FAN_OUT
        assert len(report["backbone"]["adjacency"]) == 4
        parsed = json.loads(plan_report_json(f, plan))
        assert parsed == json.loads(json.dumps(report))

    def test_report_is_deterministic_bytes(self):
        f = builtin_format("tt", i_dims=(4, 4), o_dims=(4, 4), rank=3)
        plan = make_plan(f, "graph-in", "tanh")
        assert plan_report_json(f, plan) == plan_report_json(f, plan)
