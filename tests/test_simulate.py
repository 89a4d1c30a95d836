import json

import numpy as np
import pytest

from tcinit import network, simulate
from tcinit.errors import InvalidParams, ResourceLimit, ShapeMismatch
from tcinit.formats import builtin_format, parse_format
from tcinit.graph import InitPlan, make_plan
from tcinit.network import forward_apply, materialize
from tcinit.simulate import (
    LayerSpec,
    NetworkSpec,
    backward_trace,
    forward_trace,
    input_gradient,
    proposition_checks,
    report_csv,
    report_json,
    scale_chain,
    validate_network,
    variance_mc,
)
from tcinit.tensor import DenseTensor


# A 1-D conv layer whose kernel edge is declared before its input channels;
# its input is still (channels, spatial) = (2, 5), like its output.
KERNEL_FIRST = """\
vertex x input
vertex w weight
edge k0 kernel 3 w alpha 5 stride 1 pad 1
edge c input-channel 2 x w
edge o output-channel 2 w
"""


def linear_net(depth=3, dims=(4, 6), rank=3, mode="graph-in", act="identity"):
    f = builtin_format("tt", i_dims=dims, o_dims=dims, rank=rank)
    return NetworkSpec((LayerSpec(f, act, mode),) * depth, dims, batch=16)


class TestValidation:
    def test_accepts_compatible_chain(self):
        validate_network(linear_net())

    def test_rejects_wrong_input_shape(self):
        net = linear_net()
        bad = NetworkSpec(net.layers, (4, 7), batch=16)
        with pytest.raises(ShapeMismatch):
            validate_network(bad)

    def test_rejects_incompatible_layers(self):
        f1 = builtin_format("tt", i_dims=(4, 6), o_dims=(4, 5), rank=3)
        f2 = builtin_format("tt", i_dims=(4, 6), o_dims=(4, 6), rank=3)
        net = NetworkSpec(
            (LayerSpec(f1, "identity", "graph-in"), LayerSpec(f2, "identity", "graph-in")),
            (4, 6),
        )
        with pytest.raises(ShapeMismatch) as err:
            validate_network(net)
        assert "layer 1" in str(err.value)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParams):
            validate_network(NetworkSpec((), (4,)))

    def test_over_limit_input_raises_before_drawing(self):
        # The batched input would take 2**51 bytes.
        f = builtin_format("tt", i_dims=(2**15,) * 3, o_dims=(2,) * 3, rank=2)
        net = NetworkSpec((LayerSpec(f),), f.in_channel_dims, batch=8)
        with pytest.raises(ResourceLimit, match="network input"):
            forward_trace(net, seed=0, trials=1)

    def test_over_limit_layer_output_raises(self):
        f = builtin_format("tt", i_dims=(2,) * 3, o_dims=(2**15,) * 3, rank=2)
        net = NetworkSpec((LayerSpec(f),), f.in_channel_dims, batch=8)
        with pytest.raises(ResourceLimit, match="output of layer 0"):
            validate_network(net)

    def test_over_limit_plan_window_raises(self):
        # Input and output take a few MB, but each plan gathers a window of
        # [batch, c, alpha', beta] = 32 x 1 x (2**21 - 1) x 2**20 entries,
        # about 2**49 bytes.
        k = 2**20
        f = builtin_format(
            "standard", c_in=1, c_out=1, k=k, spatial=1, alpha=k, padding=k - 1
        )
        net = NetworkSpec((LayerSpec(f),), f.input_mode_dims(), batch=32)
        with pytest.raises(ResourceLimit, match="layer 0's forward pass"):
            validate_network(net)

    def test_conv_chain_spatial_compat(self):
        f = builtin_format(
            "standard", c_in=4, c_out=4, k=3, alpha=8, padding=1
        )
        net = NetworkSpec((LayerSpec(f, "identity", "graph-in"),) * 3, (4, 8, 8))
        validate_network(net)
        rep = forward_trace(net, seed=0, trials=2)
        assert len(rep.layers) == 3


class TestForwardTrace:
    def test_graph_in_preserves_variance(self):
        net = linear_net(depth=1)
        rep = forward_trace(net, seed=1, trials=30)
        assert rep.layers[0].pre_var == pytest.approx(1.0, rel=0.10)

    def test_tanh_saturation_low_under_graph_init(self):
        net = linear_net(depth=4, act="tanh")
        rep = forward_trace(net, seed=2, trials=10)
        assert all(l.saturation < 0.05 for l in rep.layers)

    def test_deterministic_across_worker_counts(self):
        net = linear_net(depth=3, act="tanh")
        a = forward_trace(net, seed=5, trials=8, workers=1)
        b = forward_trace(net, seed=5, trials=8, workers=4)
        assert report_json(a) == report_json(b)
        assert report_csv(a) == report_csv(b)

    @pytest.mark.parametrize("trace", [forward_trace, backward_trace])
    def test_no_trials_rejected(self, trace):
        with pytest.raises(InvalidParams, match="trials"):
            trace(linear_net(depth=1), seed=0, trials=0)

    def test_report_serialization(self):
        net = linear_net(depth=2)
        rep = forward_trace(net, seed=3, trials=3)
        parsed = json.loads(report_json(rep))
        assert parsed["seed"] == 3 and parsed["trials"] == 3
        assert len(parsed["layers"]) == 2
        csv_lines = report_csv(rep).strip().splitlines()
        assert csv_lines[0] == "layer,pre_var,post_var,grad_var,saturation"
        assert len(csv_lines) == 3


class TestBackwardTrace:
    def test_zero_upstream_gradient(self):
        net = linear_net(depth=2)
        rep = backward_trace(net, seed=1, trials=2, grad_var=0.0)
        assert all(l.grad_var == 0.0 for l in rep.layers)

    def test_graph_out_keeps_gradient_variance(self):
        net = linear_net(depth=5, dims=(8, 8), rank=4, mode="graph-out")
        rep = backward_trace(net, seed=2, trials=30)
        previous = 1.0
        for layer in reversed(rep.layers):
            assert 0.9 < layer.grad_var / previous < 1.1
            previous = layer.grad_var

    def test_gradients_match_finite_differences(self):
        for f in (
            builtin_format("tt", i_dims=(3, 3), o_dims=(3, 3), rank=2),
            parse_format(KERNEL_FIRST),
        ):
            self._check_input_gradient(f)

    @staticmethod
    def _check_input_gradient(f):
        dims = f.input_mode_dims()
        net = NetworkSpec(
            (LayerSpec(f, "tanh", "graph-in"), LayerSpec(f, "identity", "graph-in")),
            dims,
            batch=2,
        )
        plans = [make_plan(f, "graph-in", s.activation) for s in net.layers]
        layers = [materialize(f, plans[i], 10 + i) for i in range(2)]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2,) + dims)
        upstream = rng.standard_normal((2,) + f.output_mode_dims())
        grad = input_gradient(net, layers, x, upstream)
        assert grad.shape == x.shape

        def loss(xv):
            h = forward_apply(layers[0], DenseTensor.from_array(xv)).array
            h = np.tanh(h)
            y = forward_apply(layers[1], DenseTensor.from_array(h)).array
            return float((upstream * y).sum())

        eps = 1e-5
        flat = x.reshape(-1)
        for i in range(flat.size):
            xp, xm = flat.copy(), flat.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (loss(xp.reshape(x.shape)) - loss(xm.reshape(x.shape))) / (2 * eps)
            assert grad.reshape(-1)[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_relu_uses_exact_mask(self):
        net = linear_net(depth=2, act="relu")
        rep = backward_trace(net, seed=4, trials=3)
        assert all(l.grad_var > 0 for l in rep.layers)


class TestVarianceMc:
    def test_graph_in_ratio_near_one(self):
        # trial counts sized to the per-trial spread of each topology
        for name, params, trials in [
            ("standard", dict(c_in=16, c_out=16, k=3, alpha=8), 40),
            ("tr", dict(i_dims=(4, 4), o_dims=(4, 4), rank=3), 400),
        ]:
            f = builtin_format(name, **params)
            plan = make_plan(f, "graph-in", "tanh")
            r = variance_mc(f, plan, seed=6, trials=trials, batch=16)
            assert r["predicted_ratio"] == pytest.approx(1.0, rel=1e-9)
            assert r["empirical_ratio"] == pytest.approx(1.0, rel=0.10)

    def test_zero_variance_plan(self):
        f = builtin_format("standard", c_in=4, c_out=4, k=0)
        plan = InitPlan("graph-in", 1.0, 1, {"w": 0.0})
        r = variance_mc(f, plan, seed=1, trials=3)
        assert r["empirical_ratio"] == 0.0
        assert r["predicted_ratio"] == 0.0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        f = builtin_format("standard", c_in=4, c_out=4, k=0)
        plan = make_plan(f, "graph-in", "tanh")
        with pytest.raises(InvalidParams, match="trials"):
            variance_mc(f, plan, seed=1, trials=trials)


def per_trial_ratios(f, plan, seed, trials, batch):
    """Output/input variance ratios one trial at a time, through the public
    ``materialize`` and ``forward_apply`` on the streams variance_mc uses."""
    ratios = []
    for t in range(trials):
        k_in, k_w = np.random.SeedSequence([seed, t]).spawn(2)
        x = np.random.default_rng(k_in).standard_normal((batch,) + f.input_mode_dims())
        layer = materialize(f, plan, np.random.default_rng(k_w))
        y = forward_apply(layer, DenseTensor.from_array(x)).array
        ratios.append(y.var() / x.var())
    return np.array(ratios)


BLOCK_FORMATS = {
    "oddlike": dict(i_dims=(4, 5), o_dims=(4, 5), rank=3),
    "htk2": dict(c_in=4, c_out=4, r0=2, r1=3, k=3, alpha=5, padding=1),
}
BLOCK_BATCH = 2


class TestTrialBlocks:
    @pytest.fixture(scope="class", params=sorted(BLOCK_FORMATS))
    def case(self, request):
        f = builtin_format(request.param, **BLOCK_FORMATS[request.param])
        plan = make_plan(f, "graph-in", "tanh")
        return f, plan, per_trial_ratios(f, plan, 21, 130, BLOCK_BATCH)

    @staticmethod
    def shapes(f):
        x_shape = (BLOCK_BATCH,) + f.input_mode_dims()
        return x_shape, tuple(f.weight_mode_dims(vid) for vid in f.weight_ids)

    def block_size(self, f):
        return network._trial_block(f, *self.shapes(f))

    @staticmethod
    def assert_matches(result, ratios):
        assert result["empirical_ratio"] == pytest.approx(np.mean(ratios), rel=1e-12)
        assert result["empirical_std"] == pytest.approx(np.std(ratios), rel=1e-12)

    def test_cases_fill_whole_blocks(self, case):
        assert self.block_size(case[0]) == network.MAX_TRIAL_BLOCK == 64

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
    def test_matches_per_trial_reference(self, case, trials):
        f, plan, ratios = case
        result = variance_mc(f, plan, seed=21, trials=trials, batch=BLOCK_BATCH)
        assert result["trials"] == trials
        self.assert_matches(result, ratios[:trials])

    def test_partial_blocks_below_the_cap(self, case, monkeypatch):
        f, plan, ratios = case
        per_trial = 8 * network._plan(f, False, *self.shapes(f)).largest
        monkeypatch.setattr(network, "TRIAL_BLOCK_BYTES", 3 * per_trial)
        assert self.block_size(f) == 3
        result = variance_mc(f, plan, seed=21, trials=65, batch=BLOCK_BATCH)
        self.assert_matches(result, ratios[:65])

    def test_worker_invariant(self, case):
        f, plan, _ = case
        reports = {
            repr(variance_mc(f, plan, seed=4, trials=130, batch=BLOCK_BATCH, workers=w))
            for w in (1, 2, 4)
        }
        assert len(reports) == 1

    def test_over_limit_block_raises_before_drawing(self):
        # One trial's input alone would take 2**54 bytes.
        f = builtin_format("standard", c_in=16, c_out=16, k=3, alpha=2**22)
        with pytest.raises(ResourceLimit):
            variance_mc(f, make_plan(f, "graph-in", "tanh"), seed=0, trials=1)


class TestBlasThreads:
    @pytest.fixture
    def blas(self):
        blas = simulate._openblas()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS thread symbols are absent")
        get, set_ = blas
        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("OpenBLAS runs at most one thread on this host")
            yield get
        finally:
            set_(before)

    def test_pool_runs_at_one_thread_and_restores_the_count(self, blas):
        assert simulate._map_trials(lambda t: blas(), range(4), 2) == [1] * 4
        assert blas() == 2
        f = builtin_format("tt", i_dims=(4, 4), o_dims=(4, 4), rank=3)
        variance_mc(f, make_plan(f, "graph-in", "tanh"), seed=0, trials=8, workers=2)
        assert blas() == 2

    def test_single_worker_leaves_the_count(self, blas):
        assert simulate._map_trials(lambda t: blas(), range(2), 1) == [2] * 2


class TestScaleChain:
    def test_single_step_equals_dim(self):
        table = scale_chain(seed=0, trials=200, dims=(64, 32), batch=64)
        assert len(table) == 1
        assert table[0]["contracted_dim"] == 64
        assert table[0]["mean"] == pytest.approx(64, rel=0.05)

    def test_reports_spread(self):
        table = scale_chain(seed=1, trials=50, dims=(16, 8, 4), batch=32)
        assert all(row["std"] > 0 for row in table)

    def test_deterministic_and_worker_invariant(self):
        a = scale_chain(seed=2, trials=20, dims=(16, 8), workers=1)
        b = scale_chain(seed=2, trials=20, dims=(16, 8), workers=4)
        assert a == b

    def test_needs_two_dims(self):
        with pytest.raises(InvalidParams):
            scale_chain(seed=0, trials=1, dims=(5,))


class TestPropositions:
    def test_suite_passes(self):
        report = proposition_checks(seed=11)
        assert report["ok"]
        names = [c["name"] for c in report["checks"]]
        assert any("sum of two" in n for n in names)
        assert any("[4,5,6]" in n for n in names)

    def test_deterministic(self):
        assert proposition_checks(seed=3) == proposition_checks(seed=3)
