import dataclasses
import gc
import importlib.util
import itertools
import json
import math
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from tcinit import network, simulate, tensor
from tcinit.errors import InvalidParams, ResourceLimit, ShapeMismatch, ValidationError
from tcinit.formats import builtin_format, parse_format, random_format
from tcinit.graph import InitPlan, make_plan
from tcinit.network import backward_apply, forward_apply, materialize
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

from conftest import trial_block


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

    def test_rejects_no_batch(self):
        with pytest.raises(InvalidParams, match="batch must be >= 1"):
            validate_network(NetworkSpec(linear_net().layers, (4, 6), batch=0))

    @pytest.mark.parametrize("trials,workers,name", [
        (0, 1, "trials"), (1, 0, "workers"), (-5, -5, "trials"),
    ])
    def test_rejects_counts_below_one(self, trials, workers, name):
        # The run the block size is for would reject them too.
        with pytest.raises(InvalidParams, match=f"^{name} must be >= 1$"):
            validate_network(linear_net(), trials, workers)

    @pytest.mark.parametrize("build,error,message", [
        (lambda f: None, InvalidParams, "net must be of type NetworkSpec, got NoneType"),
        (lambda f: NetworkSpec((f,), (4, 6)), InvalidParams,
         "layer 0 must be of type LayerSpec, got LayerFormat"),
        (lambda f: NetworkSpec((LayerSpec(None),), (4, 6)), ValidationError,
         "layer 0's format must be of type LayerFormat, got NoneType"),
        (lambda f: NetworkSpec((LayerSpec(f),), None), ShapeMismatch,
         "input_shape must be a tuple of integers, got None"),
        (lambda f: NetworkSpec(LayerSpec(f), (4, 6)), InvalidParams,
         "layers must be a tuple or list, got LayerSpec"),
    ], ids=["net", "layer", "format", "input-shape", "layers"])
    def test_wrong_types_raise_the_error_of_a_wrong_value(self, build, error, message):
        with pytest.raises(error) as err:
            validate_network(build(linear_net().layers[0].format))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "act,mode,bad", [("sigmoid", "graph-in", "activation 'sigmoid'"),
                         ("tanh", "nope", "plan mode 'nope'")]
    )
    def test_rejects_unknown_activation_or_mode(self, act, mode, bad):
        f = linear_net().layers[0].format
        net = NetworkSpec((LayerSpec(f), LayerSpec(f, act, mode)), (4, 6))
        with pytest.raises(InvalidParams, match=f"layer 1 has unknown {bad}"):
            validate_network(net)

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

    def test_over_limit_plan_window_raises(self, monkeypatch):
        # The input [batch, c, alpha] and the output [batch, c, alpha'] fit
        # under the limit, but the window step's zero-padded input
        # [batch, alpha + 2 * padding, c] does not.  A batch of 31 has no
        # smaller tile.
        k = 2**20
        f = builtin_format(
            "standard", c_in=1, c_out=1, k=k, spatial=1, alpha=k, padding=k - 1
        )
        net = NetworkSpec((LayerSpec(f),), f.input_mode_dims(), batch=31)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 8 * 31 * (3 * k - 2) - 1)
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

    @pytest.mark.parametrize(
        "depth,act,with_workspace",
        [(6, "tanh", False), (4, "tanh", False), (3, "identity", True), (3, "tanh", True)],
    )
    def test_activations_one_trial_keeps_count_together(self, depth, act, with_workspace,
                                                        monkeypatch):
        # Every array fits under the limit on its own: the input and each
        # activation are [32, 4, 4] (4,096 bytes), the largest, the
        # zero-padded window input [32, 6, 4], takes 6,144 bytes, each
        # weight [4, 4, 3] takes 384 bytes and each direction's workspace
        # holds 14,720 bytes.  But a trial keeps its input and the weights
        # and the post-activation of every layer for the backward pass,
        # whatever the activation: with six layers 30,976 bytes and with
        # four 22,016.  With three it keeps 17,536 bytes, under the limit,
        # but its arena also holds the workspace and the 4,096-byte
        # temporary of its statistics, and the input's memory goes to the
        # second output: 32,256 bytes.
        f = builtin_format("standard", c_in=4, c_out=4, k=3, spatial=1, alpha=4, padding=1)
        net = NetworkSpec((LayerSpec(f, act),) * depth, f.input_mode_dims(), batch=32)
        kept = 8 * (depth * simulate._kept_entries(f, net.batch) + 32 * 4 * 4)
        assert (kept <= 18000) == with_workspace
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 18000)
        monkeypatch.setattr(simulate, "_draw", None)
        monkeypatch.setattr(simulate, "_stream", None)
        with pytest.raises(ResourceLimit, match="arena of a trial block"):
            backward_trace(net, seed=0, trials=1)

    def test_over_limit_workspace_raises_before_drawing(self, monkeypatch):
        # The same layer: every array and the activations fit, but with the
        # 14,720 bytes its forward workspace holds at once its arena does not.
        f = builtin_format("standard", c_in=4, c_out=4, k=3, spatial=1, alpha=4, padding=1)
        net = NetworkSpec((LayerSpec(f, "identity"),), f.input_mode_dims(), batch=32)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 14000)
        monkeypatch.setattr(simulate, "_draw", None)
        monkeypatch.setattr(simulate, "_stream", None)
        with pytest.raises(ResourceLimit, match="arena of a trial block"):
            forward_trace(net, seed=0, trials=1)

    def test_weights_one_trial_keeps_count_together(self, monkeypatch):
        # Each layer's weight [64, 64] takes 32,768 bytes and every array
        # fits under the limit, but a trial draws both replicas of every
        # layer before its forward pass and keeps them through its backward
        # pass: 327,680 bytes over five layers, and the two trials of the
        # block twice that.
        f = builtin_format("standard", c_in=64, c_out=64, k=0, phi=2)
        net = NetworkSpec((LayerSpec(f, "identity"),) * 5, f.input_mode_dims(), batch=1)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 40000)
        monkeypatch.setattr(simulate, "_draw", None)
        monkeypatch.setattr(simulate, "_stream", None)
        with pytest.raises(ResourceLimit, match="arena of a trial block"):
            backward_trace(net, seed=0, trials=2, workers=1)

    def test_concurrent_trials_keep_count_together(self, monkeypatch):
        # The same layer, in blocks of one trial: a trial's arena holds its
        # 4,096-byte input and 384-byte weight, a 14,720-byte workspace, a
        # 4,096-byte result and the 4,096-byte temporary of its statistics,
        # 27,392 bytes, but two blocks run at once by two workers hold twice
        # that.  One worker, or one trial, runs.
        f = builtin_format("standard", c_in=4, c_out=4, k=3, spatial=1, alpha=4, padding=1)
        net = NetworkSpec((LayerSpec(f, "identity"),), f.input_mode_dims(), batch=32)
        monkeypatch.setattr(network, "MAX_TRIAL_BLOCK", 1)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 32000)
        forward_trace(net, seed=0, trials=2, workers=1)
        forward_trace(net, seed=0, trials=1, workers=2)
        monkeypatch.setattr(simulate, "_stream", None)
        with pytest.raises(ResourceLimit, match="arenas of 2 trial blocks run at once"):
            forward_trace(net, seed=0, trials=2, workers=2)


class TestOneWalk:
    """Each distinct (layer, input shape) pair is analysed once per walk."""

    def test_repeated_layer_plans_are_looked_up_once(self, monkeypatch):
        calls = []
        original = simulate._plan

        def counting(f, backward, x_shape):
            calls.append(backward)
            return original(f, backward, x_shape)

        monkeypatch.setattr(simulate, "_plan", counting)
        validate_network(linear_net(depth=1000))
        assert sorted(calls) == [False, True]

    @staticmethod
    def distinct(net):
        """``net`` with every layer a distinct but equal ``LayerSpec``."""
        layers = tuple(dataclasses.replace(spec) for spec in net.layers)
        assert len({id(spec) for spec in layers}) == len(layers)
        return NetworkSpec(layers, net.input_shape, net.batch)

    @pytest.mark.parametrize("trials,workers", [(1, 1), (70, 1), (200, 2)])
    def test_repeated_layer_gives_the_distinct_layers_block(self, trials, workers):
        net = linear_net(depth=1000)
        assert (validate_network(net, trials, workers)
                == validate_network(self.distinct(net), trials, workers))

    # Per trial, a layer keeps 156 weight and 384 output entries: 4,320
    # bytes, 4.32e6 over the stack.  The first limit is over every array but
    # under the arena; the other two are under layer 0's largest array
    # (4,608 bytes) and its workspace (7,680 bytes).
    @pytest.mark.parametrize("limit", [2_000_000, 3_100, 5_000])
    def test_repeated_layer_raises_the_distinct_layers_text(self, limit, monkeypatch):
        net = linear_net(depth=1000)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", limit)
        with pytest.raises(ResourceLimit) as repeated:
            validate_network(net)
        with pytest.raises(ResourceLimit) as distinct:
            validate_network(self.distinct(net))
        assert str(repeated.value) == str(distinct.value)

    def test_repeated_layer_that_does_not_chain_names_layer_1(self):
        f = builtin_format("tt", i_dims=(4, 6), o_dims=(4, 5), rank=3)
        net = NetworkSpec((LayerSpec(f),) * 3, (4, 6))
        with pytest.raises(ShapeMismatch, match="layer 1 expects"):
            validate_network(net)


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
    @pytest.mark.parametrize("grad_var", [-1.0, math.nan, math.inf, "a", None, 10**400])
    def test_bad_grad_var_rejected_before_any_draw(self, grad_var, monkeypatch):
        monkeypatch.setattr(simulate, "_stream", None)
        with pytest.raises(InvalidParams, match="^grad_var must be a finite real >= 0, got "):
            backward_trace(linear_net(depth=1), 0, 2, grad_var=grad_var)

    def test_grad_var_of_any_real_type_runs(self):
        want = backward_trace(linear_net(depth=1), 0, 2, grad_var=2.0)
        assert backward_trace(linear_net(depth=1), 0, 2, grad_var=np.float64(2)) == want
        assert backward_trace(linear_net(depth=1), 0, 2, grad_var=2) == want
        assert backward_trace(linear_net(depth=1), 0, 2, grad_var=0).layers[0].grad_var == 0

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

    def test_identity_input_gradient_leaves_upstream(self):
        self._check_input_gradient_leaves_its_inputs("identity")

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    def test_input_gradient_leaves_x_and_upstream(self, act):
        # The passes overwrite their pre- and post-activations in place, but
        # never the caller's arrays.
        self._check_input_gradient_leaves_its_inputs(act)

    @staticmethod
    def _check_input_gradient_leaves_its_inputs(act):
        net = linear_net(depth=2, act=act)
        layers = [
            materialize(s.format, make_plan(s.format, s.mode, s.activation), 3 + i)
            for i, s in enumerate(net.layers)
        ]
        rng = np.random.default_rng(1)
        x = rng.standard_normal((net.batch, *net.input_shape))
        upstream = rng.standard_normal((net.batch, *net.layers[-1].format.output_mode_dims()))
        before, x_before = upstream.copy(), x.copy()
        grad = input_gradient(net, layers, x, upstream)
        assert np.array_equal(upstream, before) and np.array_equal(x, x_before)
        assert not np.shares_memory(grad, x) and not np.shares_memory(grad, upstream)

    def test_input_gradient_through_layers_of_two_shapes(self):
        # A layer whose result row is not as long as its input row contracts
        # backward into a pool array, not into its input: the gradient is
        # that of the per-layer calls, bit for bit.
        fa = builtin_format("tt", i_dims=(2, 3), o_dims=(3, 4), rank=2)
        fb = builtin_format("tt", i_dims=(3, 4), o_dims=(2, 3), rank=2)
        net = NetworkSpec((LayerSpec(fa, "tanh"), LayerSpec(fb, "relu")),
                          fa.input_mode_dims(), batch=3)
        layers = [materialize(s.format, make_plan(s.format, s.mode, s.activation), 5 + i)
                  for i, s in enumerate(net.layers)]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((net.batch, *fa.input_mode_dims()))
        upstream = rng.standard_normal((net.batch, *fb.output_mode_dims()))
        h = np.tanh(forward_apply(layers[0], DenseTensor.from_array(x)).array)
        y = forward_apply(layers[1], DenseTensor.from_array(h)).array
        g = backward_apply(layers[1], DenseTensor.from_array(upstream * (y > 0.0))).array
        want = backward_apply(layers[0], DenseTensor.from_array(g * (1.0 - h**2))).array
        assert input_gradient(net, layers, x, upstream).tobytes() == want.tobytes()

    def test_trial_keeps_only_the_post_activations(self, monkeypatch, trial_block_bytes):
        # A block's whole-batch arrays are views of its arena, and at depth 3
        # they take the memory of the three kept post-activations alone.  The
        # input's memory goes to the second layer's output once the first
        # layer has read it, each activation overwrites its pre-activation,
        # the output gradient is written into the last post-activation, and
        # each backward contraction writes into its own input, the gradient
        # at the layer's input.  A budget of one pairwise block (128
        # entries) keeps the statistics' scratch below a row of 384, so it
        # grows the workspace, which it works in, to no row.
        trial_block_bytes(8 * simulate._PAIRWISE_BLOCK)
        net = linear_net(depth=3, act="tanh")
        row = net.batch * math.prod(net.input_shape)
        layout = simulate._layout(net)[1]
        total, roles = layout
        assert len({at for at, shape in roles.values() if math.prod(shape) == row}) == 3
        assert roles["input"][0] == roles["output", 1][0]
        assert all(roles["gradient", i][0] == roles["output", i][0] for i in range(3))
        held = max(network._plan(s.format, b, (1, net.batch, *net.input_shape)).held
                   for s in net.layers for b in (False, True))
        assert roles["workspace"][1][0] <= max(held, row - 1)
        plan = make_plan(net.layers[0].format, "graph-in", "tanh")
        layers = [materialize(s.format, plan, i) for i, s in enumerate(net.layers)]
        arena = network._Arena(total)
        views = simulate._views(net, layout, arena, 1)
        views["weights"] = [[[w[vid].array[None] for vid in layer.format.weight_ids]
                             for w in layer.replicas] for layer in layers]
        views["input"][...] = np.random.default_rng(0).standard_normal(views["input"].shape)
        contract, order = simulate._contract, []

        def counting(f, x, replicas, backward, arena_, out):
            assert arena_ is arena and np.shares_memory(out, arena.memory)
            if backward:
                assert out.size == x.size and np.shares_memory(out, x)
                order.append(next(i for i in range(3) if x is views["output", i]))
            return contract(f, x, replicas, backward, arena_, out)

        def upstream(post, activation):
            assert post is views["output", 2] and activation == "tanh"
            tensor._activation_grad(np.ones(post.shape[1:]), post, activation)

        monkeypatch.setattr(simulate, "_contract", counting)
        rows, g = simulate._passes(net, views, arena, (lambda *_: (),) * 2, upstream)
        assert rows.shape == (1, 3, 1) and g.shape == views["input"].shape
        assert order == [2, 1, 0]
        # The input gradient is the first post-activation's memory.
        assert np.shares_memory(g, views["output", 0])
        monkeypatch.undo()
        # Through the runner, a call makes one arena per worker, of the
        # layout's total, for any number of blocks.
        trial_block_bytes(8 * simulate._PAIRWISE_BLOCK)
        monkeypatch.setattr(network, "MAX_TRIAL_BLOCK", 1)
        made = []
        monkeypatch.setattr(simulate, "_Arena", recording_arena(made))
        for trials in (1, 2):
            made.clear()
            simulate._run(net, 0, trials, 1, (lambda *_: (),) * 2, grad_var=1.0)
            assert made == [total]

    def test_conv_depth_block_makes_only_its_post_activations(self, monkeypatch):
        # The benchmark's conv stack (htk2, 32 channels, 32x32, batch 16,
        # five tanh layers): a trial's whole-batch arrays take the memory of
        # its five kept post-activations, the scratch of the statistics and
        # the gradient's draw, in the workspace, holds at most
        # TRIAL_BLOCK_BYTES, and each worker makes one arena, of the
        # layout's total.
        f = builtin_format("htk2", c_in=32, c_out=32, rank=8, k=3, padding=1, alpha=32)
        net = NetworkSpec((LayerSpec(f, "tanh"),) * 5, f.input_mode_dims(), batch=16)
        row = net.batch * math.prod(f.input_mode_dims())
        size, (total, roles) = simulate._layout(net, 2)
        assert len({at for at, shape in roles.values() if math.prod(shape) >= row}) == 5
        held = min(size, 2) * max(network._plan(f, b, (1, net.batch, *net.input_shape)).held
                                  for b in (False, True))
        assert 8 * roles["workspace"][1][0] <= max(8 * held, network.TRIAL_BLOCK_BYTES)
        made = []
        monkeypatch.setattr(simulate, "_Arena", recording_arena(made))
        backward_trace(net, seed=1, trials=2, workers=2)
        assert made == [total, total]

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("case,trials", [("conv_depth", 2), ("linear", 64), ("conv", 64)])
    def test_statistics_and_gradient_work_in_the_workspace(self, case, trials, backward):
        # A block has no temporary of its own: the statistics and the drawn
        # gradient run between contractions, in the workspace region, which
        # is at least as large as the temporary was: a row, or a span, per
        # trial of the largest row, and the last row's span for the draw.
        if case == "conv_depth":
            f = builtin_format("htk2", c_in=32, c_out=32, rank=8, k=3, padding=1, alpha=32)
            net = NetworkSpec((LayerSpec(f, "tanh"),) * 5, f.input_mode_dims(), batch=16)
        elif case == "conv":
            f = builtin_format("standard", c_in=4, c_out=4, k=3, alpha=8, padding=1)
            net = NetworkSpec((LayerSpec(f, "tanh"),) * 2, f.input_mode_dims(), batch=16)
        else:
            net = linear_net(depth=3, act="tanh")
        size, (total, roles) = simulate._layout(net, trials, 1, backward)
        n = min(size, trials)
        rows = [net.batch * math.prod(net.input_shape)]
        rows += [net.batch * math.prod(s.format.output_mode_dims()) for s in net.layers]
        temporary = max(n * min(max(rows), simulate._span(n)),
                        backward * min(rows[-1], simulate._span(1)))
        held = max(network._plan(s.format, b, (1, net.batch, *(
            s.format.output_mode_dims() if b else s.format.input_mode_dims()))).held
            for s in net.layers for b in (False, True)[:1 + backward])
        assert "temporary" not in roles
        assert roles["workspace"] == (0, (max(n * held, temporary),))


def recording_arena(made):
    """An arena that appends its entries to ``made`` when it is made."""

    class Recording(network._Arena):
        def __init__(self, entries):
            super().__init__(entries)
            made.append(entries)

    return Recording


FOLD_NETS = {
    "htk2-phi2": (
        builtin_format("htk2", c_in=4, c_out=4, r0=2, r1=2, k=3, alpha=6, padding=1, phi=2),
        "tanh",
        4,
    ),
    "tt": (builtin_format("tt", i_dims=(4, 6), o_dims=(4, 6), rank=3), "tanh", 8),
    "tt-relu": (builtin_format("tt", i_dims=(4, 4), o_dims=(4, 4), rank=3), "relu", 8),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FOLD_NETS))
def test_backward_trace_activation_fields_are_forward_traces(name, workers):
    """One backward trace is the whole simulate report: its activation
    statistics are those of forward_trace, float for float."""
    f, act, batch = FOLD_NETS[name]
    net = NetworkSpec((LayerSpec(f, act, "graph-in"),) * 3, f.input_mode_dims(), batch=batch)
    fwd = forward_trace(net, seed=9, trials=3, workers=workers)
    bwd = backward_trace(net, seed=9, trials=3, workers=workers)
    fields = ("pre_var", "pre_std", "post_var", "post_std", "saturation")
    for a, b in zip(fwd.layers, bwd.layers, strict=True):
        assert all(getattr(a, k) == getattr(b, k) for k in fields)
        assert b.grad_var > 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FOLD_NETS))
def test_trace_reports_do_not_depend_on_block_size(name, workers, trial_block_bytes):
    """A trial's statistics are those of the trial alone, in a block of any
    size: default blocks and blocks of one give the same report."""
    f, act, batch = FOLD_NETS[name]
    net = NetworkSpec((LayerSpec(f, act, "graph-in"),) * 3, f.input_mode_dims(), batch=batch)
    assert 28 <= validate_network(net, trials=70) <= 64
    blocked = report_json(backward_trace(net, seed=9, trials=70, workers=workers))
    trial_block_bytes(8)
    assert validate_network(net, trials=70) == 1
    assert report_json(backward_trace(net, seed=9, trials=70, workers=workers)) == blocked


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

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected_before_any_draw(self, batch, monkeypatch):
        f = builtin_format("standard", c_in=4, c_out=4, k=0)
        plan = make_plan(f, "graph-in", "tanh")
        monkeypatch.setattr(simulate, "_draw", None)
        with pytest.raises(InvalidParams, match="batch"):
            variance_mc(f, plan, seed=1, trials=2, batch=batch)

    def test_over_limit_trials_rejected_before_any_draw(self, monkeypatch):
        # One block fits, but the statistics rows of every trial do not.
        f = builtin_format("tt", i_dims=(4, 6), o_dims=(4, 6), rank=6)
        plan = make_plan(f, "graph-in", "tanh")
        monkeypatch.setattr(simulate, "_seed_words", None)
        with pytest.raises(ResourceLimit, match="statistics of 1000000000000 trials"):
            variance_mc(f, plan, seed=0, trials=10**12)


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
        return ((BLOCK_BATCH,) + f.input_mode_dims(),)

    def block_size(self, f):
        return trial_block(f, *self.shapes(f))

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

    def test_partial_blocks_below_the_cap(self, case, trial_block_bytes):
        f, plan, ratios = case
        per_trial = 8 * network._plan(f, False, (1, *self.shapes(f)[0])).largest
        trial_block_bytes(3 * per_trial)
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

    def test_block_result_counts_before_drawing(self, monkeypatch):
        # A block of 64 trials of this layer holds its input (4,096 bytes),
        # weights (32,768 bytes) and workspace (262,144 bytes): 299,008
        # bytes.  Its result, [64, 8, 64], and the result-sized temporary of
        # its variance take 524,288 bytes more.
        f = builtin_format("standard", c_in=1, c_out=64, k=0)
        x_shape = (8,) + f.input_mode_dims()
        assert trial_block(f, x_shape) == 64
        plan = network._plan(f, False, (1, *x_shape))
        assert 8 * 64 * (math.prod(x_shape) + 64 + plan.held) == 299_008
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 299_008)
        monkeypatch.setattr(simulate, "_draw", None)
        with pytest.raises(ResourceLimit, match="arena of a trial block"):
            variance_mc(f, make_plan(f, "graph-in", "identity"), seed=0, trials=64, batch=8)

    def test_over_limit_block_raises_before_drawing(self):
        # One trial's input alone would take 2**54 bytes.
        f = builtin_format("standard", c_in=16, c_out=16, k=3, alpha=2**22)
        with pytest.raises(ResourceLimit):
            variance_mc(f, make_plan(f, "graph-in", "tanh"), seed=0, trials=1)

    def test_batch_past_float_range_raises_resource_limit(self):
        f = builtin_format("tt", i_dims=(2, 3), o_dims=(3, 2), rank=2)
        with pytest.raises(ResourceLimit, match=r"batched network input needs 4\.800e\+401 bytes"):
            variance_mc(f, make_plan(f, "graph-in", "tanh"), 0, 2, batch=10**400)


DRAW_FORMATS = {
    "oddlike": builtin_format("oddlike", **BLOCK_FORMATS["oddlike"]),
    "htk2-phi4": builtin_format("htk2", **BLOCK_FORMATS["htk2"], phi=4),
}


class TestBlockDraws:
    """The runner draws a block's weights and inputs, one fill per trial and
    stream and one affine step per block, bit for bit as ``materialize`` and
    numpy's samplers draw one trial's from its streams, whatever the block."""

    @staticmethod
    def plan(f, kind):
        if kind == "zero":
            return InitPlan("graph-in", 1.0, f.phi, {vid: 0.0 for vid in f.weight_ids})
        return make_plan(f, "graph-in", "tanh", kind)

    @staticmethod
    def numpy_weights(f, plan, rng):
        out = []
        for _ in range(f.phi):
            for vid in f.weight_ids:
                v, shape = plan.variances[vid], f.weight_mode_dims(vid)
                half = np.sqrt(3.0 * v)
                out.append(rng.uniform(-half, half, shape) if plan.distribution == "uniform"
                           else rng.normal(0.0, np.sqrt(v), shape))
        return out

    @pytest.mark.parametrize("kind", ["normal", "uniform", "zero"])
    @pytest.mark.parametrize("name,block,trials", [("oddlike", 64, 65), ("htk2-phi4", 2, 3),
                                                   ("htk2-phi4", 1, 2)])
    def test_equal_materialize_and_numpy(self, name, block, trials, kind, monkeypatch):
        f = DRAW_FORMATS[name]
        plan = self.plan(f, kind)
        net = NetworkSpec((LayerSpec(f),), f.input_mode_dims(), BLOCK_BATCH)
        monkeypatch.setattr(network, "MAX_TRIAL_BLOCK", block)
        assert validate_network(net, trials, backward=False) == block
        drawn, sizes = [], []

        def passes(net_, views, arena, measure, upstream=None):
            n = len(views["input"])
            sizes.append(n)
            for t in range(n):
                drawn.append((views["input"][t].copy(),
                              [w[t].copy() for replica in views["weights"][0] for w in replica]))
            return np.zeros((n, 1, 1)), None

        monkeypatch.setattr(simulate, "_passes", passes)
        simulate._run(net, 7, trials, 1, None, inits=[plan])
        assert sizes == [block] * (trials // block) + [trials % block] * (trials % block > 0)
        for t, (x, weights) in enumerate(drawn):
            k_in, k_w = np.random.SeedSequence([7, t]).spawn(2)
            want = np.random.default_rng(k_in).standard_normal(x.shape)
            assert x.tobytes() == want.tobytes()
            layer = materialize(f, plan, np.random.default_rng(k_w))
            made = [w[vid].array for w in layer.replicas for vid in f.weight_ids]
            sampled = self.numpy_weights(f, plan, np.random.default_rng(k_w))
            for got, one, other in zip(weights, made, sampled, strict=True):
                assert got.tobytes() == one.tobytes() == other.tobytes()


class TestStreams:
    """Each trial's streams are numpy's own: ``SeedSequence([seed, t])`` or
    its ``spawn`` children, seeded into ``default_rng``, bit for bit."""

    @staticmethod
    def numpy_streams(seed, t, n):
        root = np.random.SeedSequence([seed, t])
        return [np.random.default_rng(s) for s in ([root] if n is None else root.spawn(n))]

    # n: the root stream of scale_chain, variance_mc's 2 children and
    # _trace's len(layers) + 2 at depths 1 and 5.
    @pytest.mark.parametrize("n", [None, 2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, np.int64(7)])
    @pytest.mark.parametrize("trials", [range(0, 4), range(2**32 - 2, 2**32 + 2)])
    def test_states_and_draws_match_numpy(self, n, seed, trials):
        words = simulate._seed_words(seed, trials, None if n is None else range(n))
        assert words.shape == (len(trials), n or 1, 4)
        generator = np.random.Generator(np.random.PCG64())
        for t, got in zip(trials, words):
            for stream, rng in zip(got, self.numpy_streams(seed, t, n), strict=True):
                loaded = simulate._stream(generator, stream)
                assert loaded.bit_generator.state == rng.bit_generator.state
                assert np.array_equal(loaded.standard_normal(5), rng.standard_normal(5))
                assert np.array_equal(loaded.random(3), rng.random(3))

    def test_trace_draws_the_spawned_children(self):
        # Trial t draws its input from the first child of
        # SeedSequence([seed, t]), layer i's weights from child i + 1 and
        # the upstream gradient from the last.
        net = linear_net(depth=2, act="tanh")
        plans = [make_plan(s.format, s.mode, s.activation) for s in net.layers]
        rows = []
        for t in range(2):
            kids = [np.random.default_rng(k) for k in np.random.SeedSequence([5, t]).spawn(4)]
            layers = [materialize(s.format, p, k) for s, p, k in zip(net.layers, plans, kids[1:])]
            x = kids[0].standard_normal((net.batch, *net.input_shape))
            pre = forward_apply(layers[0], DenseTensor.from_array(x)).array
            g = kids[3].standard_normal((net.batch, *net.input_shape))
            rows.append((pre.var(), input_gradient(net, layers, x, g).var()))
        pre_var, grad_var = np.asarray(rows).mean(axis=0)
        layer = backward_trace(net, seed=5, trials=2).layers[0]
        assert (layer.pre_var, layer.grad_var) == (pre_var, grad_var)

    def test_seed_words_are_held_one_chunk_at_a_time(self, monkeypatch):
        # A million trials: the seed words of at most SEED_CHUNK trials
        # exist at once, and the blocks are those of one pass over all trials.
        f = builtin_format("tt", i_dims=(4, 6), o_dims=(4, 6), rank=6)
        size = trial_block(f, (BLOCK_BATCH,) + f.input_mode_dims())
        chunks, blocks = [], []

        # Each trial's words stand in as its index, so a block's words name
        # its trials.
        def words(seed, trials, keys):
            chunks.append(len(trials))
            return list(trials)

        def block(pool, rng, words):
            blocks.append(words)
            return np.ones((len(words), 1, 2))

        map_seeded = simulate._map_seeded
        monkeypatch.setattr(simulate, "_seed_words", words)
        monkeypatch.setattr(simulate, "_map_seeded", lambda fn, *args: map_seeded(block, *args))
        trials = 10**6
        variance_mc(f, make_plan(f, "graph-in", "tanh"), 0, trials, batch=BLOCK_BATCH)
        assert max(chunks) <= simulate.SEED_CHUNK and sum(chunks) == trials
        assert blocks == [list(range(lo, min(lo + size, trials)))
                          for lo in range(0, trials, size)]


def holds_array(obj, seen=None) -> bool:
    """Whether an ndarray is reachable from ``obj`` through containers,
    dataclass instances and thread-local storage."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = obj
    elif isinstance(obj, threading.local) or (
        dataclasses.is_dataclass(obj) and not isinstance(obj, type)
    ):
        children = vars(obj).values()
    else:
        return False
    return any(holds_array(child, seen) for child in children)


class TestWorkspaceScope:
    """Padded buffers live only as long as the call that made them: no plan
    and no module keeps them."""

    F = builtin_format("standard", c_in=4, c_out=4, k=3, padding=1, alpha=12)
    BATCH = 2

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_no_plan_or_module_holds_an_array(self, workers):
        plan = make_plan(self.F, "graph-in", "tanh")
        variance_mc(self.F, plan, seed=0, trials=9, batch=self.BATCH, workers=workers)
        net = NetworkSpec((LayerSpec(self.F, "tanh"),), self.F.input_mode_dims(), self.BATCH)
        backward_trace(net, seed=0, trials=3, workers=workers)
        plans = [o for o in gc.get_objects() if isinstance(o, network._Plan)]
        assert plans
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tcinit"]
        for root in plans + [vars(m) for m in modules]:
            assert not holds_array(root)

    def test_retains_less_than_one_padded_buffer(self):
        plan = make_plan(self.F, "graph-in", "tanh")
        x_shape = (self.BATCH,) + self.F.input_mode_dims()
        block = trial_block(self.F, x_shape)
        steps = network._plan(self.F, False, (block, *x_shape)).steps
        padded = max(8 * math.prod(s.buffers[0]) for s in steps if isinstance(s, network._Shift))
        np.random.default_rng(0)  # numpy imports its random module on first use
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            variance_mc(self.F, plan, seed=0, trials=block, batch=self.BATCH)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < padded


def _load_parity():
    """``tools/parity.py``, whose layer grid the peak test samples."""
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("_tool_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBlockPool:
    """What a block holds: the statistics work through one temporary, and a
    block's arena, laid out once, bounds what a run holds."""

    def test_statistics_have_numpys_bits(self):
        rng = np.random.default_rng(3)
        a = np.tanh(3.0 * rng.standard_normal((3, 16, 8, 32)))
        tmp = np.full(a.size + 1, np.nan)
        flat = a.reshape(3, -1)
        assert simulate._var(a, tmp).tobytes() == flat.var(axis=1).tobytes()
        want = (np.abs(flat) > simulate.SATURATION_THRESHOLD).mean(axis=1)
        assert 0 < want.min() and simulate._saturation(a, tmp).tobytes() == want.tobytes()
        # Both worked through the temporary, as large as the array.
        assert not np.isnan(tmp[:a.size]).any() and np.isnan(tmp[a.size:]).all()

    @pytest.mark.parametrize("length", ["span-1", "span", "span+1", "2**19", "odd", "2**19+1"])
    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_statistics_through_spans_have_numpys_bits(self, trials, length):
        # Rows longer than a span are summed span by span along numpy's
        # pairwise tree, through one temporary of at most TRIAL_BLOCK_BYTES.
        span = simulate._span(trials)
        n = {"span-1": span - 1, "span": span, "span+1": span + 1, "2**19": 1 << 19,
             "odd": 3 * span + 5, "2**19+1": (1 << 19) + 1}[length]
        self._check_statistics(trials, n)
        assert 8 * trials * span <= network.TRIAL_BLOCK_BYTES

    @pytest.mark.parametrize("n", [127, 128, 129, 1000, 4099])
    def test_statistics_through_pairwise_blocks_have_numpys_bits(self, n, trial_block_bytes):
        # The smallest span is one of numpy's unsplit pairwise blocks.
        trial_block_bytes(8)
        assert simulate._span(2) == simulate._PAIRWISE_BLOCK
        self._check_statistics(2, n)

    @staticmethod
    def _check_statistics(trials, n):
        rng = np.random.default_rng(n + trials)
        a = np.tanh(3.0 * rng.standard_normal((trials, n))) + 0.25
        used = trials * min(n, simulate._span(trials))
        tmp = np.full(trials * n + 1, np.nan)
        assert simulate._var(a, tmp).tobytes() == a.var(axis=1).tobytes()
        want = (np.abs(a) > simulate.SATURATION_THRESHOLD).mean(axis=1)
        assert 0 < want.min() and simulate._saturation(a, tmp).tobytes() == want.tobytes()
        # Both worked within a row or one span per trial of the temporary.
        assert np.isnan(tmp[used:]).all()

    def test_conv_depth_directions_share_one_workspace(self):
        # A conv_depth layer's forward and backward plans take turns in one
        # workspace at the front of the arena: it holds the larger of the
        # two, and no other array lies in it.
        f = builtin_format("htk2", c_in=32, c_out=32, rank=8, k=3, padding=1, alpha=32)
        net = NetworkSpec((LayerSpec(f, "tanh"),) * 5, f.input_mode_dims(), batch=16)
        dims = f.input_mode_dims()
        held = [network._plan(f, backward, (1, 16, *dims)).held for backward in (False, True)]
        total, roles = simulate._layout(net, 2)[1]
        assert roles["workspace"] == (0, (max(held),))
        assert min(at for role, (at, _) in roles.items() if role != "workspace") == max(held)
        assert total < sum(held) + sum(math.prod(s) for role, (_, s) in roles.items()
                                       if role != "workspace")

    def test_forward_peak_within_counted_bytes(self, monkeypatch):
        # The traced peak of one forward-only run (one _run call, three
        # blocks) over layers of seven shapes stays within the arena
        # validate_network counts for a block plus an allowance for what it
        # leaves out (see the network module docstring): numpy's copies of
        # one GEMM step's two operands, the largest pair of any plan, and
        # 64 KiB of ufunc buffers.
        chain = [(4, 6), (6, 8), (3, 5), (8, 8), (5, 7), (7, 3), (6, 6), (4, 6)]
        net = NetworkSpec(
            tuple(LayerSpec(builtin_format("tt", i_dims=a, o_dims=b, rank=3), "tanh")
                  for a, b in zip(chain, chain[1:])),
            chain[0], batch=16,
        )
        counted = []
        check = simulate._check_array

        def spy(shape, what):
            if what == "the arena of a trial block":
                counted.append(8 * math.prod(shape))
            check(shape, what)

        monkeypatch.setattr(simulate, "_check_array", spy)
        forward_trace(net, seed=0, trials=100)  # compiles the plans
        block = validate_network(net, trials=100, backward=False)
        assert block < 100
        operands = max(
            math.prod(step.a_shape) + math.prod(step.b_shape)
            for spec in net.layers
            for step in network._plan(spec.format, False,
                                      (block, net.batch, *spec.format.input_mode_dims())).steps
            if isinstance(step, network._Gemm)
        )
        counted.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forward_trace(net, seed=0, trials=100)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(counted) == 1
        assert counted[0] <= peak <= counted[0] + 8 * operands + (64 << 10)

    def test_run_peak_within_the_arena_over_the_parity_grid(self, monkeypatch):
        # One _run call per layer of a sample of tools/parity.py's grid (its
        # small builtins and random_format(0..9), at its batches), forward
        # only and backward, over two blocks of at most 4 trials, the second
        # of one trial, so that the call stays short under tracemalloc: the
        # traced peak holds the whole
        # arena, and at most the arena plus an allowance for what the layout
        # leaves out: numpy's copies of the largest pair of GEMM operands of
        # any plan the call runs, and numpy's ufunc buffers, taken as two
        # operands of np.getbufsize() doubles, which also covers the call's
        # seed words and per-trial figures (about 20 KB at most here).
        parity = _load_parity()
        measure = (lambda tmp, x, pre: (simulate._var(pre, tmp),),
                   lambda tmp, post: (simulate._var(post, tmp),
                                      simulate._saturation(post, tmp)))
        allowance = 2 * 8 * np.getbufsize()
        ratios = []
        monkeypatch.setattr(network, "MAX_TRIAL_BLOCK", 4)
        simulate._map_seeded(lambda *_: [[0.0]], 0, 1, None, 1)  # loads what a call loads once
        for name, f, batches in parity.grid():
            if name in parity.SMALL_BUILTINS or name in {f"random{s}" for s in range(10)}:
                for batch, backward in itertools.product(batches, (False, True)):
                    net = NetworkSpec((LayerSpec(f, "tanh"),), f.input_mode_dims(), batch)
                    size = validate_network(net, 1, 1, backward)
                    trials, grad_var = size + 1, 1.0 if backward else None
                    total = simulate._layout(net, trials, 1, backward)[1][0]
                    directions = (False, True)[:1 + backward]
                    # Compiles the plans of whole blocks; validate_network compiled
                    # those of the last block, of one trial.
                    operands = max([
                        math.prod(step.a_shape) + math.prod(step.b_shape)
                        for b in directions
                        for step in network._plan(f, b, (size, batch, *(
                            f.output_mode_dims() if b else f.input_mode_dims()))).steps
                        if isinstance(step, network._Gemm)], default=0)
                    tracemalloc.start()
                    try:
                        simulate._run(net, 0, trials, 1, measure, grad_var)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert 8 * total <= peak <= 8 * (total + operands) + allowance, name
                    ratios.append(peak / (8 * total))
        assert len(ratios) == 2 * 2 * 18


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
        rows = simulate._map_seeded(lambda pool, rng, words: [[blas()]] * len(words),
                                    0, 4, None, 2)
        assert rows.tolist() == [[1]] * 4
        assert blas() == 2
        f = builtin_format("tt", i_dims=(4, 4), o_dims=(4, 4), rank=3)
        variance_mc(f, make_plan(f, "graph-in", "tanh"), seed=0, trials=8, workers=2)
        assert blas() == 2

    def test_interleaved_contexts_restore_the_count_when_the_last_closes(self, blas):
        first, second = simulate._one_blas_thread(), simulate._one_blas_thread()
        first.__enter__()
        second.__enter__()
        assert blas() == 1
        first.__exit__(None, None, None)
        assert blas() == 1
        second.__exit__(None, None, None)
        assert blas() == 2

    def test_threads_running_worker_pools_restore_the_count(self, blas):
        # Four callers, each with a pool of two workers, on a short switch
        # interval: whatever order they enter and leave in, the count comes
        # back once the last one leaves.
        f = builtin_format("tt", i_dims=(4, 4), o_dims=(4, 4), rank=3)
        plan = make_plan(f, "graph-in", "tanh")
        start, results = threading.Barrier(4), []

        def run():
            start.wait()
            results.append(variance_mc(f, plan, seed=0, trials=300, workers=2))

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert blas() == 2
        assert len(results) == 4 and all(r == results[0] for r in results)

    def test_single_worker_runs_at_one_thread_and_restores_the_count(self, blas):
        # One worker is the calling thread, and BLAS runs at one thread there.
        caller = threading.get_ident()
        rows = simulate._map_seeded(
            lambda pool, rng, words: [[blas(), threading.get_ident() == caller]] * len(words),
            0, 2, None, 1)
        assert rows.tolist() == [[1, 1]] * 2
        assert blas() == 2


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

    @pytest.mark.parametrize(
        "dims,batch,word", [((4, 0), 2, "dims"), ((0, 4), 2, "dims"), ((4, 4), 0, "batch")]
    )
    def test_batch_or_dims_below_one_rejected_before_any_draw(self, dims, batch, word, monkeypatch):
        monkeypatch.setattr(simulate, "_map_seeded", None)
        with pytest.raises(InvalidParams, match=word):
            scale_chain(seed=0, trials=2, dims=dims, batch=batch)


    @pytest.mark.parametrize(
        "dims", [(2.5, 2), (2, float("nan")), (float("inf"), 2), "ab", (4, "4"), 4, (2j, 2)]
    )
    def test_non_integral_or_non_numeric_dims_rejected_before_any_draw(self, dims, monkeypatch):
        monkeypatch.setattr(simulate, "_map_seeded", None)
        with pytest.raises(InvalidParams, match="dims"):
            scale_chain(seed=0, trials=1, dims=dims)

    def test_over_limit_trials_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(simulate, "_seed_words", None)
        with pytest.raises(ResourceLimit, match="scales of 1000000000000 trials"):
            scale_chain(seed=0, trials=10**12, dims=(4, 4))

    @pytest.mark.parametrize("dims,what", [((10**400, 2), "chain input"),
                                           ((2, 10**400), "weight of chain step 1")])
    def test_dims_past_float_range_raise_resource_limit(self, dims, what):
        with pytest.raises(ResourceLimit, match=what):
            scale_chain(seed=0, trials=1, dims=dims)

    def test_integral_dims_of_any_number_type_run(self):
        want = scale_chain(seed=0, trials=2, dims=(6, 4))
        assert scale_chain(seed=0, trials=2, dims=(np.int64(6), 4.0)) == want


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers, monkeypatch):
    monkeypatch.setattr(simulate, "_stream", None)
    with pytest.raises(InvalidParams, match="^workers must be >= 1$"):
        forward_trace(linear_net(), 0, 2, workers)


class TestPropositions:
    def test_suite_passes(self):
        report = proposition_checks(seed=11)
        assert report["ok"]
        names = [c["name"] for c in report["checks"]]
        assert any("sum of two" in n for n in names)
        assert any("[4,5,6]" in n for n in names)

    def test_deterministic(self):
        assert proposition_checks(seed=3) == proposition_checks(seed=3)

    @pytest.mark.parametrize("samples", [0, -1, 2.5, "a", None, True])
    def test_bad_samples_rejected_before_any_draw(self, samples, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(InvalidParams, match="samples"):
            proposition_checks(seed=0, samples=samples)

    def test_one_sample_gives_finite_figures(self):
        report = proposition_checks(seed=0, samples=1)
        assert all(math.isfinite(c["measured"]) for c in report["checks"])

    def test_over_limit_samples_raise_before_drawing(self):
        with pytest.raises(ResourceLimit, match="a proposition-check sample"):
            proposition_checks(seed=0, samples=10**30)

    def test_each_array_is_checked_before_it_is_drawn(self, monkeypatch):
        # The 1,000-sample arrays fit, but some contraction case draws an
        # operand of more entries than that.
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 8 * 1000)
        with pytest.raises(ResourceLimit, match="a proposition-check sample"):
            proposition_checks(seed=0, samples=1000)


def _seeded_layer_args():
    f = builtin_format("standard", c_in=4, c_out=4, k=0)
    return f, make_plan(f, "graph-in", "tanh")


SEEDED = {
    "forward_trace": lambda seed: forward_trace(linear_net(depth=1), seed, trials=1),
    "backward_trace": lambda seed: backward_trace(linear_net(depth=1), seed, trials=1),
    "variance_mc": lambda seed: variance_mc(*_seeded_layer_args(), seed, trials=1),
    "materialize": lambda seed: materialize(*_seeded_layer_args(), seed),
    "scale_chain": lambda seed: scale_chain(seed, trials=1, dims=(4, 4)),
    "proposition_checks": lambda seed: proposition_checks(seed, samples=100),
    "random_format": lambda seed: random_format(seed),
    "random_format-sequence": lambda seed: random_format([0, seed]),
}


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_negative_seed_rejected_before_any_draw(entry, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(InvalidParams, match="seed"):
        SEEDED[entry](-1)


@pytest.mark.parametrize("seed", [1.5, "a", None])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_wrong_type_seed_rejected_before_any_draw(entry, seed, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(InvalidParams, match="seed must be an integer"):
        SEEDED[entry](seed)


@pytest.mark.parametrize("entry", ["variance_mc", "scale_chain", "backward_trace"])
def test_sequence_seed_rejected_where_trials_are_seeded(entry):
    with pytest.raises(InvalidParams, match=r"^seed must be an integer, got \[0, 1\]$"):
        SEEDED[entry]([0, 1])


def test_negative_seed_message_is_unchanged():
    with pytest.raises(InvalidParams) as exc:
        SEEDED["variance_mc"](-1)
    assert str(exc.value) == "seed must be >= 0, got -1"


def _net_of_batch(batch):
    return NetworkSpec(linear_net(depth=1).layers, (4, 6), batch)


# Each runner entry point, called with (trials, batch, workers).
RUNNERS = {
    "variance_mc": lambda t, b, w: variance_mc(*_seeded_layer_args(), 0, t, b, w),
    "forward_trace": lambda t, b, w: forward_trace(_net_of_batch(b), 0, t, w),
    "backward_trace": lambda t, b, w: backward_trace(_net_of_batch(b), 0, t, w),
    "validate_network": lambda t, b, w: validate_network(_net_of_batch(b), t, w),
    "scale_chain": lambda t, b, w: scale_chain(0, t, (4, 4), b, w),
}


@pytest.mark.parametrize("value", [2.5, "a", None, (1, 2), True])
@pytest.mark.parametrize("name", ["trials", "batch", "workers"])
@pytest.mark.parametrize("entry", sorted(RUNNERS))
def test_count_of_wrong_type_rejected_before_any_draw(entry, name, value, monkeypatch):
    monkeypatch.setattr(simulate, "_stream", None)
    counts = {"trials": 1, "batch": 2, "workers": 1, name: value}
    with pytest.raises(InvalidParams, match=f"^{name} must be an integer, got "):
        RUNNERS[entry](*counts.values())


@pytest.mark.parametrize("name", ["trials", "batch", "workers"])
@pytest.mark.parametrize("entry", sorted(RUNNERS))
def test_count_below_one_message_is_unchanged(entry, name):
    counts = {"trials": 1, "batch": 2, "workers": 1, name: 0}
    with pytest.raises(InvalidParams, match=f"^{name} must be >= 1$"):
        RUNNERS[entry](*counts.values())


def test_generator_and_sequence_seeds_still_pass():
    f, plan = _seeded_layer_args()
    layer = materialize(f, plan, np.random.default_rng(3))
    assert layer.replicas[0]["w"] == materialize(f, plan, 3).replicas[0]["w"]
    assert random_format([0, 1]) == random_format((0, 1))
    assert SEEDED["variance_mc"](np.int64(2)) == SEEDED["variance_mc"](2)
