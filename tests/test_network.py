import numpy as np
import pytest

import tcinit
from tcinit import network, tensor, transform
from tcinit.errors import PlanIncomplete, ShapeMismatch
from tcinit.formats import BUILTIN_NAMES, builtin_format, parse_format
from tcinit.graph import InitPlan, make_plan
from tcinit.network import backward_apply, forward_apply, materialize
from tcinit.tensor import DenseTensor, build_dummy, multi_contract
from tcinit.transform import backward_dummy, backward_pattern, theorem1_grid


def direct_conv2d(x, w, stride, padding):
    """Nested-loop 2-D convolution oracle for a plain kernel [cin,cout,k,k]."""
    b, cin, h, _ = x.shape
    _, cout, k, _ = w.shape
    out_len = (h + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((b, cout, out_len, out_len))
    for i in range(out_len):
        for j in range(out_len):
            patch = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.einsum("bcuv,couv->bo", patch, w)
    return out


def zero_plan(f):
    return InitPlan("graph-in", 1.0, f.phi, {vid: 0.0 for vid in f.weight_ids})


class TestMaterialize:
    def test_standard_kernel_shape(self):
        f = builtin_format("standard", c_in=3, c_out=5, k=3, alpha=8)
        layer = materialize(f, make_plan(f, "graph-in", "tanh"), 0)
        assert layer.replicas[0]["w"].shape == (3, 5, 3, 3)
        assert len(layer.replicas) == 1

    def test_phi_replicas(self):
        f = builtin_format("htk2", c_in=4, c_out=4, rank=2, k=3, alpha=8)
        layer = materialize(f, make_plan(f, "graph-in", "tanh"), 0)
        assert len(layer.replicas) == 4
        w_first = layer.replicas[0]["w0"].array
        w_last = layer.replicas[3]["w0"].array
        assert not np.array_equal(w_first, w_last)

    def test_zero_variance_plan_gives_zero_output(self):
        f = builtin_format("standard", c_in=3, c_out=4, k=3, alpha=8)
        layer = materialize(f, zero_plan(f), 0)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        out = forward_apply(layer, DenseTensor.from_array(x))
        assert np.array_equal(out.array, np.zeros_like(out.array))

    def test_empirical_variance(self):
        f = builtin_format("standard", c_in=50, c_out=50, k=0)
        plan = InitPlan("graph-in", 1.0, 1, {"w": 0.04})
        layer = materialize(f, plan, 7)
        w = layer.replicas[0]["w"].array
        assert w.size == 2500
        samples = np.concatenate(
            [materialize(f, plan, seed).replicas[0]["w"].data for seed in range(40)]
        )
        assert samples.size == 100_000
        assert samples.var() == pytest.approx(0.04, rel=0.03)
        assert abs(samples.mean()) < 0.01

    def test_uniform_distribution(self):
        f = builtin_format("standard", c_in=100, c_out=100, k=0)
        plan = InitPlan("graph-in", 1.0, 1, {"w": 0.25}, distribution="uniform")
        w = materialize(f, plan, 1).replicas[0]["w"].array
        assert np.abs(w).max() <= np.sqrt(3 * 0.25)
        assert w.var() == pytest.approx(0.25, rel=0.05)

    def test_plan_incomplete(self):
        f = builtin_format("htk2", c_in=4, c_out=4, rank=2, k=3, alpha=8)
        partial = InitPlan("graph-in", 1.0, 4, {"w0": 0.1})
        with pytest.raises(PlanIncomplete):
            materialize(f, partial, 0)

    def test_deterministic_per_seed(self):
        f = builtin_format("tt", i_dims=(3, 4), o_dims=(3, 4), rank=2)
        plan = make_plan(f, "graph-in", "tanh")
        a = materialize(f, plan, 11)
        b = materialize(f, plan, 11)
        for va, vb in zip(a.replicas, b.replicas):
            for vid in f.weight_ids:
                assert va[vid] == vb[vid]


class TestForward:
    def test_standard_conv_matches_direct(self):
        for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            f = builtin_format(
                "standard", c_in=3, c_out=5, k=3, alpha=9,
                stride=stride, padding=padding,
            )
            layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
            x = np.random.default_rng(1).standard_normal((2, 3, 9, 9))
            got = forward_apply(layer, DenseTensor.from_array(x)).array
            want = direct_conv2d(x, layer.replicas[0]["w"].array, stride, padding)
            assert np.allclose(got, want, atol=1e-10)

    def test_linear_factorized_matches_reassembled_kernel(self):
        # contract the TT cores into one dense matrix and compare
        f = builtin_format("tt", i_dims=(3, 4), o_dims=(2, 5), rank=3)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 2)
        w0 = layer.replicas[0]["w0"].array  # [i0, r0, o0]
        w1 = layer.replicas[0]["w1"].array  # [i1, r0, o1]
        dense = np.einsum("iro,jrp->ijop", w0, w1)
        x = np.random.default_rng(3).standard_normal((4, 3, 4))
        want = np.einsum("bij,ijop->bop", x, dense)
        got = forward_apply(layer, DenseTensor.from_array(x)).array
        assert np.allclose(got, want, atol=1e-10)

    def test_phi_sums_replica_outputs(self):
        f = builtin_format("lowrank", c_in=3, c_out=4, rank=2, k=0, phi=3)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 5)
        x = np.random.default_rng(4).standard_normal((2, 3))
        got = forward_apply(layer, DenseTensor.from_array(x)).array
        want = sum(
            np.einsum("bc,cr,ro->bo", x, rep["w0"].array, rep["w1"].array)
            for rep in layer.replicas
        )
        assert np.allclose(got, want, atol=1e-10)

    def test_shape_mismatch(self):
        f = builtin_format("standard", c_in=3, c_out=4, k=3, alpha=8)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        with pytest.raises(ShapeMismatch):
            forward_apply(layer, DenseTensor.from_array(np.ones((2, 3, 7, 7))))


class TestBackward:
    def _fd_check(self, f, seed=0, rel=1e-5):
        rng = np.random.default_rng(seed)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), seed)
        x = rng.standard_normal((2,) + f.input_mode_dims())
        y = forward_apply(layer, DenseTensor.from_array(x)).array
        upstream = rng.standard_normal(y.shape)
        grad = backward_apply(layer, DenseTensor.from_array(upstream)).array
        assert grad.shape == x.shape

        def loss(xv):
            return float(
                (upstream * forward_apply(layer, DenseTensor.from_array(xv)).array).sum()
            )

        eps = 1e-5
        flat = x.reshape(-1)
        idxs = rng.choice(flat.size, size=min(24, flat.size), replace=False)
        for i in idxs:
            xp, xm = flat.copy(), flat.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (loss(xp.reshape(x.shape)) - loss(xm.reshape(x.shape))) / (2 * eps)
            assert grad.reshape(-1)[i] == pytest.approx(fd, rel=rel, abs=1e-8)

    def test_strided_conv_gradient(self):
        f = builtin_format(
            "standard", c_in=2, c_out=3, k=3, alpha=8, stride=2, padding=1
        )
        self._fd_check(f)

    def test_factorized_conv_gradient(self):
        f = builtin_format("tucker2", c_in=3, c_out=3, rank=2, k=3, alpha=6)
        self._fd_check(f)

    def test_cp_gradient(self):
        f = builtin_format("cp", c_in=3, c_out=3, rank=2, k=2, alpha=5)
        self._fd_check(f)

    def test_phi_gradient(self):
        f = builtin_format("htk2", c_in=3, c_out=3, rank=2, k=2, alpha=5)
        self._fd_check(f)

    def test_linear_stack_matches_chain_rule(self):
        f = builtin_format("tt", i_dims=(3, 4), o_dims=(3, 4), rank=2)
        rng = np.random.default_rng(9)
        layers = [
            materialize(f, make_plan(f, "graph-in", "identity"), s) for s in (1, 2)
        ]
        x = rng.standard_normal((2, 3, 4))
        h = forward_apply(layers[0], DenseTensor.from_array(x)).array
        y = forward_apply(layers[1], DenseTensor.from_array(h)).array
        upstream = rng.standard_normal(y.shape)
        g1 = backward_apply(layers[1], DenseTensor.from_array(upstream)).array
        g0 = backward_apply(layers[0], DenseTensor.from_array(g1)).array

        # chain rule through explicitly reassembled dense matrices
        def dense(layer):
            w0 = layer.replicas[0]["w0"].array
            w1 = layer.replicas[0]["w1"].array
            return np.einsum("iro,jrp->ijop", w0, w1).reshape(12, 12)

        gd = upstream.reshape(2, 12) @ dense(layers[1]).T @ dense(layers[0]).T
        assert np.allclose(g0.reshape(2, 12), gd, rtol=1e-8, atol=1e-10)

    def test_gradient_shape_mismatch(self):
        f = builtin_format("standard", c_in=3, c_out=4, k=3, alpha=8)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        with pytest.raises(ShapeMismatch):
            backward_apply(layer, DenseTensor.from_array(np.ones((2, 4, 5, 5))))


ADJOINT_BUILTINS = {
    "standard": dict(c_in=3, c_out=4, k=3, alpha=7, stride=2, padding=1),
    "lowrank": dict(c_in=3, c_out=4, rank=2, k=3, alpha=(6, 8), padding=2),
    "tucker2": dict(c_in=3, c_out=4, r0=2, r1=3, k=2, alpha=7, stride=3),
    "htk2": dict(c_in=3, c_out=4, rank=2, k=3, alpha=6, padding=1),
    "cp": dict(c_in=3, c_out=4, rank=2, k=3, alpha=7, stride=2),
    "tt": dict(i_dims=(2, 3, 2), o_dims=(3, 2, 2), rank=2, k=3, spatial=1, alpha=6),
    "tr": dict(i_dims=(2, 3), o_dims=(3, 2), rank=2, k=2, alpha=5),
    "oddlike": dict(i_dims=(2, 3), o_dims=(3, 2), rank=2),
}

# Two weights share the input-channel edge i0 and two share the
# output-channel edge o0, so the backward format has both kinds of shared
# open index.
SHARED_CHANNELS = """\
phi 2
vertex x input
vertex a weight
vertex b weight
vertex c weight
edge i0 input-channel 3 x a b
edge i1 input-channel 2 x c
edge k0 kernel 3 c alpha 6 stride 2 pad 1
edge r0 rank 2 a b
edge r1 rank 3 b c
edge o0 output-channel 4 a c
edge o1 output-channel 2 b
"""

# One layer declared twice: only the k0 line moves, ahead of the input
# channels.  No weight's incident-edge order changes, so the layer and its
# input layout (channels, then spatial) are the same.
CHANNELS_FIRST = """\
phi 2
vertex x input
vertex a weight
vertex b weight
edge i0 input-channel 3 x a
edge i1 input-channel 2 x a
edge k0 kernel 3 b alpha 7 stride 2 pad 1
edge r rank 4 a b
edge k1 kernel 2 b alpha 6 stride 1 pad 0
edge o0 output-channel 5 b
"""
KERNEL_FIRST = """\
phi 2
vertex x input
vertex a weight
vertex b weight
edge k0 kernel 3 b alpha 7 stride 2 pad 1
edge i0 input-channel 3 x a
edge i1 input-channel 2 x a
edge r rank 4 a b
edge k1 kernel 2 b alpha 6 stride 1 pad 0
edge o0 output-channel 5 b
"""


def assert_adjoint(f, seed=0):
    """<forward(x), g> == <x, backward(g)> to 1e-10 of |forward(x)| |g|."""
    rng = np.random.default_rng(seed)
    layer = materialize(f, make_plan(f, "graph-in", "identity"), seed)
    x = rng.standard_normal((3,) + f.input_mode_dims())
    g = rng.standard_normal((3,) + f.output_mode_dims())
    y = forward_apply(layer, DenseTensor.from_array(x)).array
    gx = backward_apply(layer, DenseTensor.from_array(g)).array
    assert y.shape == g.shape and gx.shape == x.shape
    scale = np.linalg.norm(y) * np.linalg.norm(g)
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) <= 1e-10 * scale


class TestAdjoint:
    def test_covers_every_builtin(self):
        assert set(ADJOINT_BUILTINS) == set(BUILTIN_NAMES)

    @pytest.mark.parametrize("name", sorted(ADJOINT_BUILTINS))
    def test_builtin(self, name):
        assert_adjoint(builtin_format(name, **ADJOINT_BUILTINS[name]))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize(
        "beta,padding", [(b, p) for b in (1, 2, 3, 4) for p in range(b)]
    )
    def test_conv_geometry(self, stride, beta, padding):
        for spatial, alpha in ((1, 7), (2, (5, 8))):
            f = builtin_format(
                "tucker2", c_in=2, c_out=3, rank=2, k=beta, spatial=spatial,
                alpha=alpha, stride=stride, padding=padding,
            )
            assert_adjoint(f, seed=stride + beta + padding)

    def test_shared_channel_edges(self):
        assert_adjoint(parse_format(SHARED_CHANNELS))

    def test_kernel_line_position_leaves_the_layer_unchanged(self):
        first, kernel_first = parse_format(CHANNELS_FIRST), parse_format(KERNEL_FIRST)
        for vid in first.weight_ids:
            assert first.edges_of(vid) == kernel_first.edges_of(vid)
        assert kernel_first.input_mode_dims() == first.input_mode_dims() == (3, 2, 7, 6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2,) + first.input_mode_dims())
        g = rng.standard_normal((2,) + first.output_mode_dims())
        plan = make_plan(first, "graph-in", "identity")
        results = []
        for f in (first, kernel_first):
            layer = materialize(f, plan, 7)
            results.append(
                (
                    forward_apply(layer, DenseTensor.from_array(x)).array,
                    backward_apply(layer, DenseTensor.from_array(g)).array,
                )
            )
            assert_adjoint(f)
        for got, want in zip(results[1], results[0]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_shared_output_channel_forward(self):
        f = parse_format(SHARED_CHANNELS)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 4)
        x = np.random.default_rng(5).standard_normal((2, 3, 2, 6))
        pattern = build_dummy(f.kernel_edges[0].window).array
        want = sum(
            np.einsum(
                "nijt,iro,irqp,jkqo,tsk->nops",
                x, rep["a"].array, rep["b"].array, rep["c"].array, pattern,
            )
            for rep in layer.replicas
        )
        got = forward_apply(layer, DenseTensor.from_array(x)).array
        assert np.allclose(got, want, atol=1e-10)


def assert_oracle(f, fwd_wiring, bwd_wiring, seed=0):
    """Windowed forward and backward against ``multi_contract`` with the
    ``build_dummy`` and ``backward_pattern`` patterns, summed over replicas.

    A wiring is ``(groups, open_axes)`` over the tensors (input or
    gradient, weights in declaration order, one pattern per kernel edge);
    the backward weights are flipped along their kernel axes.
    """
    rng = np.random.default_rng(seed)
    layer = materialize(f, make_plan(f, "graph-in", "identity"), seed)
    x = rng.standard_normal((2,) + f.input_mode_dims())
    g = rng.standard_normal((2,) + f.output_mode_dims())
    windows = [e.window for e in f.kernel_edges]
    fwd_patterns = [build_dummy(w) for w in windows]
    bwd_patterns = [backward_pattern(backward_dummy(w)) for w in windows]
    for arg, patterns, wiring, apply, flip in (
        (x, fwd_patterns, fwd_wiring, forward_apply, False),
        (g, bwd_patterns, bwd_wiring, backward_apply, True),
    ):
        want = 0.0
        for rep in layer.replicas:
            weights = []
            for vid in f.weight_ids:
                kernel_axes = [
                    i for i, e in enumerate(f.edges_of(vid)) if flip and e.kind == "kernel"
                ]
                weights.append(DenseTensor.from_array(np.flip(rep[vid].array, kernel_axes)))
            tensors = [DenseTensor.from_array(arg), *weights, *patterns]
            want = want + multi_contract(tensors, *wiring).array
        got = apply(layer, DenseTensor.from_array(arg)).array
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# x[n,c,a] w[c,o,k] P[a,a',k] -> [n,o,a']; g[n,o,a'] w[c,o,k] Q[a',a,k] -> [n,c,a]
STANDARD_1D_FWD = ([[(0, 1), (1, 0)], [(0, 2), (2, 0)], [(1, 2), (2, 2)]],
                   [(0, 0), (1, 1), (2, 1)])
STANDARD_1D_BWD = ([[(0, 1), (1, 1)], [(0, 2), (2, 0)], [(1, 2), (2, 2)]],
                   [(0, 0), (1, 0), (2, 1)])
# x[n,c,a,b] w0[c,r] w1[r,k,l,s] w2[s,o] P0[a,a',k] P1[b,b',l] -> [n,o,a',b']
TUCKER2_2D_FWD = (
    [[(0, 1), (1, 0)], [(1, 1), (2, 0)], [(2, 3), (3, 0)],
     [(0, 2), (4, 0)], [(0, 3), (5, 0)], [(2, 1), (4, 2)], [(2, 2), (5, 2)]],
    [(0, 0), (3, 1), (4, 1), (5, 1)],
)
# g[n,o,a',b'] w0 w1 w2 Q0[a',a,k] Q1[b',b,l] -> [n,c,a,b]
TUCKER2_2D_BWD = (
    [[(0, 1), (3, 1)], [(1, 1), (2, 0)], [(2, 3), (3, 0)],
     [(0, 2), (4, 0)], [(0, 3), (5, 0)], [(2, 1), (4, 2)], [(2, 2), (5, 2)]],
    [(0, 0), (1, 0), (4, 1), (5, 1)],
)


class TestPatternOracle:
    def test_standard_1d_over_theorem1_grid(self):
        checked = 0
        for spec in theorem1_grid():
            f = builtin_format(
                "standard", c_in=2, c_out=2, k=spec.beta, spatial=1,
                alpha=spec.alpha, stride=spec.stride, padding=spec.padding,
            )
            assert_oracle(f, STANDARD_1D_FWD, STANDARD_1D_BWD, seed=checked)
            checked += 1
        assert checked == 441

    def test_tucker2_2d_non_square(self):
        f = builtin_format(
            "tucker2", c_in=3, c_out=2, r0=2, r1=3, k=3, alpha=(7, 10),
            stride=2, padding=1, phi=2,
        )
        assert_oracle(f, TUCKER2_2D_FWD, TUCKER2_2D_BWD)


CONV_BUILTINS = [name for name in sorted(ADJOINT_BUILTINS) if "k" in ADJOINT_BUILTINS[name]]


class TestNoPatternBuilt:
    @pytest.mark.parametrize("name", CONV_BUILTINS)
    def test_conv_builtin_runs_without_patterns(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the engine built a pattern tensor")

        for module in (tcinit, tensor, transform, network):
            for attr in ("build_dummy", "backward_pattern", "build_backward_dummy"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        network._plan.cache_clear()
        assert_adjoint(builtin_format(name, **ADJOINT_BUILTINS[name]))

    def test_window_far_beyond_pattern_memory(self):
        # The [alpha, alpha', beta] pattern of this layer would take about
        # 240 GB; the windowed engine needs a few MB.
        f = builtin_format("standard", c_in=2, c_out=2, k=3, spatial=1,
                           padding=1, alpha=100_000)
        rng = np.random.default_rng(0)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        x = rng.standard_normal((1,) + f.input_mode_dims())
        g = rng.standard_normal((1,) + f.output_mode_dims())
        y = forward_apply(layer, DenseTensor.from_array(x)).array
        gx = backward_apply(layer, DenseTensor.from_array(g)).array
        assert y.shape == g.shape and gx.shape == x.shape
        scale = np.linalg.norm(y) * np.linalg.norm(g)
        assert abs(np.vdot(y, g) - np.vdot(x, gx)) <= 1e-10 * scale


class TestTrialAxis:
    """A leading trial axis runs independent trials in one contraction."""

    @pytest.mark.parametrize(
        "f",
        [
            builtin_format("tucker2", c_in=3, c_out=2, r0=2, r1=3, k=3,
                           alpha=(7, 10), stride=2, padding=1, phi=2),
            parse_format(SHARED_CHANNELS),
            builtin_format("oddlike", **ADJOINT_BUILTINS["oddlike"]),
        ],
        ids=["tucker2-2d", "shared-channels", "oddlike"],
    )
    @pytest.mark.parametrize("backward", [False, True])
    def test_equals_stacked_per_trial_results(self, f, backward):
        plan = make_plan(f, "graph-in", "identity")
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        rng = np.random.default_rng(3)
        args = [rng.standard_normal((2,) + dims) for _ in range(3)]
        layers = [materialize(f, plan, seed) for seed in range(3)]
        apply = backward_apply if backward else forward_apply
        want = np.stack(
            [apply(l, DenseTensor.from_array(a)).array for l, a in zip(layers, args)]
        )
        replicas = [
            [np.stack([l.replicas[r][vid].array for l in layers]) for vid in f.weight_ids]
            for r in range(f.phi)
        ]
        got = network._contract(f, np.stack(args), replicas, backward, trial_axis=True)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_block_size_follows_the_largest_array(self, monkeypatch):
        f = builtin_format("standard", c_in=2, c_out=2, k=3, alpha=6)
        x_shape, w_shapes = (2,) + f.input_mode_dims(), (f.weight_mode_dims("w"),)
        # The largest array is the gathered window [n, c, a', b', k, l].
        per_trial = 8 * 2 * 2 * 4 * 4 * 3 * 3
        assert network._plan(f, False, x_shape, w_shapes).largest * 8 == per_trial
        monkeypatch.setattr(network, "TRIAL_BLOCK_BYTES", 5 * per_trial + 7)
        assert network._trial_block(f, x_shape, w_shapes) == 5
        monkeypatch.setattr(network, "TRIAL_BLOCK_BYTES", per_trial - 1)
        assert network._trial_block(f, x_shape, w_shapes) == 1
        monkeypatch.setattr(network, "TRIAL_BLOCK_BYTES", 1 << 40)
        assert network._trial_block(f, x_shape, w_shapes) == network.MAX_TRIAL_BLOCK


def test_einsum_optimize_arguments_are_hashable_named_strategies(monkeypatch):
    """Tools that key einsum calls on ``optimize`` need a hashable value;
    an explicit ``["einsum_path", ...]`` list would not be."""
    seen = []
    original = np.einsum

    def recording(*args, **kwargs):
        seen.append(kwargs.get("optimize", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    network._plan.cache_clear()
    for name in sorted(ADJOINT_BUILTINS):
        assert_adjoint(builtin_format(name, **ADJOINT_BUILTINS[name]))
    assert_adjoint(parse_format(SHARED_CHANNELS))
    assert seen
    for optimize in seen:
        hash(optimize)
        assert not (isinstance(optimize, tuple) and optimize[:1] == ("einsum_path",))
