import importlib.util
import logging
import math
import re
import sys
import tracemalloc
from pathlib import Path
from string import ascii_letters

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tcinit
import tcinit.cli
from tcinit import network, simulate, tensor, transform
from tcinit.errors import PlanIncomplete, ResourceLimit, ShapeMismatch
from tcinit.formats import BUILTIN_NAMES, builtin_format, parse_format, random_format
from tcinit.graph import InitPlan, make_plan
from tcinit.network import backward_apply, forward_apply, materialize
from tcinit.simulate import variance_mc
from tcinit.tensor import DenseTensor, build_dummy, multi_contract
from tcinit.transform import backward_dummy, backward_pattern, theorem1_grid

from conftest import trial_block


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


def stacked_replicas(f, layers):
    """Per replica, each vertex's weights of ``layers``, one trial each,
    stacked along a leading trial axis."""
    return [
        [np.stack([l.replicas[r][vid].array for l in layers]) for vid in f.weight_ids]
        for r in range(f.phi)
    ]


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

    def test_over_limit_weight_raises_before_allocating(self, monkeypatch):
        # One weight [64, 64, 3, 3] takes 294,912 bytes.
        f = builtin_format("standard", c_in=64, c_out=64, k=3, alpha=8)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 1000)
        monkeypatch.setattr(network, "_draw", None)
        with pytest.raises(ResourceLimit, match="weight of vertex 'w'"):
            materialize(f, make_plan(f, "graph-in", "identity"), 0)

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
        with pytest.raises(
            ShapeMismatch,
            match=re.escape("input shape (3, 7, 7) does not match layer input (3, 8, 8)"),
        ):
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
        with pytest.raises(
            ShapeMismatch,
            match=re.escape("gradient shape (4, 5, 5) does not match layer output (4, 6, 6)"),
        ):
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


def assert_oracle(f, fwd_wiring, bwd_wiring, seed=0, bounded=False):
    """Windowed forward and backward against ``multi_contract`` with the
    ``build_dummy`` and ``backward_pattern`` patterns, summed over replicas.

    A wiring is ``(groups, open_axes)`` over the tensors (input or
    gradient, weights in declaration order, one pattern per kernel edge);
    the backward weights are flipped along their kernel axes.

    Without ``bounded`` the two agree to rtol 1e-12.  With it, each output
    is held to the forward-error bound that every summation order meets
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §3.1): ``|engine - reference| <= 2 * gamma(n) * S``, where ``S`` is the
    same contraction on absolute values, ``gamma(n) = n*u / (1 - n*u)`` and
    ``n = 2N`` counts the products the dense contraction forms for one
    output: two for each of its ``N`` terms of input, weight and pattern
    entry.  Either evaluation rounds a term at most ``N + 1`` times (two
    products, at most ``N - 1`` additions), so it lies within
    ``gamma(N + 1) * S`` of the exact sum; ``gamma(2N)`` also covers the
    rounding of ``S`` itself, and the factor 2 covers the two evaluations.
    The bound admits any order of summation, such as one offset at a time,
    where cancelling terms leave an output far below ``S``.
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
        want = scale = 0.0
        for rep in layer.replicas:
            weights = []
            for vid in f.weight_ids:
                kernel_axes = [
                    i for i, e in enumerate(f.edges_of(vid)) if flip and e.kind == "kernel"
                ]
                weights.append(DenseTensor.from_array(np.flip(rep[vid].array, kernel_axes)))
            tensors = [DenseTensor.from_array(arg), *weights, *patterns]
            want = want + multi_contract(tensors, *wiring).array
            magnitudes = [DenseTensor.from_array(np.abs(t.array)) for t in tensors]
            scale = scale + multi_contract(magnitudes, *wiring).array
        got = apply(layer, DenseTensor.from_array(arg)).array
        if not bounded:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            continue
        n = 2 * f.phi * math.prod(tensors[t].shape[ax] for (t, ax), *_ in wiring[0])
        u = np.finfo(np.float64).eps / 2
        gamma = n * u / (1 - n * u)
        over = np.abs(got - want) > 2 * gamma * scale
        assert not over.any(), f"{over.sum()} outputs outside the summation bound"


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
            assert_oracle(f, STANDARD_1D_FWD, STANDARD_1D_BWD, seed=checked, bounded=True)
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


class TestPeakMemory:
    """A window step holds the zero-padded input, the sum and one offset's
    product: a few input-sized arrays, not one window copy per offset."""

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_conv_layer_allocates_at_most_five_inputs(self, backward):
        f = builtin_format("standard", c_in=16, c_out=16, k=3, padding=1, alpha=32)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        arg = DenseTensor.from_array(np.random.default_rng(0).standard_normal((8,) + dims))
        apply = backward_apply if backward else forward_apply
        apply(layer, arg)  # compiles the plan
        tracemalloc.start()
        try:
            apply(layer, arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * arg.data.nbytes


class TestTrialAxis:
    """A leading trial axis runs independent trials in one contraction; a
    per-trial call is a block of one."""

    # The random formats pair their operands differently when the path
    # search sees the trial index, which every operand holds.  At batch 1,
    # shared-channels ends in a GEMM step whose left operand a block of one
    # reads as a strided view and a block of three as a copy, unless the
    # trial index is a matmul batch axis of its own.
    @pytest.mark.parametrize(
        "f,batch",
        [
            (builtin_format("tucker2", c_in=3, c_out=2, r0=2, r1=3, k=3,
                            alpha=(7, 10), stride=2, padding=1, phi=2), 2),
            (parse_format(SHARED_CHANNELS), 2),
            (builtin_format("oddlike", **ADJOINT_BUILTINS["oddlike"]), 2),
            (parse_format(SHARED_CHANNELS), 1),
            *((random_format(seed), 2) for seed in (6, 12, 18, 26, 39)),
        ],
        ids=["tucker2-2d", "shared-channels", "oddlike", "shared-channels-batch1",
             *(f"random{seed}" for seed in (6, 12, 18, 26, 39))],
    )
    @pytest.mark.parametrize("backward", [False, True])
    def test_equals_stacked_per_trial_results(self, f, batch, backward):
        plan = make_plan(f, "graph-in", "identity")
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        rng = np.random.default_rng(3)
        args = [rng.standard_normal((batch,) + dims) for _ in range(3)]
        layers = [materialize(f, plan, seed) for seed in range(3)]
        apply = backward_apply if backward else forward_apply
        want = np.stack(
            [apply(l, DenseTensor.from_array(a)).array for l, a in zip(layers, args)]
        )
        replicas = stacked_replicas(f, layers)
        got = network._contract(f, np.stack(args), replicas, backward)
        assert got.tobytes() == want.tobytes()

    def test_block_size_follows_the_largest_array(self, trial_block_bytes):
        f = builtin_format("standard", c_in=2, c_out=2, k=3, alpha=6)
        x_shape = (2,) + f.input_mode_dims()
        # The largest array is the input [n, c, a, b]; unpadded, the window
        # step's buffer has its size.
        per_trial = 8 * 2 * 2 * 6 * 6
        assert network._plan(f, False, (1, *x_shape)).largest * 8 == per_trial
        trial_block_bytes(5 * per_trial + 7)
        assert trial_block(f, x_shape) == 5
        # A batch of 2 has no smaller tile, so one trial runs whole.
        trial_block_bytes(per_trial - 1)
        assert trial_block(f, x_shape) == 1
        assert network._plan(f, False, (1, *x_shape)).rows == 2
        trial_block_bytes(1 << 40)
        assert trial_block(f, x_shape) == network.MAX_TRIAL_BLOCK

    def test_concurrent_blocks_over_limit_raise_before_drawing(self, monkeypatch):
        # What one block holds fits under the limit, but two workers would
        # hold it twice.  The limit only bounds blocks that run at once:
        # one worker, or one block, runs.
        f = builtin_format("standard", c_in=4, c_out=4, k=3, padding=1, alpha=16, phi=2)
        x_shape = (2,) + f.input_mode_dims()
        block = trial_block(f, x_shape)
        # Per block: the input, both replicas' [4, 4, 3, 3] weights, the
        # workspace, the result and the temporary of its variance, each at
        # its offset in the block's arena.
        net = simulate.NetworkSpec((simulate.LayerSpec(f),), f.input_mode_dims(), batch=2)
        total, _ = simulate._layout(net, block, 1, backward=False)[1]
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 8 * total)
        init = make_plan(f, "graph-in", "identity")
        variance_mc(f, init, seed=0, trials=2 * block, batch=2, workers=1)
        variance_mc(f, init, seed=0, trials=block, batch=2, workers=2)
        monkeypatch.setattr(simulate, "_draw", None)
        with pytest.raises(ResourceLimit, match="arenas of 2 trial blocks run at once"):
            variance_mc(f, init, seed=0, trials=2 * block, batch=2, workers=2)

    def test_block_workspace_over_limit_raises_before_drawing(self, monkeypatch):
        # The workspace holds the padded input, the weight copy, the sum and
        # each offset's product at once: more than the largest array alone.
        f = builtin_format("standard", c_in=4, c_out=4, k=3, padding=1, alpha=16, phi=2)
        x_shape = (2,) + f.input_mode_dims()
        plan = network._plan(f, False, (1, *x_shape))
        buffers = [s for step in plan.steps for s in step.buffers] + list(plan.buffers)
        assert plan.held == sum(math.prod(s) for s in buffers)
        # Four trials run as one block, which the arena is laid out for.
        block = min(trial_block(f, x_shape), 4)
        assert block * plan.largest < block * plan.held
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 8 * block * plan.largest)
        monkeypatch.setattr(simulate, "_draw", None)
        with pytest.raises(ResourceLimit, match="arena of a trial block"):
            variance_mc(f, make_plan(f, "graph-in", "identity"), seed=0, trials=4, batch=2)

    def test_block_weights_over_limit_raise_before_drawing(self, monkeypatch):
        # A block of 16 trials of this layer holds its input (65,536 bytes),
        # both replicas' [64, 64] weights (1,048,576 bytes) and its
        # workspace (131,072 bytes) at once: 1,245,184 bytes.  Its largest
        # array, one vertex's weights (524,288 bytes), and its workspace
        # each fit under the limit.
        f = builtin_format("standard", c_in=64, c_out=64, k=0, phi=2)
        x_shape = (8,) + f.input_mode_dims()
        assert trial_block(f, x_shape) == 16
        assert network._plan(f, False, (1, *x_shape)).held == 1024
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 524_296)
        monkeypatch.setattr(simulate, "_draw", None)
        with pytest.raises(ResourceLimit, match="arena of a trial block"):
            variance_mc(f, make_plan(f, "graph-in", "identity"), seed=0, trials=16, batch=8,
                        workers=1)


def test_einsum_optimize_arguments_are_hashable_named_strategies(monkeypatch):
    """Compiling a plan searches its path once; running it calls no einsum,
    in either direction, for a block of trials or for one.  ``multi_contract``
    still runs einsum, with a hashable named ``optimize`` strategy: tools
    that key einsum calls on it need one, and an explicit
    ``["einsum_path", ...]`` list would not be."""
    seen = []
    original = np.einsum

    def recording(*args, **kwargs):
        seen.append(kwargs.get("optimize", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    network._plan.cache_clear()
    formats = [builtin_format(name, **ADJOINT_BUILTINS[name]) for name in sorted(ADJOINT_BUILTINS)]
    for f in formats + [parse_format(SHARED_CHANNELS)]:
        assert_adjoint(f)
        layers = [materialize(f, make_plan(f, "graph-in", "identity"), seed) for seed in range(2)]
        replicas = stacked_replicas(f, layers)
        for backward in (False, True):
            dims = f.output_mode_dims() if backward else f.input_mode_dims()
            x = np.random.default_rng(0).standard_normal((2, 3) + dims)
            network._contract(f, x, replicas, backward)
    assert seen == []

    a = DenseTensor.from_array(np.ones((2, 3)))
    b = DenseTensor.from_array(np.ones((3, 4)))
    multi_contract([a, b], [[(0, 1), (1, 0)]], [(0, 0), (1, 1)])
    assert seen
    for optimize in seen:
        hash(optimize)
        assert not (isinstance(optimize, tuple) and optimize[:1] == ("einsum_path",))


# Edge ids that name the engine's own axes must not be confused with them.
AXIS_NAMED_EDGES = """\
phi 2
vertex x input
vertex a weight
vertex b weight
edge trial input-channel 3 x a
edge batch rank 2 a b
edge k kernel 3 b alpha 6 stride 2 pad 1
edge o output-channel 4 b
"""

CONV_NAMES = ("standard", "lowrank", "tucker2", "htk2", "cp")


def conv_builtin(seed):
    """A conv builtin drawn from ``seed``: 1-3 spatial axes, stride 1-3,
    padding below k."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    name = CONV_NAMES[draw(0, len(CONV_NAMES) - 1)]
    k, spatial = draw(1, 3), draw(1, 3)
    params = dict(
        c_in=draw(1, 3), c_out=draw(1, 3), k=k, spatial=spatial,
        alpha=tuple(draw(k, k + 5) for _ in range(spatial)),
        stride=draw(1, 3), padding=draw(0, k - 1), phi=draw(1, 2),
    )
    if name in ("lowrank", "cp"):
        params["rank"] = draw(1, 3)
    elif name != "standard":
        params["r0"], params["r1"] = draw(1, 3), draw(1, 3)
    return builtin_format(name, **params)


def dense_forward(f, layer, x):
    """The forward pass as one einsum written from the format's edges, with
    one ``build_dummy`` pattern ``[alpha, alpha', beta]`` per kernel edge,
    summed over replicas."""
    letters = iter(ascii_letters)
    edge = {e.id: next(letters) for e in f.edges}
    batch = next(letters)
    # Per kernel edge: the input position j and the output position j'.
    pos = {e.id: (next(letters), next(letters)) for e in f.kernel_edges}
    x_term = batch + "".join(edge[e.id] for e in f.edges_of_kind("input-channel"))
    x_term += "".join(pos[e.id][0] for e in f.kernel_edges)
    out = batch + "".join(edge[e.id] for e in f.edges_of_kind("output-channel"))
    out += "".join(pos[e.id][1] for e in f.kernel_edges)
    terms = [x_term]
    terms += ["".join(edge[e.id] for e in f.edges_of(vid)) for vid in f.weight_ids]
    terms += [pos[e.id][0] + pos[e.id][1] + edge[e.id] for e in f.kernel_edges]
    spec = ",".join(terms) + "->" + out
    patterns = [build_dummy(e.window).array for e in f.kernel_edges]
    # Pairwise steps: under numpy's default memory cap the path may fall back
    # to one loop over every operand, which takes seconds on 10^4-entry inputs.
    path = ("greedy", sys.maxsize)
    return sum(
        np.einsum(spec, x, *(rep[vid].array for vid in f.weight_ids), *patterns, optimize=path)
        for rep in layer.replicas
    )


def assert_engine_oracle(f):
    """Forward, alone and trial-blocked, against ``dense_forward``, and the
    adjoint identity for the backward pass."""
    plan = make_plan(f, "graph-in", "identity")
    layers = [materialize(f, plan, seed) for seed in range(2)]
    xs = np.random.default_rng(1).standard_normal((2, 2) + f.input_mode_dims())
    want = np.stack([dense_forward(f, l, x) for l, x in zip(layers, xs)])
    for l, x, w in zip(layers, xs, want):
        got = forward_apply(l, DenseTensor.from_array(x)).array
        np.testing.assert_allclose(got, w, rtol=1e-10, atol=1e-12)
    replicas = stacked_replicas(f, layers)
    got = network._contract(f, xs, replicas, backward=False)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    assert_adjoint(f)


# cp runs one separable pass per kernel edge; at stride 2 and 3 each pass
# reads its own axis with its own stride and zero insertion.
CP_STRIDED = {
    "cp-s2": builtin_format("cp", c_in=2, c_out=3, rank=2, k=3, spatial=3,
                            alpha=(5, 7, 6), stride=2, padding=1, phi=2),
    "cp-s3": builtin_format("cp", c_in=3, c_out=2, rank=3, k=2, spatial=3,
                            alpha=(6, 4, 5), stride=3, padding=1),
}


class TestEngineOracle:
    """The engine against a dense-pattern einsum built independently of
    ``network``, over random linear formats and seed-drawn conv builtins."""

    @given(
        st.one_of(
            st.integers(0, 2**32 - 1).map(random_format),
            st.integers(0, 2**32 - 1).map(conv_builtin),
        )
    )
    @example(parse_format(AXIS_NAMED_EDGES))
    @example(CP_STRIDED["cp-s2"])
    @example(CP_STRIDED["cp-s3"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_forward_matches_dense_patterns(self, f):
        assert_engine_oracle(f)


# Layers whose window steps sum several channels at each offset, in both
# directions and at a batch of 2: each offset's product is a matmul, as in
# the benchmarked conv stacks.
PER_OFFSET_LAYERS = {
    "standard-s1": builtin_format("standard", c_in=8, c_out=8, k=3, alpha=12, padding=1),
    "standard-s2": builtin_format("standard", c_in=8, c_out=8, k=3, alpha=(24, 25),
                                  stride=2, padding=1, phi=2),
    "standard-s3": builtin_format("standard", c_in=8, c_out=8, k=4, alpha=(37, 36),
                                  stride=3, padding=2),
    "htk2": builtin_format("htk2", c_in=8, c_out=8, r0=8, r1=8, k=3, alpha=12,
                           padding=1),
}


class TestPerOffsetSteps:
    """The engine oracle on layers whose window steps sum several channels
    one offset at a time, larger than the layers above."""

    @pytest.mark.parametrize("name", sorted(PER_OFFSET_LAYERS))
    def test_matches_dense_patterns(self, name):
        f = PER_OFFSET_LAYERS[name]
        for backward in (False, True):
            ef = transform.build_backward_format(f) if backward else f
            plan = network._plan(f, backward, (1, 2) + ef.input_mode_dims())
            summing = [s for s in plan.steps
                       if isinstance(s, network._Shift) and s.slice_shape[-1] > 1]
            assert summing
        assert_engine_oracle(f)


# The weights b and c meet only on a rank edge of length 1, so one GEMM
# step contracts them to a scalar, with K = 1; two replicas run that step in
# turn.
RANK_ONE_PAIR = """\
phi 2
vertex x input
vertex a weight
vertex b weight
vertex c weight
edge i0 input-channel 3 x a
edge o0 output-channel 2 a
edge r0 rank 1 b c
"""


class TestWorkspaceReuse:
    """An arena passed again gives what a fresh one gives: padded buffers
    whose memory other arrays wrote between calls are zeroed again."""

    LAYERS = {
        **CP_STRIDED,
        "standard-s2": PER_OFFSET_LAYERS["standard-s2"],
        "standard-stride2-small": builtin_format("standard", c_in=2, c_out=3, k=3,
                                                 alpha=(7, 6), stride=2, padding=1),
        "rank-one-pair": parse_format(RANK_ONE_PAIR),
    }

    @pytest.mark.parametrize("name", sorted(LAYERS))
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_second_call_equals_a_fresh_workspace(self, name, backward):
        f = self.LAYERS[name]
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        replicas = stacked_replicas(f, [layer])
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        first, second = np.random.default_rng(2).standard_normal((2, 1, 2) + dims)
        arena = network._Arena(network._plan(f, backward, first.shape).held)
        network._contract(f, first, replicas, backward, arena)
        assert arena.views
        # Between calls the arena lends the memory to other arrays.
        arena.memory[:] = np.nan
        got = network._contract(f, second, replicas, backward, arena)
        want = network._contract(f, second, replicas, backward)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_over_limit_workspace_raises_before_running(self, backward, monkeypatch):
        # The weights were drawn under the default limit; the arrays the
        # contraction would make are checked before any is made.
        f = builtin_format("standard", c_in=64, c_out=64, k=3, alpha=8)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        replicas = stacked_replicas(f, [layer])
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        x = np.ones((1, 1) + dims)
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 1000)
        monkeypatch.setattr(network, "_Arena", None)
        with pytest.raises(ResourceLimit, match="of a contraction"):
            network._contract(f, x, replicas, backward)


def workspace_arrays(held):
    """Every array a workspace holds, however its entries nest them."""
    if isinstance(held, np.ndarray):
        return [held]
    if isinstance(held, dict):
        held = list(held.values())
    if isinstance(held, (list, tuple)):
        return [a for item in held for a in workspace_arrays(item)]
    return []


class TestResultOwnsItsMemory:
    """Every step writes into a workspace buffer, but the result is a fresh
    array: it shares no memory with the workspace, and a second call with
    the same workspace leaves it as it was."""

    # name: (format, trials)
    LAYERS = {
        # Two replicas and a window step last: replica 0's result is the
        # window step's reused sum.
        "standard-s2": (PER_OFFSET_LAYERS["standard-s2"], 1),
        # Channel steps only.
        "oddlike": (builtin_format("oddlike", **ADJOINT_BUILTINS["oddlike"]), 1),
        # One replica and the identity exit permutation: the last step's
        # buffer already has the output layout.
        "tt": (builtin_format("tt", i_dims=(4, 4), o_dims=(4, 4), rank=3), 1),
        "tucker2-trials": (builtin_format("tucker2", c_in=3, c_out=2, r0=2, r1=3, k=3,
                                          alpha=(7, 10), stride=2, padding=1, phi=2), 3),
        # Two replicas and, backward, a GEMM step with K = 1 last: its result
        # is a view of a shared slot.
        "lowrank-rank1": (builtin_format("lowrank", c_in=3, c_out=4, rank=1, k=3, alpha=6,
                                         phi=2), 1),
    }

    @pytest.mark.parametrize("name", sorted(LAYERS))
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_result_shares_no_memory_with_the_workspace(self, name, backward):
        f, trials = self.LAYERS[name]
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        layers = [materialize(f, make_plan(f, "graph-in", "identity"), seed)
                  for seed in range(trials)]
        replicas = stacked_replicas(f, layers)
        if name == "tt":
            plan = network._plan(f, backward, (trials, 2) + dims)
            assert plan.exit == tuple(range(len(plan.exit))) and f.phi == 1
        first, second = np.random.default_rng(4).standard_normal((2, trials, 2, *dims))
        arena = network._Arena(network._plan(f, backward, first.shape).held)
        got = network._contract(f, first, replicas, backward, arena)
        kept = got.copy()
        arrays = workspace_arrays(arena.views)
        assert arrays and all(owner(a) is arena.memory for a in arrays)
        assert not np.shares_memory(got, arena.memory)
        network._contract(f, second, replicas, backward, arena)
        assert got.tobytes() == kept.tobytes()


def owner(a):
    """The array that owns the memory ``a`` views."""
    while a.base is not None:
        a = a.base
    return a


def test_assign_takes_the_largest_slot_whose_lives_have_ended():
    # In order of first step: a and b get slots of their own; at step 1 b's
    # life has ended, so c takes b's slot and grows it to 3; at step 2 a's
    # has, so d takes a's slot, the larger free one, and grows it to 5.
    a, b, c, d = (4, 0, 1), (2, 0, 0), (3, 1, 2), (5, 2, 2)
    assert network._assign([a, b, c, d]) == ((0, 5, 5, 0), 8)
    # Lives that share a step never share memory.
    assert network._assign([(4, 0, 1), (2, 1, 1)]) == ((0, 4), 6)


class TestPlanSizes:
    """A plan's ``held`` and ``largest`` state what its workspace spans:
    ``held`` the entries of the flat array every view it holds lies in,
    ``largest`` a bound on each of them.  A block of trials that tiles no
    plan spans as many times the entries of one trial."""

    FORMATS = {
        "conv_depth": (builtin_format("htk2", c_in=32, c_out=32, rank=8, k=3, padding=1,
                                      alpha=32), 16),
        **{name: (builtin_format(name, **params), 2) for name, params in ADJOINT_BUILTINS.items()},
    }

    @pytest.mark.parametrize("name", [*sorted(FORMATS), *(f"random{s}" for s in range(100))])
    def test_held_and_largest_match_the_workspace(self, name):
        if name in self.FORMATS:
            f, batch = self.FORMATS[name]
        else:
            f, batch = random_format(int(name.removeprefix("random"))), 2
        for backward in (False, True):
            dims = f.output_mode_dims() if backward else f.input_mode_dims()
            for trials in (1, 2):
                plan = network._plan(f, backward, (trials, batch) + dims)
                memory = np.zeros(plan.held)
                views = workspace_arrays(network._workspace_arrays(plan, memory))
                assert all(owner(a) is memory for a in views)
                assert max(a.size for a in views) <= plan.largest
                # Every entry of the flat array is some view's.
                for a in views:
                    a[...] = 1.0
                assert memory.all()
                if trials == 1:
                    one = plan
                elif one.rows == plan.rows == batch:
                    assert plan.held == 2 * one.held


class TestDraw:
    """``_draw`` fills a row of weights in place with the arithmetic of
    numpy's ``normal`` and ``uniform``, replica by replica, array by array."""

    @pytest.mark.parametrize("distribution", ["normal", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    def test_equals_numpy_samplers(self, seed, distribution):
        shapes, variances = [(3, 4), (7,), (2, 3, 5), (4, 4)], [0.0, 1e-3, 1.0, 7.3]
        block = np.empty((1, 2 * sum(map(math.prod, shapes))))
        views = network._weight_views(block, shapes, 2)
        network._draw([np.random.default_rng(seed)], block, views, variances, distribution)
        slots = [[view[0] for view in replica] for replica in views]
        rng = np.random.default_rng(seed)
        for replica in slots:
            for slot, shape, v in zip(replica, shapes, variances):
                if distribution == "uniform":
                    half = np.sqrt(3.0 * v)
                    want = rng.uniform(-half, half, shape)
                else:
                    want = rng.normal(0.0, np.sqrt(v), shape)
                assert slot.tobytes() == want.tobytes()


# One layer of the conv_depth benchmark stack.
CONV_DEPTH_LAYER = builtin_format("htk2", c_in=32, c_out=32, rank=8, k=3, padding=1, alpha=32)


class TestBatchTiles:
    """A plan whose arrays that hold the batch index exceed
    ``TRIAL_BLOCK_BYTES`` runs in batch tiles, byte for byte as the whole
    batch runs."""

    # name: (format, batch, tile rows, directions)
    CASES = {
        "conv-depth": (CONV_DEPTH_LAYER, 16, 2, (False, True)),
        "cp-s2": (builtin_format("cp", c_in=16, c_out=16, rank=8, k=3, alpha=(48, 40),
                                 stride=2, padding=1), 12, 2, (False, True)),
        # Searched at 128 rows, the path pairs the operands otherwise, which
        # changes the bytes.
        "tr": (builtin_format("tr", i_dims=(8, 32), o_dims=(16, 16), rank=6), 256, 128,
               (False,)),
        # Even a tile of 2 rows streams a 73,984-entry padded buffer, over
        # the budget, so the smallest tile is taken: whole, the batch would
        # stream 591,872 entries.
        "standard-c32": (builtin_format("standard", c_in=32, c_out=32, k=3, padding=1,
                                        alpha=32), 16, 2, (False, True)),
    }

    @staticmethod
    def x_shape(f, batch, backward):
        return (1, batch, *(f.output_mode_dims() if backward else f.input_mode_dims()))

    @pytest.mark.parametrize("name,backward", [(name, backward) for name, case in CASES.items()
                                               for backward in case[3]])
    def test_tiled_equals_whole_batch(self, name, backward, trial_block_bytes):
        f, batch, rows, _ = self.CASES[name]
        x_shape = self.x_shape(f, batch, backward)
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        x = DenseTensor.from_array(np.random.default_rng(5).standard_normal(x_shape[1:]))
        apply = backward_apply if backward else forward_apply
        assert network._plan(f, backward, x_shape).rows == rows
        tiled = apply(layer, x).array
        trial_block_bytes(1 << 40)
        assert network._plan(f, backward, x_shape).rows == batch
        assert tiled.tobytes() == apply(layer, x).array.tobytes()

    # The tr layer's largest array, a product of weights alone (73,728
    # entries), is the same in every tile.
    @pytest.mark.parametrize("name", ["conv-depth", "cp-s2"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_tiled_plan_fits_the_budget(self, name, backward):
        f, batch, rows, _ = self.CASES[name]
        plan = network._plan(f, backward, self.x_shape(f, batch, backward))
        assert plan.rows == rows < batch
        assert 8 * plan.largest <= network.TRIAL_BLOCK_BYTES

    def test_conv_depth_workspace_shrinks(self, trial_block_bytes):
        x_shape = self.x_shape(CONV_DEPTH_LAYER, 16, False)
        assert network._plan(CONV_DEPTH_LAYER, False, x_shape).held <= 248_448
        trial_block_bytes(1 << 40)
        assert network._plan(CONV_DEPTH_LAYER, False, x_shape).held == 1_983_552

    def test_tiles_split_gemm_dimensions_into_whole_blocks(self):
        # Backward, the last GEMM, [17, 3] @ [3, 529 per row], holds the
        # batch index in its columns.  Tiles of 6 rows would fit the budget
        # (their largest array is that GEMM's [17, 3174] result), but 3,174
        # columns end in a partial block, and on AVX-512 OpenBLAS 26 entries
        # of its last 4 columns come out otherwise than in the whole batch.
        # No divisor of 24 gives a multiple of 16 columns.
        f = builtin_format("lowrank", c_in=17, c_out=10, rank=3, k=3, alpha=23, padding=1)
        plan = network._plan(f, True, (1, 24, *f.output_mode_dims()))
        assert plan.rows == 24 and plan.steps[-1].b_shape == (1, 3, 24 * 529)
        assert 8 * 17 * 3174 <= network.TRIAL_BLOCK_BYTES < 8 * plan.largest

    def test_batch_without_a_fitting_tile_stays_whole(self):
        # 7 has no divisor from 2 to 6.
        plan = network._plan(CONV_DEPTH_LAYER, False, self.x_shape(CONV_DEPTH_LAYER, 7, False))
        assert plan.rows == 7 and 8 * plan.largest > network.TRIAL_BLOCK_BYTES

    def test_a_weight_never_decides_the_tile(self):
        # The [512, 512] weight takes 2 MiB; the arrays that hold the batch
        # take 32 KiB.
        f = builtin_format("standard", c_in=512, c_out=512, k=0)
        plan = network._plan(f, False, (1, 8, 512))
        assert plan.largest == 512 * 512 and 8 * plan.largest > network.TRIAL_BLOCK_BYTES
        assert plan.rows == 8

    # The criterion-7 grid the mc_small benchmark runs at batch 16, with the
    # trial block of each at the parent.  Plan modes set variances only, so
    # its 64 cells have these 8 shapes.
    MC_SMALL = {
        "standard": ({"c_in": 24, "c_out": 24, "k": 3, "alpha": 8}, 2),
        "lowrank": ({"c_in": 24, "c_out": 24, "rank": 8, "k": 3, "alpha": 8}, 2),
        "tucker2": ({"c_in": 24, "c_out": 24, "r0": 8, "r1": 8, "k": 3, "alpha": 8}, 2),
        "htk2": ({"c_in": 24, "c_out": 24, "r0": 8, "r1": 8, "k": 3, "alpha": 8}, 2),
        "cp": ({"c_in": 24, "c_out": 24, "rank": 8, "k": 3, "alpha": 8}, 2),
        "tt": ({"i_dims": [4, 6], "o_dims": [4, 6], "rank": 6}, 64),
        "tr": ({"i_dims": [4, 6], "o_dims": [4, 6], "rank": 4}, 64),
        "oddlike": ({"i_dims": [4, 5], "o_dims": [4, 5], "rank": 3}, 64),
    }

    @pytest.mark.parametrize("name", sorted(MC_SMALL))
    def test_mc_small_cells_run_whole(self, name):
        params, block = self.MC_SMALL[name]
        f = builtin_format(name, **params)
        x_shape = (16, *f.input_mode_dims())
        assert trial_block(f, x_shape) == block
        for trials in (1, block):
            assert network._plan(f, False, (trials, *x_shape)).rows == 16

    def test_compile_logs_plan_statistics(self, caplog):
        network._plan.cache_clear()
        x_shape = self.x_shape(CONV_DEPTH_LAYER, 16, False)
        with caplog.at_level(logging.DEBUG, logger="tcinit"):
            plan = network._plan(CONV_DEPTH_LAYER, False, x_shape)
            network._plan(CONV_DEPTH_LAYER, False, x_shape)
        [record] = caplog.records
        assert record.name == "tcinit" and record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"plan forward x(1, 16, 32, 32, 32): rows=2 largest={plan.largest} "
            f"held={plan.held} steps=gemm,shift,gemm"
        )
        # Its one window step makes 32 GEMMs of 64 rows per offset: one per
        # window row, each over a window row's 32 positions of both batch rows.
        assert (record.gemms_per_offset, record.rows_per_gemm) == ([32], [64])

    def test_simulate_output_does_not_depend_on_debug_logging(self, capsys, caplog):
        argv = ["simulate", "--builtin", "htk2", "-P", "c_in=32", "-P", "c_out=32",
                "-P", "rank=8", "-P", "k=3", "-P", "padding=1", "-P", "alpha=32",
                "--depth", "5", "--act", "tanh", "--mode", "graph-in", "--batch", "16",
                "--trials", "2", "--workers", "1", "--seed", "3"]
        outputs = []
        for level in (logging.WARNING, logging.DEBUG):
            network._plan.cache_clear()
            caplog.clear()
            with caplog.at_level(level, logger="tcinit"):
                assert tcinit.cli.main(argv) == 0
            outputs.append(capsys.readouterr())
        assert any("rows=2" in r.getMessage() for r in caplog.records)
        # One record per block of the runner, with each layer's pass times.
        blocks = [r for r in caplog.records if r.getMessage().startswith("block of 1 trials:")]
        assert len(blocks) == 2
        for record in blocks:
            assert record.levelno == logging.DEBUG
            assert len(record.forward_s) == len(record.backward_s) == 5
            assert all(t > 0 for t in record.forward_s + record.backward_s)
        assert outputs[0] == outputs[1]


class TestWindowGemms:
    """A window step whose last contracted kernel edge reads at stride 1
    lays out its padded buffer with the positions it slices first, so one
    ``matmul`` per offset makes one GEMM per trial and leading window
    position, its rows the last sliced position's windows times the batch
    rows; a stride-2 forward step keeps the batch rows ahead of its
    positions, one GEMM per trial, batch row and window row."""

    CRITERION7_HTK2 = builtin_format("htk2", c_in=24, c_out=24, r0=8, r1=8, k=3, alpha=8)
    STRIDED = builtin_format("standard", c_in=8, c_out=8, k=3, alpha=24, padding=1, stride=2)

    # name: (format, backward, trials, slice_shape of the one window step),
    # all at batch 16.  slice_shape is (trials, GEMM batch..., rows, summed).
    CASES = {
        "criterion7-htk2-forward": (CRITERION7_HTK2, False, 2, (2, 6, 96, 8)),
        "criterion7-htk2-backward": (CRITERION7_HTK2, True, 2, (2, 8, 128, 8)),
        "conv_depth-forward": (CONV_DEPTH_LAYER, False, 1, (1, 32, 64, 8)),
        "conv_depth-backward": (CONV_DEPTH_LAYER, True, 1, (1, 32, 64, 8)),
        "standard-stride2-forward": (STRIDED, False, 1, (1, 8, 12, 12, 8)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_slice_shape(self, name):
        f, backward, trials, want = self.CASES[name]
        dims = f.output_mode_dims() if backward else f.input_mode_dims()
        [step] = [s for s in network._plan(f, backward, (trials, 16, *dims)).steps
                  if isinstance(s, network._Shift)]
        assert step.slice_shape == want


def parity_grid():
    """``(name, format, batches)`` of every layer of the grid of
    ``tools/parity.py``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity.grid()


class TestRegisters:
    """A step names its operands by register: 0 the input, 1 to W the
    weights, W + 1 + k step k's result.  Each register but the last result
    is read by exactly one step, after the register is written."""

    @staticmethod
    def shapes(group):
        """``(format, x_shape)`` per layer of ``group``, input and output
        shapes both, so both directions compile."""
        if group == "parity-grid":
            layers = [(f, batches, (1,)) for _, f, batches in parity_grid()]
        elif group == "mc_small":
            layers = [(builtin_format(name, **params), (16,), (1, block))
                      for name, (params, block) in TestBatchTiles.MC_SMALL.items()]
        else:
            layers = [(CONV_DEPTH_LAYER, (16,), (1,))]
        for f, batches, trials in layers:
            for t in trials:
                for b in batches:
                    yield f, (t, b)

    @pytest.mark.parametrize("group", ["parity-grid", "mc_small", "conv_depth"])
    def test_every_register_but_the_result_is_read_once_after_it_is_written(self, group):
        for f, lead in self.shapes(group):
            for backward in (False, True):
                dims = f.output_mode_dims() if backward else f.input_mode_dims()
                plan = network._plan(f, backward, (*lead, *dims))
                written = 1 + len(f.weight_ids)
                reads = []
                for step in plan.steps:
                    assert all(r < written for r in step.reads)
                    reads += step.reads
                    written += 1
                assert sorted(reads) == list(range(written - 1))
