import time

import numpy as np
import pytest

from tcinit.errors import InvalidPadding, ResourceLimit
from tcinit.formats import INPUT_CHANNEL, KERNEL, OUTPUT_CHANNEL, RANK, builtin_format
from tcinit.tensor import DenseTensor, DummySpec, build_dummy, contract
from tcinit.transform import (
    backward_dummy,
    backward_pattern,
    build_backward_dummy,
    build_backward_format,
    verify_theorem1,
)


def valid_specs(alphas=range(3, 13), betas=range(1, 6), strides=range(1, 4)):
    for alpha in alphas:
        for beta in betas:
            for stride in strides:
                for padding in range(0, beta):
                    if alpha + 2 * padding >= beta:
                        yield DummySpec(alpha, beta, stride, padding)


class TestBackwardDummySpec:
    def test_full_padding_case(self):
        b = backward_dummy(DummySpec(alpha=8, beta=3, stride=1, padding=0))
        assert b.stride == 1
        assert b.padding == 2

    def test_expanded_length(self):
        # stride 2, output length 3 expands to 5
        fwd = DummySpec(alpha=7, beta=3, stride=2, padding=0)
        assert fwd.alpha_prime == 3
        assert backward_dummy(fwd).grad_expanded == 5

    def test_boundary_padding(self):
        b = backward_dummy(DummySpec(alpha=8, beta=3, stride=1, padding=2))
        assert b.padding == 0

    def test_padding_beyond_window_rejected(self):
        with pytest.raises(InvalidPadding):
            backward_dummy(DummySpec(alpha=8, beta=3, stride=1, padding=3))

    def test_output_recovers_input_length(self):
        for spec in valid_specs():
            assert backward_dummy(spec).alpha_prime == spec.alpha


class TestTheorem1:
    def test_exact_identity_on_grid(self):
        start = time.perf_counter()
        checked = 0
        for spec in valid_specs():
            assert verify_theorem1(spec), spec
            checked += 1
        assert checked > 300
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_over_limit_patterns_raise_before_allocating(self, stride):
        # Each pattern, and the stride-expansion matrix, of this window would
        # take more than 2**49 bytes.
        spec = DummySpec(alpha=2**24, beta=8, stride=stride)
        with pytest.raises(ResourceLimit):
            verify_theorem1(spec)
        with pytest.raises(ResourceLimit):
            backward_pattern(backward_dummy(spec))
        with pytest.raises(ResourceLimit):
            build_backward_dummy(backward_dummy(spec))

    def test_degenerate_window(self):
        assert verify_theorem1(DummySpec(alpha=6, beta=1, stride=2, padding=0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        fwd = DummySpec(alpha=8, beta=3, stride=2, padding=1)
        a = rng.standard_normal(8)
        b = rng.standard_normal(3)
        upstream = rng.standard_normal(fwd.alpha_prime)

        def loss(a_vec):
            d = build_dummy(fwd)
            y = contract(
                contract(DenseTensor.from_array(a_vec), [0], d, [0]),
                [1],
                DenseTensor.from_array(b),
                [0],
            ).array
            return float(upstream @ y)

        # gradient through the backward pattern with the reversed kernel
        bspec = backward_dummy(fwd)
        pp = build_backward_dummy(bspec).array  # [alpha, expanded, beta]
        expanded = np.zeros(bspec.grad_expanded)
        expanded[:: fwd.stride] = upstream
        grad = np.einsum("jzk,z,k->j", pp, expanded, b[::-1])

        eps = 1e-5
        for j in range(8):
            ap, am = a.copy(), a.copy()
            ap[j] += eps
            am[j] -= eps
            fd = (loss(ap) - loss(am)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBackwardFormat:
    def test_standard_conv_contracted_dims(self):
        f = builtin_format("standard", c_in=3, c_out=96, k=3, alpha=8)
        g = build_backward_format(f)
        xid = g.input_vertex.id
        contracted = sorted(
            e.dim for e in g.edges_of(xid) if e.kind in (INPUT_CHANNEL, KERNEL)
        )
        assert contracted == [3, 3, 96]

    def test_channel_kind_swap_is_involution(self):
        f = builtin_format("htk2", c_in=8, c_out=16, rank=4, k=3, alpha=8)
        g = build_backward_format(build_backward_format(f))
        assert [e.kind for e in g.edges] == [e.kind for e in f.edges]
        assert [e.dim for e in g.edges] == [e.dim for e in f.edges]
        assert g.edges == f.edges

    def test_preserves_structure(self):
        f = builtin_format("tr", i_dims=(4, 4), o_dims=(4, 4), rank=3)
        g = build_backward_format(f)
        assert g.vertices == f.vertices
        assert g.phi == f.phi
        assert g.edges_of_kind(RANK) == f.edges_of_kind(RANK)

    def test_kernel_window_swapped(self):
        f = builtin_format("standard", c_in=3, c_out=8, k=3, alpha=9, stride=2)
        g = build_backward_format(f)
        w = g.kernel_edges[0].window
        assert w.beta == 3
        assert w.alpha == f.kernel_edges[0].window.alpha_prime
        assert w.alpha_prime == 9
