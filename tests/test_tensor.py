import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcinit import tensor
from tcinit.errors import (
    AxisOutOfRange,
    DimensionMismatch,
    DuplicateAxis,
    InvalidDummySpec,
    InvalidShape,
    ResourceLimit,
    TcinitError,
    TooManyIndices,
    UnboundAxis,
)
from tcinit.tensor import (
    DenseTensor,
    DummySpec,
    _activation,
    _activation_grad,
    build_dummy,
    contract,
    multi_contract,
    reversal_matrix,
    transformation_matrix,
)


def naive_contract(a, axes_a, b, axes_b):
    """Loop-based contraction oracle, independent of tensordot."""
    free_a = [ax for ax in range(a.ndim) if ax not in axes_a]
    free_b = [ax for ax in range(b.ndim) if ax not in axes_b]
    out_shape = [a.shape[ax] for ax in free_a] + [b.shape[ax] for ax in free_b]
    out = np.zeros(out_shape)
    for idx_a in np.ndindex(*a.shape):
        for free_idx_b in np.ndindex(*[b.shape[ax] for ax in free_b]):
            idx_b = [0] * b.ndim
            for ax, val in zip(free_b, free_idx_b):
                idx_b[ax] = val
            for ax_a, ax_b in zip(axes_a, axes_b):
                idx_b[ax_b] = idx_a[ax_a]
            pos = tuple(idx_a[ax] for ax in free_a) + free_idx_b
            out[pos] += a[idx_a] * b[tuple(idx_b)]
    return out


def direct_conv(a, b, stride=1, padding=0):
    """Sliding-window 1-D convolution oracle (integer-indexed sum)."""
    padded = np.concatenate([np.zeros(padding), a, np.zeros(padding)])
    beta = len(b)
    n_out = (len(a) + 2 * padding - beta) // stride + 1
    return np.array(
        [np.dot(padded[i * stride : i * stride + beta], b) for i in range(n_out)]
    )


class TestDenseTensor:
    def test_shape_data_consistency(self):
        t = DenseTensor((2, 3), np.arange(6.0))
        assert t.rank == 2
        assert t.size == 6
        with pytest.raises(ValueError):
            DenseTensor((2, 3), np.arange(5.0))

    def test_scalar_allowed(self):
        t = DenseTensor((), np.array([4.0]))
        assert t.rank == 0 and t.array == 4.0

    def test_data_is_read_only(self):
        t = DenseTensor.from_array(np.ones(3))
        with pytest.raises(ValueError):
            t.data[0] = 2.0

    def test_not_equal_to_other_types(self):
        t = DenseTensor.from_array(np.ones(()))
        assert (t == 1) is False and t != 1.0


@pytest.mark.parametrize("build", [
    lambda: DenseTensor((0,), np.zeros(0)),
    lambda: DenseTensor((2,), np.zeros(1)),
    lambda: reversal_matrix(0),
    lambda: transformation_matrix(0, 1),
    lambda: transformation_matrix(2, 0),
], ids=["zero-dim", "data-length", "reversal", "transformation-t", "transformation-epsilon"])
def test_bad_shapes_raise_a_tcinit_error_that_is_a_value_error(build):
    with pytest.raises(InvalidShape) as err:
        build()
    assert isinstance(err.value, TcinitError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("value", [2.5, "a", None, True])
@pytest.mark.parametrize("build", [
    lambda v: reversal_matrix(v),
    lambda v: transformation_matrix(v, 1),
    lambda v: transformation_matrix(2, v),
], ids=["reversal", "transformation-t", "transformation-epsilon"])
def test_special_matrix_sizes_of_wrong_type_raise_invalid_shape(build, value):
    with pytest.raises(InvalidShape, match=r"^(r|t|epsilon) must be an integer, got "):
        build(value)


def test_special_matrix_value_messages_are_unchanged():
    with pytest.raises(InvalidShape, match=r"^r must be >= 1$"):
        reversal_matrix(-1)
    with pytest.raises(InvalidShape, match=r"^t and epsilon must be >= 1$"):
        transformation_matrix(np.int64(2), 0)


class TestContract:
    def test_matrix_product(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        out = contract(DenseTensor.from_array(a), [1], DenseTensor.from_array(b), [0])
        assert out.shape == (2, 4)
        assert np.array_equal(out.array, a @ b)

    def test_free_axis_order(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5, 6))
        out = contract(DenseTensor.from_array(a), [2], DenseTensor.from_array(b), [0])
        assert out.shape == (2, 3, 5, 6)

    def test_dot_product(self):
        a = DenseTensor.from_array([1.0, 2.0, 3.0])
        b = DenseTensor.from_array([4.0, 5.0, 6.0])
        out = contract(a, [0], b, [0])
        assert out.shape == ()
        assert out.array == 32.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4, 2))
        b = rng.standard_normal((2, 4, 5))
        got = contract(
            DenseTensor.from_array(a), [1, 2], DenseTensor.from_array(b), [1, 0]
        )
        want = naive_contract(a, [1, 2], b, [1, 0])
        assert np.allclose(got.array, want, atol=1e-12)

    def test_errors(self):
        a = DenseTensor.from_array(np.ones((2, 3)))
        b = DenseTensor.from_array(np.ones((4, 5)))
        with pytest.raises(DimensionMismatch):
            contract(a, [1], b, [0])
        with pytest.raises(AxisOutOfRange):
            contract(a, [5], b, [0])
        with pytest.raises(DuplicateAxis):
            contract(a, [0, 0], b, [0, 1])
        with pytest.raises(DimensionMismatch):
            contract(a, [0, 1], b, [0])

    @given(st.floats(min_value=-4, max_value=4))
    def test_bilinear_in_first_argument(self, scalar):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        lhs = contract(
            DenseTensor.from_array(scalar * a), [1], DenseTensor.from_array(b), [0]
        ).array
        rhs = scalar * contract(
            DenseTensor.from_array(a), [1], DenseTensor.from_array(b), [0]
        ).array
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestMultiContract:
    def test_single_pair_reduces_to_contract(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        ta, tb = DenseTensor.from_array(a), DenseTensor.from_array(b)
        got = multi_contract(
            [ta, tb], [[(0, 1), (1, 0)]], [(0, 0), (1, 1)]
        )
        assert got == contract(ta, [1], tb, [0])

    def test_hyperedge_three_vectors(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        c = np.array([5.0, 6.0])
        got = multi_contract(
            [DenseTensor.from_array(v) for v in (a, b, c)],
            [[(0, 0), (1, 0), (2, 0)]],
            [],
        )
        assert got.array == pytest.approx(np.sum(a * b * c))

    def test_chain_equals_pairwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 4))
        c = rng.standard_normal((4, 5))
        ts = [DenseTensor.from_array(v) for v in (a, b, c)]
        got = multi_contract(
            ts, [[(0, 1), (1, 0)], [(1, 1), (2, 0)]], [(0, 0), (2, 1)]
        )
        want = contract(contract(ts[0], [1], ts[1], [0]), [1], ts[2], [0])
        assert np.allclose(got.array, want.array, rtol=1e-10)

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        shapes = [(4, 3), (3, 5, 2), (2, 6), (6, 4)]
        ts = [DenseTensor.from_array(rng.standard_normal(s)) for s in shapes]
        groups = [
            [(0, 1), (1, 0)],
            [(1, 2), (2, 0)],
            [(2, 1), (3, 0)],
            [(3, 1), (0, 0)],
        ]
        got = multi_contract(ts, groups, [(1, 1)])
        # Pairwise in a different order: ((t2 t3) t0) t1.
        s1 = contract(ts[2], [1], ts[3], [0])  # [2, 4]
        s2 = contract(s1, [1], ts[0], [0])  # [2, 3]
        want = multi_contract(
            [s2, ts[1]], [[(0, 0), (1, 2)], [(0, 1), (1, 0)]], [(1, 1)]
        )
        assert np.allclose(got.array, want.array, rtol=1e-10)

    def test_unbound_axis(self):
        a = DenseTensor.from_array(np.ones((2, 3)))
        with pytest.raises(UnboundAxis):
            multi_contract([a], [], [(0, 0)])

    @pytest.mark.parametrize(
        "groups,error,match",
        [
            ([[(0, 1), (1, 0)]], AxisOutOfRange, "tensor index 1 out of range"),
            ([[(0, 1), (0, 2)]], AxisOutOfRange, "axis 2 out of range for rank 2"),
            ([[(0, 1)], [(0, 1)]], DuplicateAxis, "axis 1 of tensor 0 bound twice"),
        ],
    )
    def test_bad_axis(self, groups, error, match):
        a = DenseTensor.from_array(np.ones((2, 3)))
        with pytest.raises(error, match=match):
            multi_contract([a], groups, [(0, 0)])

    def test_group_dimension_mismatch(self):
        a = DenseTensor.from_array(np.ones((2, 3)))
        b = DenseTensor.from_array(np.ones((4,)))
        with pytest.raises(DimensionMismatch):
            multi_contract([a, b], [[(0, 1), (1, 0)]], [(0, 0)])

    def test_too_many_indices(self):
        v = DenseTensor.from_array(np.ones(2))
        groups = [[(2 * i, 0), (2 * i + 1, 0)] for i in range(53)]
        with pytest.raises(TooManyIndices, match="53 distinct indices"):
            multi_contract([v] * 106, groups, [])


class TestDummy:
    def test_spec_invariants(self):
        spec = DummySpec(alpha=5, beta=3, stride=2, padding=1)
        assert spec.alpha_prime == 3
        with pytest.raises(InvalidDummySpec):
            DummySpec(alpha=2, beta=5, stride=1, padding=0)
        with pytest.raises(InvalidDummySpec):
            DummySpec(alpha=3, beta=2, stride=0, padding=0)

    @pytest.mark.parametrize("args", [("a", 3), (5.0, 3), (5, 3, None), (5, 3, 1, "0")])
    def test_non_integer_parameters_rejected(self, args):
        with pytest.raises(InvalidDummySpec, match="must be integers"):
            DummySpec(*args)

    def test_numpy_integer_parameters_accepted(self):
        assert DummySpec(np.int64(5), np.int32(3)).alpha_prime == 3

    def test_enumerated_entries(self):
        d = build_dummy(DummySpec(alpha=3, beta=2)).array
        assert d.shape == (3, 2, 2)
        expected = {(0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1)}
        nonzero = set(zip(*np.nonzero(d)))
        assert nonzero == expected

    def test_small_convolution(self):
        a = DenseTensor.from_array([1.0, 2.0, 3.0])
        b = DenseTensor.from_array([1.0, 1.0])
        d = build_dummy(DummySpec(alpha=3, beta=2))
        out = contract(contract(a, [0], d, [0]), [1], b, [0])
        assert np.array_equal(out.array, [3.0, 5.0])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 3, 5])
    def test_convolution_equivalence(self, stride, beta):
        rng = np.random.default_rng(beta * 10 + stride)
        for alpha in range(3, 13):
            for padding in range(0, beta):
                if alpha + 2 * padding < beta:
                    continue
                a = rng.standard_normal(alpha)
                b = rng.standard_normal(beta)
                d = build_dummy(DummySpec(alpha, beta, stride, padding))
                via_pattern = contract(
                    contract(DenseTensor.from_array(a), [0], d, [0]),
                    [1],
                    DenseTensor.from_array(b),
                    [0],
                ).array
                direct = direct_conv(a, b, stride, padding)
                assert np.allclose(via_pattern, direct, atol=1e-12)

    @given(
        alpha=st.integers(1, 10),
        beta=st.integers(1, 6),
        stride=st.integers(1, 3),
        padding=st.integers(0, 4),
    )
    @settings(max_examples=60)
    def test_binary_and_unique(self, alpha, beta, stride, padding):
        if alpha + 2 * padding < beta:
            return
        d = build_dummy(DummySpec(alpha, beta, stride, padding)).array
        assert set(np.unique(d)) <= {0.0, 1.0}
        # each (output, window) pair selects at most one input position
        assert d.sum(axis=0).max() <= 1


    def test_over_limit_pattern_raises_before_allocating(self):
        # [alpha, alpha', beta] would take 2**61 bytes.
        with pytest.raises(ResourceLimit, match="pattern"):
            build_dummy(DummySpec(alpha=2**20, beta=2**19))


class TestSpecialMatrices:
    def test_reversal(self):
        r = reversal_matrix(3)
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(r.array @ b, [3.0, 2.0, 1.0])
        assert np.array_equal(reversal_matrix(1).array, [[1.0]])

    @pytest.mark.parametrize("r", [10**6, 2**40])
    def test_reversal_over_limit_raises(self, r):
        with pytest.raises(ResourceLimit, match="the reversal matrix"):
            reversal_matrix(r)

    def test_transformation_of_one_row_for_any_epsilon(self):
        assert np.array_equal(transformation_matrix(1, 10**30).array, [[1.0]])

    def test_reversal_involution(self):
        r = reversal_matrix(5).array
        assert np.array_equal(r @ r, np.eye(5))

    def test_transformation_expands_with_zeros(self):
        t = transformation_matrix(3, 2)
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(y @ t.array, [1.0, 0.0, 2.0, 0.0, 3.0])

    def test_transformation_over_limit_raises(self):
        with pytest.raises(ResourceLimit):
            transformation_matrix(2**24, 2**3)

    def test_transformation_identity_for_unit_stride(self):
        assert np.array_equal(transformation_matrix(4, 1).array, np.eye(4))

    def test_transformation_row_column_sums(self):
        m = transformation_matrix(5, 3).array
        assert m.shape == (5, 13)
        assert np.array_equal(m.sum(axis=1), np.ones(5))
        assert set(np.unique(m.sum(axis=0))) <= {0.0, 1.0}

    def test_transformation_orthonormal_rows(self):
        m = transformation_matrix(6, 2).array
        assert np.array_equal(m @ m.T, np.eye(6))


# Each activation's derivative, from its output.
DERIVATIVES = {
    "identity": lambda post: np.ones_like(post),
    "relu": lambda post: (post > 0.0).astype(np.float64),
    "tanh": lambda post: 1.0 - post**2,
}


class TestActivations:
    def test_identity(self):
        x = np.array([-1.0, 0.5])
        assert np.array_equal(_activation(x, "identity"), x)

    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(_activation(x, "relu"), [0.0, 0.0, 2.0])

    def test_tanh_preserves_symmetry(self):
        rng = np.random.default_rng(5)
        out = _activation(rng.standard_normal(200_000), "tanh")
        assert abs(out.mean()) < 5e-3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            _activation(np.array([1.0]), "gelu")

    @pytest.mark.parametrize("kind,derivative", sorted(DERIVATIVES.items()))
    def test_grad_matches_the_derivative_bitwise_and_leaves_inputs(self, kind, derivative):
        # The gradient overwrites the post-activation it is given, so it is
        # given a copy; g is only read.
        rng = np.random.default_rng(8)
        post = _activation(rng.standard_normal((4, 5)), kind)
        g = rng.standard_normal((4, 5))
        g_before, post_before = g.copy(), post.copy()
        d = post.copy()
        out = _activation_grad(g, d, kind)
        assert out is d and out.tobytes() == (g * derivative(post)).tobytes()
        assert np.array_equal(g, g_before) and np.array_equal(post, post_before)
        assert not np.shares_memory(out, g)

    @pytest.mark.parametrize("kind", sorted(DERIVATIVES))
    def test_in_place_activation_and_grad_have_the_allocating_bits(self, kind):
        rng = np.random.default_rng(9)
        pre = rng.standard_normal((4, 5))
        pre.flat[:3] = 0.0, -0.0, 30.0
        post = {"identity": pre, "relu": np.maximum(pre, 0.0), "tanh": np.tanh(pre)}[kind]
        in_place = pre.copy()
        assert _activation(in_place, kind) is in_place
        assert in_place.tobytes() == post.tobytes()
        g = rng.standard_normal((4, 5))
        g_before = g.copy()
        got = _activation_grad(g, in_place, kind)
        assert got is in_place and np.array_equal(g, g_before)
        assert got.tobytes() == (g * DERIVATIVES[kind](post)).tobytes()

    def test_grad_unknown_kind(self):
        with pytest.raises(ValueError):
            _activation_grad(np.ones(2), np.ones(2), "gelu")


class TestMemoryBudget:
    """The memory limit is the smallest of the process's budgets, named."""

    class FakeResource:
        RLIMIT_AS, RLIMIT_DATA, RLIM_INFINITY = "as", "data", -1

        def __init__(self, **soft):
            self.soft = soft

        def getrlimit(self, which):
            return self.soft.get(which, -1), -1

    @pytest.fixture
    def budget(self, monkeypatch):
        monkeypatch.setattr(tensor, "_physical_memory", lambda: 8000)
        monkeypatch.setattr(tensor, "_process_status", lambda: {"VmSize": 300, "VmData": 100})

        def read(cgroup=None, **soft):
            monkeypatch.setattr(tensor, "_cgroup_memory", lambda: cgroup)
            monkeypatch.setattr(tensor, "resource", self.FakeResource(**soft))
            return tensor._memory_budget()

        return read

    def test_physical_memory_without_other_limits(self, budget):
        assert budget() == (4000, "half of physical memory")

    def test_cgroup_limit(self, budget):
        assert budget(cgroup=6000) == (3000, "half of the cgroup memory limit")
        assert budget(cgroup=9000) == (4000, "half of physical memory")

    def test_rlimits_less_what_is_in_use(self, budget):
        value, source = budget(cgroup=6000, **{"as": 2300, "data": 2500})
        assert value == 2000 and "RLIMIT_AS address-space limit" in source
        value, source = budget(cgroup=6000, **{"as": 2300, "data": 1500})
        assert value == 1400 and "RLIMIT_DATA data-segment limit" in source
        assert budget(**{"as": 200})[0] == 0

    def test_message_names_the_source(self, monkeypatch):
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 100)
        monkeypatch.setattr(tensor, "MEMORY_SOURCE", "half of the cgroup memory limit")
        with pytest.raises(ResourceLimit, match=r"limit of 1\.000e\+02 bytes "
                                                r"\(half of the cgroup memory limit\)"):
            tensor._check_array((13,), "an array")

    def test_cgroup_limit_is_read_or_absent(self):
        limit = tensor._cgroup_memory()
        assert limit is None or limit > 0
