"""Dense tensors, generalized contraction and the special binary tensors.

The value type is :class:`DenseTensor`, a thin immutable wrapper around a
row-major float64 ndarray.  Convolution is expressed as contraction with a
binary index-pattern tensor built by :func:`build_dummy`: the pattern has a
one at ``(j, j', k)`` exactly when ``j = stride * j' + k - padding``, so that
``a x0 P x1 b`` equals the strided sliding-window convolution of ``a`` with
``b``.  The pattern is the exact reference, not the execution path: the
engine in :mod:`tcinit.network` reads the same windows as strided slices of
a zero-padded copy of the input and never builds the ``[alpha, alpha',
beta]`` tensor.

Contraction output order is fixed: free axes of the first operand, in their
original order, then free axes of the second.  This convention is ours, not
mandated by the math, and every caller in the package relies on it.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from string import ascii_letters
from typing import Iterable, Sequence

try:
    import resource
except ImportError:  # not on POSIX
    resource = None

import numpy as np

from .errors import (
    AxisOutOfRange,
    DimensionMismatch,
    DuplicateAxis,
    InvalidDummySpec,
    InvalidParams,
    InvalidShape,
    ResourceLimit,
    TooManyIndices,
    UnboundAxis,
)

def _physical_memory() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 16 << 30


def _cgroup_memory() -> int | None:
    """The smallest memory limit of this process's cgroup and its ancestors:
    v1 ``memory.limit_in_bytes`` or v2 ``memory.max``, under the usual
    ``/sys/fs/cgroup`` mounts.  None when no limit is set or none is found;
    "max" and values near 2**63 mean no limit."""
    try:
        lines = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if not controllers:
            root, name = Path("/sys/fs/cgroup"), "memory.max"
        elif "memory" in controllers.split(","):
            root, name = Path("/sys/fs/cgroup/memory"), "memory.limit_in_bytes"
        else:
            continue
        for group in (PurePosixPath(path), *PurePosixPath(path).parents):
            try:
                text = (root / group.relative_to("/") / name).read_text().strip()
            except (OSError, ValueError):
                continue
            if text.isdigit() and int(text) < 2**62:
                limits.append(int(text))
    return min(limits, default=None)


def _process_status() -> dict[str, int]:
    """``/proc/self/status`` sizes in bytes, by field name; empty when that
    file cannot be read."""
    try:
        lines = Path("/proc/self/status").read_text().splitlines()
    except OSError:
        return {}
    return {k: int(v.split()[0]) * 1024 for k, _, v in (l.partition(":") for l in lines)
            if v.strip().endswith("kB")}


def _memory_budget() -> tuple[int, str]:
    """The smallest memory budget of this process and its source: half of
    physical memory, half of the cgroup memory limit, the address-space
    limit less the address space mapped, or the data-segment limit less
    the data segment in use."""
    budgets = [(_physical_memory() // 2, "half of physical memory")]
    cgroup = _cgroup_memory()
    if cgroup is not None:
        budgets.append((cgroup // 2, "half of the cgroup memory limit"))
    if resource is not None:
        status = _process_status()
        for limit, used, what in (
            (resource.RLIMIT_AS, "VmSize",
             "the RLIMIT_AS address-space limit less the address space mapped"),
            (resource.RLIMIT_DATA, "VmData",
             "the RLIMIT_DATA data-segment limit less the data segment in use"),
        ):
            soft = resource.getrlimit(limit)[0]
            if soft != resource.RLIM_INFINITY and used in status:
                budgets.append((max(0, soft - status[used]), what))
    return min(budgets, key=lambda budget: budget[0])


# No single array is allocated past the process's memory budget: such a
# request would fail with a raw MemoryError, or end in an out-of-memory kill
# on a host that overcommits.  The budget is read once, at import, so the
# address space mapped by then (the interpreter, numpy and its BLAS) counts.
MEMORY_LIMIT, MEMORY_SOURCE = _memory_budget()


def _check_array(shape, what: str) -> None:
    """Raise :class:`ResourceLimit` if a float64 array of ``shape`` would
    exceed the memory limit; ``what`` names it in the message."""
    nbytes = 8 * math.prod(shape)
    if nbytes > MEMORY_LIMIT:
        if nbytes > sys.float_info.max:
            # A Decimal writes a size past the float range as a float would
            # write one within it.  Imported here: importing decimal with the
            # package would cost every run about 0.4 MB of resident memory.
            from decimal import Decimal
            nbytes = Decimal(nbytes)
        raise ResourceLimit(
            f"{what} needs {nbytes:.3e} bytes, over the limit of "
            f"{MEMORY_LIMIT:.3e} bytes ({MEMORY_SOURCE})"
        )


def _check_seed(seed, sequence: bool = True) -> None:
    """Raise :class:`InvalidParams` unless ``seed`` is an integer >= 0 or,
    with ``sequence``, a list or tuple of them.  numpy's seeding would reject
    a negative integer with a raw ``ValueError`` and most other types with a
    ``TypeError``.  Call it before any draw."""
    entries = seed if sequence and isinstance(seed, (list, tuple)) else (seed,)
    if not all(isinstance(s, numbers.Integral) for s in entries):
        kinds = "an integer or a list of them" if sequence else "an integer"
        raise InvalidParams(f"seed must be {kinds}, got {seed!r}")
    if any(s < 0 for s in entries):
        raise InvalidParams(f"seed must be >= 0, got {seed!r}")


def _check_integers(error, **values) -> None:
    """Raise ``error`` naming the first of ``values`` that is not an integer
    (``numbers.Integral``, so numpy integers too, but not ``bool``): Python's
    and numpy's own checks would raise a raw ``TypeError`` for most such
    values, and take 2.5 for 2."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DenseTensor:
    """A row-major multi-dimensional float64 array.

    ``data`` is the flat element buffer; its length always equals the product
    of ``shape``.  Rank 0 (scalar) is allowed with a single element.
    """

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        try:
            shape = tuple(map(operator.index, self.shape))
        except TypeError:
            raise InvalidShape(f"shape entries must be integers, got {self.shape!r}") from None
        if any(d < 1 for d in shape):
            raise InvalidShape(f"shape entries must be >= 1, got {shape}")
        flat = np.ascontiguousarray(self.data, dtype=np.float64).reshape(-1)
        if flat.size != math.prod(shape):
            raise InvalidShape(
                f"data length {flat.size} does not match shape {shape}"
            )
        flat.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", flat)

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.shape, arr.reshape(-1))

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view with the tensor's shape."""
        return self.data.reshape(self.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class DummySpec:
    """Parameters of a 1-D convolution index pattern.

    ``alpha`` is the input length, ``beta`` the kernel window, ``stride`` and
    ``padding`` the usual convolution parameters.  The output length
    ``alpha_prime`` follows the floor formula; window positions that would
    fall entirely outside the padded input are rejected rather than zero
    filled.
    """

    alpha: int
    beta: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        a, b, s, p = self.alpha, self.beta, self.stride, self.padding
        if not all(isinstance(v, numbers.Integral) for v in (a, b, s, p)):
            raise InvalidDummySpec(
                f"alpha={a!r}, beta={b!r}, stride={s!r}, padding={p!r} must be integers"
            )
        if a < 1 or b < 1 or s < 1 or p < 0:
            raise InvalidDummySpec(
                f"alpha={a}, beta={b}, stride={s}, padding={p} out of range"
            )
        if a + 2 * p < b:
            raise InvalidDummySpec(
                f"window beta={b} exceeds padded input alpha={a} + 2*{p}"
            )

    @property
    def alpha_prime(self) -> int:
        return (self.alpha + 2 * self.padding - self.beta) // self.stride + 1

    @property
    def dilation(self) -> int:
        """Input entries are read as is: no zeros are inserted between them."""
        return 1


def _check_axes(t: DenseTensor, axes: Sequence[int], label: str) -> list[int]:
    axes = [int(ax) for ax in axes]
    for ax in axes:
        if not 0 <= ax < t.rank:
            raise AxisOutOfRange(f"{label}: axis {ax} out of range for rank {t.rank}")
    if len(set(axes)) != len(axes):
        raise DuplicateAxis(f"{label}: repeated axis in {axes}")
    return axes


def contract(
    a: DenseTensor,
    axes_a: Sequence[int],
    b: DenseTensor,
    axes_b: Sequence[int],
) -> DenseTensor:
    """Inner product of ``a`` and ``b`` over paired axes.

    Output axes are the free axes of ``a`` followed by the free axes of
    ``b``, each in original order.
    """
    axes_a = _check_axes(a, axes_a, "first operand")
    axes_b = _check_axes(b, axes_b, "second operand")
    if len(axes_a) != len(axes_b):
        raise DimensionMismatch(
            f"{len(axes_a)} axes paired with {len(axes_b)} axes"
        )
    for ax_a, ax_b in zip(axes_a, axes_b):
        if a.shape[ax_a] != b.shape[ax_b]:
            raise DimensionMismatch(
                f"axis {ax_a} (size {a.shape[ax_a]}) paired with "
                f"axis {ax_b} (size {b.shape[ax_b]})"
            )
    out = np.tensordot(a.array, b.array, axes=(axes_a, axes_b))
    return DenseTensor.from_array(out)


def _letters(n: int) -> str:
    """The first ``n`` einsum subscript letters.  Einsum has 52 letters, so
    more indices raise :class:`~tcinit.errors.TooManyIndices`."""
    if n > len(ascii_letters):
        raise TooManyIndices(
            f"contraction needs {n} distinct indices; einsum "
            f"supports at most {len(ascii_letters)}"
        )
    return ascii_letters[:n]


def _einsum_spec(shapes, groups, open_axes) -> str:
    """Einsum subscripts wiring tensors of the given shapes.

    ``groups`` are the summation indices and ``open_axes`` the output
    indices in order; each is a list of ``(tensor_index, axis)`` pairs that
    share one letter.  Raises the typed errors documented on
    :func:`multi_contract`.
    """
    indices = [list(g) for g in groups]
    n_summed = len(indices)
    indices += [list(g) for g in open_axes]
    names = _letters(len(indices))
    letters: list[dict[int, str]] = [dict() for _ in shapes]
    for letter, index in zip(names, indices):
        dim = None
        for ti, ax in index:
            if not 0 <= ti < len(shapes):
                raise AxisOutOfRange(f"tensor index {ti} out of range")
            shape = shapes[ti]
            if not 0 <= ax < len(shape):
                raise AxisOutOfRange(f"axis {ax} out of range for rank {len(shape)}")
            if ax in letters[ti]:
                raise DuplicateAxis(f"axis {ax} of tensor {ti} bound twice")
            if dim is None:
                dim = shape[ax]
            elif shape[ax] != dim:
                raise DimensionMismatch(
                    f"axis {ax} of tensor {ti} has size {shape[ax]}, expected {dim}"
                )
            letters[ti][ax] = letter

    for ti, shape in enumerate(shapes):
        for ax in range(len(shape)):
            if ax not in letters[ti]:
                raise UnboundAxis(
                    f"axis {ax} of tensor {ti} is neither contracted nor open"
                )

    operands = ",".join(
        "".join(letters[ti][ax] for ax in range(len(shape)))
        for ti, shape in enumerate(shapes)
    )
    return operands + "->" + names[n_summed:]


# The default path optimizer caps intermediates at the largest operand size,
# which forces a catastrophic all-at-once contraction on small outputs; allow
# desk-scale intermediates explicitly.  A named strategy, never an explicit
# path: callers that key einsum calls on ``optimize`` need it hashable.
_OPTIMIZE = ("greedy", 1e8)


def multi_contract(
    tensors: Sequence[DenseTensor],
    groups: Iterable[Sequence[tuple[int, int]]],
    open_axes: Sequence[tuple[int, int]],
) -> DenseTensor:
    """Contract a network of tensors in one shot.

    ``groups`` lists the summation indices: each group is a set of
    ``(tensor_index, axis)`` pairs that share one index.  ``open_axes`` gives
    the output axes in order.  Every axis of every tensor must appear in
    exactly one group or in ``open_axes``.  The result equals any sequence of
    pairwise :func:`contract` calls realizing the same network; the actual
    contraction order is chosen internally.  More indices in total than
    einsum has letters raise :class:`~tcinit.errors.TooManyIndices`.
    """
    tensors = list(tensors)
    open_groups = [[pair] for pair in open_axes]
    spec = _einsum_spec([t.shape for t in tensors], groups, open_groups)
    return DenseTensor.from_array(np.einsum(spec, *[t.array for t in tensors],
                                            optimize=_OPTIMIZE))


def _pattern(shape, what: str, rule) -> DenseTensor:
    """The binary tensor of ``shape`` that is one where ``rule`` holds on its
    index grids.  Raises :class:`~tcinit.errors.ResourceLimit`, naming
    it ``what``, before allocating a pattern past the memory limit."""
    _check_array(shape, what)
    return DenseTensor.from_array(rule(*np.ix_(*map(np.arange, shape))).astype(np.float64))


def build_dummy(spec: DummySpec) -> DenseTensor:
    """Binary tensor of shape ``[alpha, alpha_prime, beta]``.

    Entry ``(j, j', k)`` is one exactly when ``j = stride*j' + k - padding``
    (see :func:`_pattern`).
    """
    return _pattern((spec.alpha, spec.alpha_prime, spec.beta), "the pattern tensor",
                    lambda j, jp, k: j == spec.stride * jp + k - spec.padding)


def reversal_matrix(r: int) -> DenseTensor:
    """Anti-diagonal permutation matrix ``R`` of size ``r`` (see
    :func:`_pattern`)."""
    _check_integers(InvalidShape, r=r)
    if r < 1:
        raise InvalidShape("r must be >= 1")
    return _pattern((r, r), "the reversal matrix", lambda i, j: i + j == r - 1)


def transformation_matrix(t: int, epsilon: int) -> DenseTensor:
    """Stride-expansion matrix ``T`` of shape ``[t, epsilon*(t-1)+1]``.

    Entry ``(i, j)`` is one exactly when ``j = epsilon * i`` (see
    :func:`_pattern`).  Right multiplication spreads a vector out with
    ``epsilon - 1`` zeros between consecutive entries.
    """
    _check_integers(InvalidShape, t=t, epsilon=epsilon)
    if t < 1 or epsilon < 1:
        raise InvalidShape("t and epsilon must be >= 1")
    # With t = 1, T is [1] for any epsilon, however large: leave it out.
    return _pattern((t, epsilon * (t - 1) + 1), "the transformation matrix",
                    lambda i, j: j == (epsilon if t > 1 else 1) * i)


# The variance scale p_a of each activation, as the calculus uses it: tanh is
# the identity near zero, and relu keeps half of a symmetric input's second
# moment.
ACTIVATION_SCALE = {"identity": 1.0, "tanh": 1.0, "relu": 0.5}
ACTIVATIONS = tuple(sorted(ACTIVATION_SCALE))


def _activation(arr: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``arr``, written into ``arr`` and returned."""
    if kind == "identity":
        return arr
    if kind == "relu":
        return np.maximum(arr, 0.0, out=arr)
    if kind == "tanh":
        return np.tanh(arr, out=arr)
    raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def _activation_grad(g: np.ndarray, post: np.ndarray, kind: str) -> np.ndarray:
    """``g`` times the activation's derivative at the pre-activation, read
    from ``post``, the output of :func:`_activation` on it, written into
    ``post`` and returned; identity copies ``g`` there.  Never writes into
    ``g``, which may broadcast against ``post``."""
    if kind == "identity":
        np.copyto(post, g)
        return post
    if kind == "relu":
        np.greater(post, 0.0, out=post)
    elif kind == "tanh":
        np.square(post, out=post)
        np.subtract(1.0, post, out=post)
    else:
        raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
    return np.multiply(g, post, out=post)
