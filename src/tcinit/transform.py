"""Rewriting the backward pass of a convolution as a convolution.

For a forward convolution ``y = x (*) w`` described by a
:class:`~tcinit.tensor.DummySpec`, the gradient with respect to ``x`` is
itself a stride-1 convolution: expand the incoming gradient by the forward
stride (insert zeros, via :func:`~tcinit.tensor.transformation_matrix`),
pad by ``beta - padding - 1`` and correlate against the reversed kernel
(:func:`~tcinit.tensor.reversal_matrix`).  :func:`verify_theorem1` checks the
underlying identity on the index-pattern tensors exactly:
``P == P' x_1 T x_2 R`` entrywise, with no tolerance.

The backward pattern ``P'`` has shape ``[alpha, alpha_tilde, beta]`` with a
one at ``(j, jt, k)`` exactly when ``jt = j + k - (beta - padding - 1)``.
Note the kernel axis of ``P'`` indexes the *reversed* kernel (the ``R`` factor
of the identity): the backward window step pairs offset ``k`` with the weight
at ``beta - 1 - k``.  :func:`backward_pattern` folds ``T`` into ``P'``; it is
the reference for the window step that executes
:func:`build_backward_format` layers (zero insertion by the forward stride,
a left pad of ``beta - padding - 1``, stride 1).  :func:`theorem1_grid` is
the parameter grid on which the identity is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDummySpec, InvalidPadding, ValidationError
from .formats import (
    INPUT_CHANNEL,
    KERNEL,
    OUTPUT_CHANNEL,
    LayerFormat,
)
from .tensor import (
    DenseTensor,
    DummySpec,
    _check_type,
    _pattern,
    _shown,
    build_dummy,
    contract,
    reversal_matrix,
    transformation_matrix,
)


@dataclass(frozen=True)
class BackwardDummySpec:
    """Backward-convolution parameters derived from a forward window.

    The backward convolution always has stride 1.  Its input is the forward
    output gradient (length ``alpha``, equal to the forward output length),
    zero-expanded to ``grad_expanded`` when the forward stride exceeds 1;
    its padding is ``beta - padding - 1`` and its output length
    ``alpha_prime`` recovers the forward input length.
    """

    forward: DummySpec

    def __post_init__(self):
        if self.forward.padding > self.forward.beta - 1:
            raise InvalidPadding(
                f"padding {_shown(self.forward.padding, str)} exceeds beta-1 = "
                f"{_shown(self.forward.beta - 1, str)}; the backward construction is undefined"
            )

    @property
    def beta(self) -> int:
        return self.forward.beta

    @property
    def stride(self) -> int:
        return 1

    @property
    def padding(self) -> int:
        return self.forward.beta - self.forward.padding - 1

    @property
    def dilation(self) -> int:
        """The gradient gets ``forward.stride - 1`` zeros between entries."""
        return self.forward.stride

    @property
    def alpha(self) -> int:
        """Spatial length of the incoming gradient (forward output length)."""
        return self.forward.alpha_prime

    @property
    def grad_expanded(self) -> int:
        """Gradient length after zero expansion by the forward stride."""
        return self.forward.stride * (self.forward.alpha_prime - 1) + 1

    @property
    def alpha_prime(self) -> int:
        """Output length of the backward convolution (forward input length)."""
        return self.forward.alpha


def backward_dummy(fwd: DummySpec) -> BackwardDummySpec:
    """Derive the backward window parameters; requires padding <= beta-1."""
    return BackwardDummySpec(fwd)


def build_backward_dummy(spec: BackwardDummySpec) -> DenseTensor:
    """Binary pattern of shape ``[alpha_fwd, grad_expanded, beta]``.

    Entry ``(j, jt, k)`` is one exactly when ``jt = j + k - padding`` with
    ``padding = beta - p - 1``.  The third axis indexes the reversed kernel.
    """
    return _pattern((spec.forward.alpha, spec.grad_expanded, spec.beta),
                    "the backward pattern", lambda j, jt, k: jt == j + k - spec.padding)


def backward_pattern(spec: BackwardDummySpec) -> DenseTensor:
    """Executable backward pattern ``P' x T``, shape ``[alpha, alpha_fwd, beta]``.

    Axis 0 indexes the unexpanded gradient, axis 1 the forward input and
    axis 2 the reversed kernel, matching the ``[input, output, window]``
    layout of :func:`~tcinit.tensor.build_dummy`.
    """
    t = transformation_matrix(spec.alpha, spec.forward.stride)
    return contract(t, [1], build_backward_dummy(spec), [1])


def theorem1_grid():
    """The window specs on which the exact identity is checked, 441 in all.

    Every ``alpha`` in 3..12, ``beta`` in 1..5, ``stride`` in 1..3 and
    ``padding`` in 0..beta-1 whose window fits the padded input.
    """
    for alpha in range(3, 13):
        for beta in range(1, 6):
            for stride in range(1, 4):
                for padding in range(0, beta):
                    if alpha + 2 * padding >= beta:
                        yield DummySpec(alpha, beta, stride, padding)


def verify_theorem1(fwd: DummySpec) -> bool:
    """Check the exact pattern identity behind the backward rewrite.

    Returns true iff the forward pattern equals the backward pattern
    contracted with the stride-expansion matrix on its middle mode and the
    reversal matrix on its kernel mode, entrywise with zero tolerance.
    """
    _check_type(fwd, DummySpec, InvalidDummySpec, "fwd")
    p = build_dummy(fwd)
    pp = build_backward_dummy(backward_dummy(fwd))
    t = transformation_matrix(fwd.alpha_prime, fwd.stride)
    r = reversal_matrix(fwd.beta)
    # pp [a, g, b] x t [a', g] -> [a, b, a']; then x r on the kernel axis.
    step = contract(pp, [1], t, [1])
    rhs = contract(step, [1], r, [0])  # [a, a', b]
    return p.shape == rhs.shape and np.array_equal(p.array, rhs.array)


def build_backward_format(f: LayerFormat) -> LayerFormat:
    """Rewrite a forward layer format into its backward-convolution form.

    The input vertex now carries the output gradient: every input-channel
    edge becomes an output-channel edge (shedding the input vertex) and vice
    versa (gaining it); kernel edges keep their window dim but carry the
    backward window parameters; rank edges and the multiplicity are
    unchanged.  Applying the rewrite twice restores the original edge kinds.
    """
    _check_type(f, LayerFormat, ValidationError, "the format")
    xid = f.input_vertex.id
    edges = []
    for e in f.edges:
        if e.kind == INPUT_CHANNEL:
            edges.append(
                replace(
                    e,
                    kind=OUTPUT_CHANNEL,
                    endpoints=tuple(p for p in e.endpoints if p != xid),
                )
            )
        elif e.kind == OUTPUT_CHANNEL:
            edges.append(
                replace(e, kind=INPUT_CHANNEL, endpoints=(xid,) + e.endpoints)
            )
        elif e.kind == KERNEL:
            window = (
                e.window.forward
                if isinstance(e.window, BackwardDummySpec)
                else backward_dummy(e.window)
            )
            edges.append(replace(e, window=window))
        else:
            edges.append(e)
    return LayerFormat(f.vertices, tuple(edges), f.phi)
