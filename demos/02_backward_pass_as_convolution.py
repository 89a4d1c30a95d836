"""The backward pass of a strided convolution is itself a convolution.

The forward pattern tensor P (stride s, padding p) factors as
P = P' x T x R, where P' is the pattern of a stride-1 convolution with
padding beta - p - 1, T inserts s-1 zeros between gradient entries, and R
reverses the kernel axis.  This script checks the identity entry-by-entry
and then uses it to compute an input gradient that matches central finite
differences.
"""

import numpy as np

from tcinit import (
    DenseTensor,
    DummySpec,
    backward_dummy,
    build_backward_dummy,
    build_dummy,
    builtin_format,
    contract,
    make_plan,
    reversal_matrix,
    transformation_matrix,
    verify_theorem1,
)
from tcinit.network import backward_apply, forward_apply, materialize


def main():
    spec = DummySpec(alpha=9, beta=3, stride=2, padding=1)
    back = backward_dummy(spec)
    print(
        f"forward: alpha={spec.alpha} beta={spec.beta} "
        f"stride={spec.stride} padding={spec.padding} -> alpha'={spec.alpha_prime}"
    )
    print(
        f"backward: stride={back.stride} padding={back.padding} "
        f"expanded gradient length={back.grad_expanded}"
    )

    # reassemble P from the three factors and compare
    p_prime = build_backward_dummy(back)
    t = transformation_matrix(spec.alpha_prime, spec.stride)
    r = reversal_matrix(spec.beta)
    step = contract(p_prime, [1], DenseTensor.from_array(t.array), [1])
    rebuilt = contract(step, [1], DenseTensor.from_array(r.array), [0])
    assert np.array_equal(rebuilt.array, build_dummy(spec).array)
    print("P == P' x T x R holds entry-for-entry")
    assert verify_theorem1(spec)

    # use the rewrite to backpropagate through a real strided conv layer
    f = builtin_format("standard", c_in=2, c_out=3, k=3, alpha=9,
                       stride=2, padding=1)
    layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2, 9, 9))
    y = forward_apply(layer, DenseTensor.from_array(x)).array
    upstream = rng.standard_normal(y.shape)
    grad = backward_apply(layer, DenseTensor.from_array(upstream)).array

    def loss(xv):
        out = forward_apply(layer, DenseTensor.from_array(xv)).array
        return float((upstream * out).sum())

    eps = 1e-5
    flat = x.reshape(-1)
    worst = 0.0
    for i in rng.choice(flat.size, size=20, replace=False):
        xp, xm = flat.copy(), flat.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (loss(xp.reshape(x.shape)) - loss(xm.reshape(x.shape))) / (2 * eps)
        worst = max(worst, abs(grad.reshape(-1)[i] - fd) / max(abs(fd), 1e-8))
    print(f"gradient vs finite differences, max relative error {worst:.2e}")


if __name__ == "__main__":
    main()
