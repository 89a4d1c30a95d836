"""Signal propagation through depth, and the scale of repeated contractions.

Part 1 stacks five factorized linear layers with tanh activations and
traces activation variance, gradient variance and saturation under the
graph-derived plan.
Part 2 contracts a chain of unit-variance random tensors and shows the
variance after each step tracking the contracted dimension.
"""

from tcinit import (
    LayerSpec,
    NetworkSpec,
    builtin_format,
    backward_trace,
    scale_chain,
)


def main():
    f = builtin_format("tt", i_dims=(8, 8), o_dims=(8, 8), rank=4)
    net = NetworkSpec(
        (LayerSpec(f, "tanh", "graph-in"),) * 5, (8, 8), batch=64
    )
    # One forward and one backward pass per trial give both columns.
    report = backward_trace(net, seed=0, trials=20)
    print("layer  pre_var  post_var  grad_var  saturation")
    for i, t in enumerate(report.layers):
        print(
            f"{i:5d}  {t.pre_var:7.4f}  {t.post_var:8.4f}  "
            f"{t.grad_var:8.4f}  {t.saturation:10.4f}"
        )

    print("\nvariance growth in a chain of random contractions:")
    print("step  contracted_dim      mean       std")
    for row in scale_chain(seed=1, trials=100, dims=(96, 200, 400, 200, 96)):
        print(
            f"{row['step']:4d}  {row['contracted_dim']:14d}  "
            f"{row['mean']:9.2f}  {row['std']:8.2f}"
        )


if __name__ == "__main__":
    main()
