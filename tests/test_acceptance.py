"""End-to-end acceptance checks, one per criterion, each printing a
PASS/FAIL line (visible with ``pytest -v -s`` or in failure output)."""

import math
import time

import numpy as np

import tcinit as tc
from tcinit.cli import closure_sweep
from tcinit.simulate import report_csv, report_json


def _report(number: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} [criterion {number}] {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_backward_pattern_identity_exact():
    start = time.perf_counter()
    checked = 0
    failed = []
    for spec in tc.theorem1_grid():
        if not tc.verify_theorem1(spec):
            failed.append((spec.alpha, spec.beta, spec.stride, spec.padding))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = not failed and elapsed < 5.0
    _report(
        1,
        ok,
        f"exact backward-pattern identity on {checked} parameter combinations "
        f"in {elapsed:.2f}s (failures: {failed[:3]})",
    )


def test_criterion_02_degenerates_to_xavier_kaiming():
    worst = 0.0
    for k in (1, 3, 5, 7):
        for c_in in (3, 16, 64, 96):
            for c_out in (8, 32, 96):
                f = tc.builtin_format(
                    "standard", c_in=c_in, c_out=c_out, k=k, alpha=14
                )
                pairs = [
                    (tc.extract_bg(f, tc.FAN_IN), 1.0, 1.0 / (k * k * c_in)),
                    (tc.extract_bg(f, tc.FAN_OUT), 1.0, 1.0 / (k * k * c_out)),
                    (tc.extract_bg(f, tc.FAN_IN), 0.5, 2.0 / (k * k * c_in)),
                    (tc.extract_bg(f, tc.FAN_OUT), 0.5, 2.0 / (k * k * c_out)),
                ]
                for bg, p_a, reference in pairs:
                    got = tc.graph_init_variance(bg, 1, p_a, 1)
                    worst = max(worst, abs(got - reference) / reference)
    _report(2, worst < 1e-12, f"max relative deviation from fan formulas {worst:.2e}")


def test_criterion_03_unit_closure():
    result = closure_sweep(200)
    _report(
        3,
        result["ok"],
        f"closure over {result['cases']} (format, activation, side) cases, "
        f"max |value - 1| = {result['max_error']:.2e}",
    )


def test_criterion_04_closed_form_spot_values():
    f = tc.builtin_format("htk2", c_in=96, c_out=96, rank=10, k=3, alpha=8)
    bg = tc.extract_bg(f, tc.FAN_IN)
    product = tc.edge_product(bg)
    sigma2 = tc.graph_init_variance(bg, 3, 1.0, 4)
    # independent arithmetic oracle, written out from first principles
    oracle_product = 3 * 3 * 96 * 10 * 10
    oracle_sigma2 = (4 * oracle_product) ** (-1.0 / 3.0)
    ok = product == 86400 == oracle_product and (
        abs(sigma2 - oracle_sigma2) / oracle_sigma2 < 1e-12
    )
    _report(4, ok, f"edge product {product}, sigma^2 {sigma2:.6e}")


def test_criterion_05_proposition_monte_carlo():
    start = time.perf_counter()
    report = tc.proposition_checks(seed=101, samples=100_000)
    elapsed = time.perf_counter() - start
    bad = [c["name"] for c in report["checks"] if not c["ok"]]
    ok = report["ok"] and elapsed < 30.0
    _report(
        5,
        ok,
        f"{len(report['checks'])} additivity/scaling checks in {elapsed:.1f}s"
        + (f"; failed: {bad}" if bad else ""),
    )


def test_criterion_06_default_scale_chain():
    start = time.perf_counter()
    table = tc.scale_chain(seed=202, trials=500)
    elapsed = time.perf_counter() - start
    truth = [96, 200, 400, 600, 800, 1000, 800, 600, 400, 200]
    errors = [
        abs(row["mean"] - t) / t for row, t in zip(table, truth)
    ]
    ok = (
        [row["contracted_dim"] for row in table] == truth
        and max(errors) < 0.05
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"10-step chain, max per-step mean error {max(errors):.3%} "
        f"in {elapsed:.1f}s",
    )


VARIANCE_MC_CASES = [
    # trial counts sized to each topology's per-trial spread
    ("standard", dict(c_in=24, c_out=24, k=3, alpha=8), 60),
    ("lowrank", dict(c_in=24, c_out=24, rank=8, k=3, alpha=8), 60),
    ("tucker2", dict(c_in=24, c_out=24, r0=8, r1=8, k=3, alpha=8), 60),
    ("htk2", dict(c_in=24, c_out=24, r0=8, r1=8, k=3, alpha=8), 60),
    ("cp", dict(c_in=24, c_out=24, rank=8, k=3, alpha=8), 60),
    ("tt", dict(i_dims=(4, 6), o_dims=(4, 6), rank=6), 300),
    ("tr", dict(i_dims=(4, 6), o_dims=(4, 6), rank=4), 500),
    ("oddlike", dict(i_dims=(4, 5), o_dims=(4, 5), rank=3), 500),
]


def test_criterion_07_prediction_vs_measurement():
    worst = (0.0, "")
    for name, params, trials in VARIANCE_MC_CASES:
        f = tc.builtin_format(name, **params)
        for mode in tc.PLAN_MODES:
            plan = tc.make_plan(f, mode, "tanh")
            r = tc.variance_mc(f, plan, seed=11, trials=trials, batch=16)
            err = abs(r["empirical_ratio"] / r["predicted_ratio"] - 1.0)
            if err > worst[0]:
                worst = (err, f"{name}/{mode}")

    # uniform per-vertex 1/(k^2 c_in) on the factorized convolution: the
    # predicted ratio collapses to phi * r0 * r1 / (k^2 c_in)^2
    f = tc.builtin_format("htk2", c_in=96, c_out=96, rank=10, k=3, alpha=8)
    plan = tc.make_plan(f, "xavier-in", "tanh")
    r = tc.variance_mc(f, plan, seed=12, trials=60, batch=4)
    reference = 4 * 10 * 10 / (9 * 96) ** 2
    pred_ok = abs(r["predicted_ratio"] - reference) / reference < 1e-12
    emp_err = abs(r["empirical_ratio"] / reference - 1.0)
    ok = worst[0] < 0.15 and pred_ok and emp_err < 0.15
    _report(
        7,
        ok,
        f"worst builtin-x-mode error {worst[0]:.3%} ({worst[1]}); "
        f"uniform-fan failure ratio error {emp_err:.3%} "
        f"(predicted {r['predicted_ratio']:.3e})",
    )


def _hodd5_trace(mode: str, phi: int) -> tc.TraceReport:
    f = tc.builtin_format(
        "oddlike", i_dims=(20, 25), o_dims=(20, 25), rank=5, phi=phi
    )
    net = tc.NetworkSpec(
        (tc.LayerSpec(f, "tanh", mode),) * 5, (20, 25), batch=64
    )
    return tc.forward_trace(net, seed=303, trials=10)


def test_criterion_08_depth_saturation_directional():
    graph = {}
    for mode in ("graph-in", "graph-out"):
        for phi in (1, 4):
            graph[f"{mode}/phi={phi}"] = _hodd5_trace(mode, phi).layers
    vertex = _hodd5_trace("xavier-vertex", 4).layers
    graph_ok = all(layers[-1].saturation < 0.05 for layers in graph.values())

    # (a) per-layer variance ratio of per-vertex Xavier: pre-activation
    # variance over the previous layer's post-activation variance (unit
    # input variance into layer 1), against the hand-computed 4 * 5**-7
    reference = 4 * 5.0**-7
    ratio_errs = []
    previous = 1.0
    for layer in vertex:
        ratio_errs.append(abs(layer.pre_var / previous / reference - 1.0))
        previous = layer.post_var
    ratio_ok = max(ratio_errs) < 0.15

    # (b) the contrast through depth: graph plans keep layer-5 variance,
    # per-vertex Xavier loses it
    contrast_ok = (
        all(layers[-1].pre_var >= 1e-2 for layers in graph.values())
        and vertex[-1].pre_var <= 1e-12
    )
    detail = (
        "layer-5 saturation: "
        + ", ".join(f"{k}={v[-1].saturation:.4f}" for k, v in graph.items())
        + f", xavier-vertex/phi=4={vertex[-1].saturation:.4f}; "
        + "layer-5 pre-activation variance: "
        + ", ".join(f"{k}={v[-1].pre_var:.3e}" for k, v in graph.items())
        + f", xavier-vertex/phi=4={vertex[-1].pre_var:.3e}; "
        + f"xavier-vertex per-layer ratio errors vs {reference:.3e}: "
        + ", ".join(f"{e:.2%}" for e in ratio_errs)
    )
    # Per-vertex Xavier gives vertex v the variance d_last(v) / prod(dims of
    # v), so the per-layer ratio p_a * phi * prod(var) * prod(e) reduces to
    # phi * prod_v d_last(v) / (prod(rank dims) * prod(input dims)).  With 9
    # weight vertices, 14 rank edges of dim 5 and channel dims (20, 25) on
    # each side, the last dims can include each channel dim at most once, so
    # the ratio is at most 4 * (25*25*20*20) * 5**5 / (5**14 * 500) ~ 1e-3
    # for any topology and any edge order: activations vanish, and no such
    # network can saturate.  This stand-in gives 4 * 5**-7 exactly.  The
    # check therefore pins the failure's predicted size and its direction.
    _report(8, graph_ok and ratio_ok and contrast_ok, detail)


def test_criterion_09_gradient_correctness():
    # (a) exact gradients vs central finite differences on a small net
    f = tc.builtin_format("tt", i_dims=(3, 3), o_dims=(3, 3), rank=2)
    n_params = sum(
        math.prod(f.weight_mode_dims(vid)) for vid in f.weight_ids
    ) * 2
    assert n_params <= 1000
    net = tc.NetworkSpec(
        (
            tc.LayerSpec(f, "tanh", "graph-in"),
            tc.LayerSpec(f, "identity", "graph-in"),
        ),
        (3, 3),
        batch=2,
    )
    from tcinit.graph import make_plan
    from tcinit.network import forward_apply, materialize
    from tcinit.simulate import input_gradient
    from tcinit.tensor import DenseTensor

    plans = [make_plan(f, "graph-in", s.activation) for s in net.layers]
    layers = [materialize(f, plans[i], 40 + i) for i in range(2)]
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 3))
    upstream = rng.standard_normal((2, 3, 3))
    grad = input_gradient(net, layers, x, upstream).reshape(-1)

    def loss(xv):
        h = np.tanh(forward_apply(layers[0], DenseTensor.from_array(xv)).array)
        y = forward_apply(layers[1], DenseTensor.from_array(h)).array
        return float((upstream * y).sum())

    eps = 1e-5
    flat = x.reshape(-1)
    worst_rel = 0.0
    for i in range(flat.size):
        xp, xm = flat.copy(), flat.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (loss(xp.reshape(x.shape)) - loss(xm.reshape(x.shape))) / (2 * eps)
        denom = max(abs(fd), 1e-8)
        worst_rel = max(worst_rel, abs(grad[i] - fd) / denom)

    # (b) gradient-variance stability of the fan-out plan over depth 5
    f5 = tc.builtin_format("tt", i_dims=(8, 8), o_dims=(8, 8), rank=4)
    net5 = tc.NetworkSpec(
        (tc.LayerSpec(f5, "identity", "graph-out"),) * 5, (8, 8), batch=32
    )
    rep = tc.backward_trace(net5, seed=404, trials=30)
    ratios = []
    previous = 1.0
    for layer in reversed(rep.layers):
        ratios.append(layer.grad_var / previous)
        previous = layer.grad_var
    band_ok = all(0.9 < r < 1.1 for r in ratios)
    ok = worst_rel < 1e-5 and band_ok
    _report(
        9,
        ok,
        f"max finite-difference deviation {worst_rel:.2e}; per-layer gradient "
        f"ratios {[round(r, 3) for r in ratios]}",
    )


def test_criterion_10_byte_identical_reports():
    f = tc.builtin_format("tt", i_dims=(4, 6), o_dims=(4, 6), rank=3)
    net = tc.NetworkSpec((tc.LayerSpec(f, "tanh", "graph-in"),) * 3, (4, 6))
    outputs = []
    for workers in (1, 4, 1):
        fwd = tc.forward_trace(net, seed=505, trials=8, workers=workers)
        bwd = tc.backward_trace(net, seed=505, trials=8, workers=workers)
        outputs.append(
            report_json(fwd) + report_csv(fwd) + report_json(bwd) + report_csv(bwd)
        )
    chain = [
        repr(tc.scale_chain(seed=9, trials=10, dims=(16, 8), workers=w))
        for w in (1, 4)
    ]
    ok = outputs[0] == outputs[1] == outputs[2] and chain[0] == chain[1]
    _report(
        10,
        ok,
        "forward/backward trace and scale-chain reports byte-identical for "
        "workers in {1, 4} and across reruns",
    )
