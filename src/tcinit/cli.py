"""Command-line front end.

Subcommands: ``analyze`` (backbone graphs and variances), ``simulate``
(forward/backward Monte-Carlo traces), ``verify`` (identity grid,
proposition checks, closure sweep), ``randgen`` (random format files),
``scale-chain`` (matrix-chain variance scales).  Exit codes: 0 success,
1 usage error, 2 validation/parse error, 3 verification failure.

Every randomized command requires an explicit ``--seed``; identical flags
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats, graph, simulate, transform
from .errors import InvalidParams, TcinitError
from .graph import BASELINE_MODES, GRAPH_MODES, GRAPH_SIDES, PLAN_MODES
from .tensor import ACTIVATIONS, _check_array, _check_seed

USAGE_EXIT = 1
VALIDATION_EXIT = 2
VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _parse_param(text: str):
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise InvalidParams(f"parameter {text!r} is not key=value")
    return key, value


def _load_format(args) -> formats.LayerFormat:
    if args.format and args.builtin:
        raise TcinitError("give either --format or --builtin, not both")
    if args.format:
        f = formats.parse_format(Path(args.format).read_text())
        if args.phi is not None:
            f = formats.LayerFormat(f.vertices, f.edges, args.phi)
            formats.validate(f)
    elif args.builtin:
        params = {}
        for key, value in map(_parse_param, args.param or []):
            if key in params:
                raise InvalidParams(f"parameter {key!r} is given twice")
            params[key] = value
        if args.phi is not None:
            params["phi"] = args.phi
        f = formats.builtin_format(args.builtin, **params)
    else:
        raise TcinitError("a format is required: --format FILE or --builtin NAME")
    return f


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_format_flags(p):
    p.add_argument("--format", help="path to a format file")
    p.add_argument("--builtin", help="builtin format name")
    p.add_argument(
        "-P",
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="builtin parameter (repeatable); comma lists become tuples",
    )
    p.add_argument("--phi", type=int, help="override hyperedge multiplicity")


def cmd_analyze(args) -> int:
    f = _load_format(args)
    plans = {mode: graph.make_plan(f, mode, args.act) for mode in PLAN_MODES}
    # Every plan holds the activation's p_a, and a graph plan gives every
    # weight vertex the same variance.
    report = {"phi": f.phi, "activation": args.act, "p_a": plans[PLAN_MODES[0]].p_a}
    for mode, side in GRAPH_SIDES.items():
        report[side.replace("-", "_")] = graph.backbone_report(graph.extract_bg(f, side))
        report[mode.replace("-", "_") + "_sigma2"] = plans[mode].variances[f.weight_ids[0]]
    report["baselines"] = {
        mode: dict(sorted(plans[mode].variances.items())) for mode in BASELINE_MODES
    }
    if args.emit == "csv":
        lines = ["mode,vertex,sigma2"]
        for vid in f.weight_ids:
            lines += [f"{mode},{vid},{plans[mode].variances[vid]!r}" for mode in GRAPH_MODES]
        for mode in BASELINE_MODES:
            for vid, v in sorted(report["baselines"][mode].items()):
                lines.append(f"{mode},{vid},{v!r}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write_or_print(text, args.out)
    return 0


def cmd_simulate(args) -> int:
    f = _load_format(args)
    spec = simulate.LayerSpec(f, activation=args.act, mode=args.mode)
    # The walk in backward_trace is the run's one check.  Bound what a deeper
    # stack keeps before it is built, since its tuple alone may not fit; the
    # walk names the arrays of a one-layer stack itself.
    if args.depth > 1:
        _check_array((args.depth, simulate._kept_entries(f, args.batch)),
                     f"the weights and kept activations of {args.depth} layers")
    net = simulate.NetworkSpec(
        layers=(spec,) * args.depth,
        input_shape=f.input_mode_dims(),
        batch=args.batch,
    )
    report = simulate.backward_trace(net, args.seed, args.trials, workers=args.workers)
    if args.out:
        base = Path(args.out)
        base.with_suffix(".json").write_text(simulate.report_json(report))
        base.with_suffix(".csv").write_text(simulate.report_csv(report))
    else:
        text = (
            simulate.report_csv(report)
            if args.emit == "csv"
            else simulate.report_json(report)
        )
        sys.stdout.write(text)
    return 0


def _theorem1_grid() -> dict:
    total = 0
    for spec in transform.theorem1_grid():
        if not transform.verify_theorem1(spec):
            return {
                "ok": False,
                "failed_at": [spec.alpha, spec.beta, spec.stride, spec.padding],
            }
        total += 1
    return {"ok": True, "cases": total}


VERIFY_BUILTINS = (
    ("standard", dict(c_in=16, c_out=16, k=3, alpha=8)),
    ("lowrank", dict(c_in=16, c_out=16, rank=4, k=3, alpha=8)),
    ("tucker2", dict(c_in=16, c_out=16, r0=4, r1=4, k=3, alpha=8)),
    ("htk2", dict(c_in=16, c_out=16, r0=4, r1=4, k=3, alpha=8)),
    ("cp", dict(c_in=16, c_out=16, rank=4, k=3, alpha=8)),
    ("tt", dict(i_dims=(4, 4), o_dims=(4, 4), rank=3)),
    ("tr", dict(i_dims=(4, 4), o_dims=(4, 4), rank=3)),
    ("oddlike", dict(i_dims=(4, 5), o_dims=(4, 5), rank=3)),
)


def closure_sweep(random_seeds: int, first_seed: int = 0) -> dict:
    """Check unit variance closure of the graph plans over many formats."""
    cases = [formats.builtin_format(name, **dict(params))
             for name, params in VERIFY_BUILTINS]
    cases += [formats.random_format(first_seed + i) for i in range(random_seeds)]
    worst = 0.0
    count = 0
    for f in cases:
        for act in ("tanh", "relu"):
            for mode, side in GRAPH_SIDES.items():
                plan = graph.make_plan(f, mode, act)
                value = graph.predicted_output_variance(
                    graph.extract_bg(f, side), 1.0, plan.variances.values(),
                    plan.p_a, f.phi,
                )
                worst = max(worst, abs(value - 1.0))
                count += 1
    return {"cases": count, "max_error": worst, "ok": worst < 1e-9}


def cmd_verify(args) -> int:
    if args.random_formats < 0:
        raise InvalidParams("random-formats must be >= 0")
    props = simulate.proposition_checks(args.seed)
    theorem1 = _theorem1_grid()
    closure = closure_sweep(args.random_formats, first_seed=args.seed)
    report = {
        "theorem1": theorem1,
        "propositions": props,
        "closure": closure,
        "ok": bool(theorem1["ok"] and props["ok"] and closure["ok"]),
    }
    _write_or_print(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if report["ok"] else VERIFY_EXIT


def cmd_randgen(args) -> int:
    if args.count < 1:
        raise InvalidParams("count must be >= 1")
    # Before the directory is made, and naming the seed as given.
    _check_seed(args.seed)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        f = formats.random_format([args.seed, i])
        path = outdir / f"format_{args.seed}_{i}.txt"
        path.write_text(formats.serialize_format(f))
        sys.stdout.write(f"{path}\n")
    return 0


def cmd_scale_chain(args) -> int:
    dims = formats.parse_ints("dims", args.dims) if args.dims else simulate.DEFAULT_CHAIN_DIMS
    table = simulate.scale_chain(
        args.seed, trials=args.trials, dims=dims, batch=args.batch,
        workers=args.workers,
    )
    if args.emit == "csv":
        lines = ["step,contracted_dim,mean,std"]
        for row in table:
            lines.append(
                f"{row['step']},{row['contracted_dim']},{row['mean']!r},{row['std']!r}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(table, sort_keys=True, indent=2) + "\n"
    _write_or_print(text, args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tcinit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="backbone graphs and variance report")
    _add_format_flags(pa)
    pa.add_argument("--act", choices=ACTIVATIONS, default="tanh")
    pa.add_argument("--out")
    pa.add_argument("--emit", choices=("json", "csv"), default="json")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="Monte-Carlo forward/backward traces")
    _add_format_flags(ps)
    ps.add_argument("--mode", choices=PLAN_MODES, default="graph-in")
    ps.add_argument("--act", choices=ACTIVATIONS, default="tanh")
    ps.add_argument("--depth", type=int, default=1)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--trials", type=int, default=20)
    ps.add_argument("--batch", type=int, default=32)
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--out", help="output path stem for .json and .csv")
    ps.add_argument("--emit", choices=("json", "csv"), default="json")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="identity grid, propositions, closure")
    pv.add_argument("--seed", type=int, required=True)
    pv.add_argument("--random-formats", type=int, default=50)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("randgen", help="write random format files")
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--count", type=int, default=1)
    pr.add_argument("--out", help="output directory")
    pr.set_defaults(func=cmd_randgen)

    pc = sub.add_parser("scale-chain", help="matrix-chain variance scales")
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--trials", type=int, default=500)
    pc.add_argument("--dims", help="comma-separated chain dims")
    pc.add_argument("--batch", type=int, default=32)
    pc.add_argument("--workers", type=int, default=1)
    pc.add_argument("--out")
    pc.add_argument("--emit", choices=("json", "csv"), default="json")
    pc.set_defaults(func=cmd_scale_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TcinitError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
