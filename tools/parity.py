"""Byte-parity harness for the contraction engine and the seeded commands.

Runs per-trial ``forward_apply`` and ``backward_apply`` over a fixed grid of
layers and batches and records one sha256 of each output's bytes, keyed
``<layer>/<direction>/b<batch>``, one sha256 of the figures of the plan each
runs, keyed ``plan/<layer>/<direction>/b<batch>``, and one sha256 of each
seeded report below.  A plan's figures are its tile ``rows``, ``y_shape``,
``largest``, ``held`` and each step's kind and ``buffers``; how a step names
its operands and where its buffers lie in the workspace are left out.
Two checkouts give the same file exactly when every output is byte-identical.

    PYTHONPATH=src python tools/parity.py --out parity.json
    python tools/parity.py --compare before.json after.json

The grid:

* the 8 builtins with small adjoint-test parameters, at batches 1 and 3;
* 5 conv builtins x 5 large geometries, at batches 7, 12, 16 and 32, sized
  so that most shapes exceed the engine's batch-tile budget;
* large tt, tr and oddlike layers at batch 256;
* ``random_format(0)`` to ``random_format(59)`` at batches 1 and 3.

The reports, each run in-process and keyed by its exit code, stdout and
stderr (``repr`` for ``variance_mc``):

* ``simulate/conv_depth/s<seed>/<emit>/w<workers>``: ``tcinit simulate`` with
  the flags of the conv_depth benchmark at seeds 0-3, ``--emit`` json and
  csv, ``--workers`` 1 and 2;
* ``variance_mc/<builtin>/<mode>/s<seed>``: the 64 cells of the mc_small
  benchmark (8 builtins x 8 plan modes, batch 16) at seeds 0, 3 and 5;
* ``analyze/<builtin>/<emit>``: ``tcinit analyze`` on the 8 small builtins;
* ``verify/s0``, ``scale-chain/s0`` and ``scale-chain/s0/csv``: ``tcinit
  verify --seed 0`` and ``tcinit scale-chain --seed 0``, the latter also
  with ``--emit csv``;
* ``randgen/s0``: ``tcinit randgen --seed 0 --count 3`` and the names and
  contents of the files it writes;
* ``simulate/conv_depth/s0/out``: ``tcinit simulate`` with the conv_depth
  flags at seed 0 and ``--out STEM``, and both files it writes;
* ``simulate/std400/w<workers>``: ``tcinit simulate`` on a depth-2 standard
  stack of 400 channels, whose GEMMs OpenBLAS splits over its threads, at
  ``--workers`` 1 and 2;
* ``simulate/strided/s<seed>``: ``tcinit simulate`` on one stride-2
  ``standard`` layer under ``graph-out`` at seeds 0 and 1, whose forward
  window step reads at stride 2 and keeps the batch rows out of its GEMM
  rows; a second such layer would not chain, since its output is half as
  wide as its input;
* ``simulate/exit2/<case>``: the ``tcinit simulate`` runs of
  ``EXIT2_CASES``, each of which exits 2 on any machine with less than
  about 14 TB of memory.

And one sha256 per demo, keyed ``demo/<file>``: the standard output of each
script under ``demos/``, run with ``PYTHONPATH`` set to the checkout's
``src``.

And one sha256 per block layout, keyed ``block/<case>/<direction>``: the
arena a trial block of ``simulate._layout`` holds (its total, and each
role's offset and shape) for the ``conv_depth`` stack at 2 trials and, as
``block/mc_small/<builtin>``, for the one-layer stack of each mc_small
builtin at its trial count above, ``forward`` only and with ``backward``.  A
checkout without ``simulate._layout`` has no such keys.

``--compare`` prints each key whose digest differs or that only one file
holds, and exits 1 when there is any; it needs no ``tcinit`` import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

SMALL_BUILTINS = {
    "standard": dict(c_in=3, c_out=4, k=3, alpha=7, stride=2, padding=1),
    "lowrank": dict(c_in=3, c_out=4, rank=2, k=3, alpha=(6, 8), padding=2),
    "tucker2": dict(c_in=3, c_out=4, r0=2, r1=3, k=2, alpha=7, stride=3),
    "htk2": dict(c_in=3, c_out=4, rank=2, k=3, alpha=6, padding=1),
    "cp": dict(c_in=3, c_out=4, rank=2, k=3, alpha=7, stride=2),
    "tt": dict(i_dims=(2, 3, 2), o_dims=(3, 2, 2), rank=2, k=3, spatial=1, alpha=6),
    "tr": dict(i_dims=(2, 3), o_dims=(3, 2), rank=2, k=2, alpha=5),
    "oddlike": dict(i_dims=(2, 3), o_dims=(3, 2), rank=2),
}
SMALL_BATCHES = (1, 3)

CONV_NAMES = ("standard", "lowrank", "tucker2", "htk2", "cp")
# Each holds 8k-33k input entries per sample.  The first is one layer of
# the conv_depth benchmark stack.
CONV_GEOMETRIES = {
    "c32a32": dict(c_in=32, c_out=32, rank=8, k=3, alpha=32, padding=1),
    "c8to64a16": dict(c_in=8, c_out=64, rank=8, k=3, alpha=16, padding=1),
    "c16s2": dict(c_in=16, c_out=16, rank=8, k=3, alpha=(48, 40), stride=2, padding=1),
    "c24k5phi2": dict(c_in=24, c_out=24, rank=6, k=5, alpha=24, padding=2, phi=2),
    "c16d3": dict(c_in=16, c_out=16, rank=4, k=3, spatial=3, alpha=12, padding=1),
}
CONV_BATCHES = (7, 12, 16, 32)

LINEAR_LAYERS = {
    "tt-r6": ("tt", dict(i_dims=(8, 32), o_dims=(16, 16), rank=6)),
    "tr-r6": ("tr", dict(i_dims=(8, 32), o_dims=(16, 16), rank=6)),
    "oddlike-r4": ("oddlike", dict(i_dims=(8, 32), o_dims=(16, 16), rank=4)),
    "tt-r8": ("tt", dict(i_dims=(16, 16, 4), o_dims=(8, 8, 16), rank=8)),
    "tr-r8": ("tr", dict(i_dims=(16, 16, 4), o_dims=(8, 8, 16), rank=8)),
}
LINEAR_BATCHES = (256,)

RANDOM_SEEDS = range(60)

CONV_DEPTH_FLAGS = ["--builtin", "htk2", "-P", "c_in=32", "-P", "c_out=32", "-P", "rank=8",
                    "-P", "k=3", "-P", "padding=1", "-P", "alpha=32", "--depth", "5",
                    "--act", "tanh", "--mode", "graph-in", "--batch", "16", "--trials", "2"]
CONV_DEPTH_SEEDS = range(4)
STD400_FLAGS = ["--builtin", "standard", "-P", "c_in=400", "-P", "c_out=400", "--batch", "32",
                "--depth", "2", "--trials", "4", "--seed", "0"]
STRIDED_FLAGS = ["--builtin", "standard", "-P", "c_in=8", "-P", "c_out=8", "-P", "k=3",
                 "-P", "alpha=24", "-P", "padding=1", "-P", "stride=2", "--mode", "graph-out",
                 "--trials", "4"]
STRIDED_SEEDS = (0, 1)

# builtin, parameters, trials: the criterion-7 grid, run at batch 16.
MC_CASES = (
    ("standard", dict(c_in=24, c_out=24, k=3, alpha=8), 60),
    ("lowrank", dict(c_in=24, c_out=24, rank=8, k=3, alpha=8), 60),
    ("tucker2", dict(c_in=24, c_out=24, r0=8, r1=8, k=3, alpha=8), 60),
    ("htk2", dict(c_in=24, c_out=24, r0=8, r1=8, k=3, alpha=8), 60),
    ("cp", dict(c_in=24, c_out=24, rank=8, k=3, alpha=8), 60),
    ("tt", dict(i_dims=(4, 6), o_dims=(4, 6), rank=6), 300),
    ("tr", dict(i_dims=(4, 6), o_dims=(4, 6), rank=4), 500),
    ("oddlike", dict(i_dims=(4, 5), o_dims=(4, 5), rank=3), 500),
)
MC_SEEDS = (0, 3, 5)

TT_44 = ["--builtin", "tt", "-P", "i_dims=4,4", "-P", "o_dims=4,4", "-P", "rank=3"]
TT_46 = ["--builtin", "tt", "-P", "i_dims=4,6", "-P", "o_dims=4,6", "-P", "rank=3"]
# ``tcinit simulate`` flags that exit 2.  The depths keep 924 entries per
# layer: 7.4e12 and 7.4e14 bytes.
EXIT2_CASES = {
    "input-d1": ["--builtin", "standard", "-P", "c_in=16", "-P", "c_out=16", "-P", "k=3",
                 "-P", "alpha=1000000", "--seed", "0", "--trials", "1"],
    "depth-1e9": [*TT_46, "--seed", "0", "--depth", "1000000000"],
    "depth-1e11": [*TT_46, "--seed", "0", "--depth", "100000000000"],
    "mismatch-d2": ["--builtin", "tt", "-P", "i_dims=4,4", "-P", "o_dims=4,5", "-P", "rank=3",
                    "--depth", "2", "--seed", "1"],
    "indices": ["--builtin", "tt", "-P", "i_dims=" + ",".join(["2"] * 20),
                "-P", "o_dims=" + ",".join(["2"] * 20), "-P", "rank=2",
                "--seed", "0", "--trials", "1", "--batch", "2"],
    "trials-0": [*TT_44, "--seed", "0", "--trials", "0"],
    "workers-0": [*TT_44, "--depth", "2", "--trials", "4", "--batch", "8", "--seed", "0",
                  "--workers", "0"],
}


def grid():
    """``(name, format, batches)`` for every layer of the grid, in order."""
    from tcinit.formats import builtin_format, random_format

    for name, params in SMALL_BUILTINS.items():
        yield name, builtin_format(name, **params), SMALL_BATCHES
    for geometry, params in CONV_GEOMETRIES.items():
        for name in CONV_NAMES:
            extra = {} if name == "standard" else {"rank": params["rank"]}
            if name in ("tucker2", "htk2"):
                extra = {"r0": params["rank"], "r1": params["rank"]}
            rest = {k: v for k, v in params.items() if k != "rank"}
            yield f"{name}-{geometry}", builtin_format(name, **rest, **extra), CONV_BATCHES
    for name, (builtin, params) in LINEAR_LAYERS.items():
        yield name, builtin_format(builtin, **params), LINEAR_BATCHES
    for seed in RANDOM_SEEDS:
        yield f"random{seed}", random_format(seed), SMALL_BATCHES


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(*argv: str) -> str:
    """Exit code, stdout and stderr of one in-process ``tcinit`` run."""
    from tcinit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _cli_files(*argv: str) -> str:
    """:func:`_cli` of one run in an empty directory, then the name and
    contents of each file the run writes there."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            text = _cli(*argv)
            files = sorted(Path(".").iterdir())
            return text + "".join(f"{p.name}\n{p.read_text()}\n" for p in files)
        finally:
            os.chdir(cwd)


def report_digests() -> dict[str, str]:
    """One sha256 per seeded report listed in the module docstring."""
    from tcinit.formats import builtin_format
    from tcinit.graph import PLAN_MODES, make_plan
    from tcinit.simulate import variance_mc

    out = {}
    for seed in CONV_DEPTH_SEEDS:
        for emit in ("json", "csv"):
            for workers in (1, 2):
                text = _cli("simulate", *CONV_DEPTH_FLAGS, "--emit", emit,
                            "--workers", str(workers), "--seed", str(seed))
                out[f"simulate/conv_depth/s{seed}/{emit}/w{workers}"] = _sha(text)
    for name, params, trials in MC_CASES:
        f = builtin_format(name, **params)
        for mode in PLAN_MODES:
            plan = make_plan(f, mode, "tanh")
            for seed in MC_SEEDS:
                result = variance_mc(f, plan, seed=seed, trials=trials, batch=16)
                out[f"variance_mc/{name}/{mode}/s{seed}"] = _sha(repr(result))
    for name, params in SMALL_BUILTINS.items():
        flags = [flag for k, v in params.items()
                 for flag in ("-P", f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}")]
        for emit in ("json", "csv"):
            out[f"analyze/{name}/{emit}"] = _sha(_cli("analyze", "--builtin", name, *flags,
                                                      "--emit", emit))
    out["verify/s0"] = _sha(_cli("verify", "--seed", "0"))
    out["scale-chain/s0"] = _sha(_cli("scale-chain", "--seed", "0"))
    out["scale-chain/s0/csv"] = _sha(_cli("scale-chain", "--seed", "0", "--emit", "csv"))
    out["randgen/s0"] = _sha(_cli_files("randgen", "--seed", "0", "--count", "3"))
    out["simulate/conv_depth/s0/out"] = _sha(_cli_files("simulate", *CONV_DEPTH_FLAGS,
                                                        "--seed", "0", "--out", "trace"))
    for workers in (1, 2):
        out[f"simulate/std400/w{workers}"] = _sha(_cli("simulate", *STD400_FLAGS,
                                                       "--workers", str(workers)))
    for seed in STRIDED_SEEDS:
        out[f"simulate/strided/s{seed}"] = _sha(_cli("simulate", *STRIDED_FLAGS,
                                                     "--seed", str(seed)))
    for case, flags in EXIT2_CASES.items():
        out[f"simulate/exit2/{case}"] = _sha(_cli("simulate", *flags))
    return out


def demo_digests() -> dict[str, str]:
    """One sha256 per demo script's standard output."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                              capture_output=True, check=True)
        out[f"demo/{demo.name}"] = hashlib.sha256(done.stdout).hexdigest()
    return out


def block_digests() -> dict[str, str]:
    """One sha256 per block layout listed in the module docstring."""
    from tcinit import simulate
    from tcinit.formats import builtin_format

    if not hasattr(simulate, "_layout"):
        return {}
    f = builtin_format("htk2", c_in=32, c_out=32, rank=8, k=3, padding=1, alpha=32)
    cases = {"conv_depth": (simulate.NetworkSpec((simulate.LayerSpec(f, "tanh"),) * 5,
                                                 f.input_mode_dims(), 16), 2)}
    for name, params, trials in MC_CASES:
        g = builtin_format(name, **params)
        cases[f"mc_small/{name}"] = (
            simulate.NetworkSpec((simulate.LayerSpec(g),), g.input_mode_dims(), 16), trials)
    out = {}
    for case, (net, trials) in cases.items():
        for direction in ("forward", "backward"):
            layout = simulate._layout(net, trials, 1, direction == "backward")[1]
            out[f"block/{case}/{direction}"] = _sha(repr(layout))
    return out


def digests() -> dict[str, str]:
    """One sha256 per (layer, direction, batch) of the grid, of its output
    and of its plan, and per seeded report, from the ``tcinit`` on the
    import path, and per demo, from the checkout's own ``src``."""
    from tcinit.graph import make_plan
    from tcinit.network import _plan, backward_apply, forward_apply, materialize
    from tcinit.tensor import DenseTensor

    out = {}
    for name, f, batches in grid():
        layer = materialize(f, make_plan(f, "graph-in", "identity"), 0)
        for direction, apply, dims in (
            ("forward", forward_apply, f.input_mode_dims()),
            ("backward", backward_apply, f.output_mode_dims()),
        ):
            for batch in batches:
                x = np.random.default_rng(batch).standard_normal((batch, *dims))
                y = apply(layer, DenseTensor.from_array(x)).array
                out[f"{name}/{direction}/b{batch}"] = hashlib.sha256(y.tobytes()).hexdigest()
                plan = _plan(f, direction == "backward", (1, batch, *dims))
                figures = (plan.rows, plan.y_shape, plan.largest, plan.held,
                           [(type(s).__name__, s.buffers) for s in plan.steps])
                out[f"plan/{name}/{direction}/b{batch}"] = _sha(repr(figures))
    return {**out, **report_digests(), **demo_digests(), **block_digests()}


def compare(a: dict, b: dict) -> list[str]:
    """Keys whose digests differ or that only one side holds, sorted."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write the grid's digests to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="list the keys whose digests differ between A and B")
    args = ap.parse_args(argv)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(digests(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    a, b = (json.load(open(path)) for path in args.compare)
    differ = compare(a, b)
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
