"""Byte-parity harness for the contraction engine.

Runs per-trial ``forward_apply`` and ``backward_apply`` over a fixed grid of
layers and batches and records one sha256 of each output's bytes, keyed
``<layer>/<direction>/b<batch>``.  Two checkouts of the engine give the same
file exactly when every output is byte-identical.

    PYTHONPATH=src python tools/parity.py --out parity.json
    python tools/parity.py --compare before.json after.json

The grid:

* the 8 builtins with small adjoint-test parameters, at batches 1 and 3;
* 5 conv builtins x 5 large geometries, at batches 7, 12, 16 and 32, sized
  so that most shapes exceed the engine's batch-tile budget;
* large tt, tr and oddlike layers at batch 256;
* ``random_format(0)`` to ``random_format(59)`` at batches 1 and 3.

``--compare`` prints each key whose digest differs or that only one file
holds, and exits 1 when there is any; it needs no ``tcinit`` import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

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


def digests() -> dict[str, str]:
    """One sha256 per (layer, direction, batch) of the grid, from the
    ``tcinit`` on the import path."""
    from tcinit.graph import make_plan
    from tcinit.network import backward_apply, forward_apply, materialize
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
    return out


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
