"""The three benchmark workloads: inputs from a seed, one item, its check.

A workload object is built from the workload seed (that is its set-up:
drawing inputs and loading reference values).  ``items()`` yields an endless,
seed-determined stream of item descriptions; ``pass_size`` items form one
pass, and the timed loop only ever runs whole passes.  ``run(item)`` makes the
program calls that are timed; ``check(item, result)`` verifies the result
outside the timed region; ``digest(result)`` condenses it so that a traced
and an untraced run can be compared exactly.

The program is reached only through module attributes looked up at call
time (``tc.variance_mc``, ``tcinit.cli.main``), so the tracer's wrappers
see every call.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import tcinit as tc
import tcinit.cli

REFS = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-9


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _load_refs(name: str, params: dict) -> dict:
    data = json.loads((REFS / f"{name}.json").read_text())
    if data["params"] != params:
        raise ValueError(f"refs/{name}.json was made for other parameters")
    return data["items"]


# -- conv_depth -------------------------------------------------------------


class ConvDepth:
    """One ``tcinit simulate`` call per item: a 5-deep htk2 conv stack."""

    name = "conv_depth"
    depth = 5
    pass_size = 1
    trace_items = 3
    seed_pool = 16
    params = {
        "builtin": "htk2",
        "P": ["c_in=32", "c_out=32", "rank=8", "k=3", "padding=1", "alpha=32"],
        "depth": 5,
        "act": "tanh",
        "mode": "graph-in",
        "batch": 16,
        "trials": 2,
        "workers": 1,
    }

    def __init__(self, seed: int, refs: bool = True):
        self._rng = np.random.default_rng([seed, 0])
        self._warm_rng = np.random.default_rng([seed, 1])
        self.refs = _load_refs(self.name, self.params) if refs else None

    @classmethod
    def argv(cls, item_seed: int) -> list[str]:
        p = cls.params
        argv = ["simulate", "--builtin", p["builtin"]]
        for kv in p["P"]:
            argv += ["-P", kv]
        argv += [
            "--depth", str(p["depth"]), "--act", p["act"], "--mode", p["mode"],
            "--batch", str(p["batch"]), "--trials", str(p["trials"]),
            "--workers", str(p["workers"]), "--seed", str(item_seed),
        ]
        return argv

    def warmup_item(self) -> int:
        return int(self._warm_rng.integers(self.seed_pool))

    def items(self):
        while True:
            yield int(self._rng.integers(self.seed_pool))

    def run(self, item_seed: int) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tcinit.cli.main(self.argv(item_seed))
        if code != 0:
            raise RuntimeError(f"tcinit simulate exited with {code}")
        return out.getvalue()

    def check(self, item_seed: int, result: str) -> bool:
        got = json.loads(result)
        want = self.refs[str(item_seed)]
        if (got["seed"], got["trials"]) != (want["seed"], want["trials"]):
            return False
        if len(got["layers"]) != len(want["layers"]):
            return False
        for g, w in zip(got["layers"], want["layers"]):
            if g.keys() != w.keys():
                return False
            if not all(_close(g[k], w[k]) for k in w if k != "layer"):
                return False
        return True

    @staticmethod
    def digest(result: str) -> str:
        return hashlib.sha256(result.encode()).hexdigest()


# -- mc_small ---------------------------------------------------------------

# The criterion-7 grid: builtin, parameters, trial count (acceptance suite).
MC_CASES = (
    ("standard", {"c_in": 24, "c_out": 24, "k": 3, "alpha": 8}, 60),
    ("lowrank", {"c_in": 24, "c_out": 24, "rank": 8, "k": 3, "alpha": 8}, 60),
    ("tucker2", {"c_in": 24, "c_out": 24, "r0": 8, "r1": 8, "k": 3, "alpha": 8}, 60),
    ("htk2", {"c_in": 24, "c_out": 24, "r0": 8, "r1": 8, "k": 3, "alpha": 8}, 60),
    ("cp", {"c_in": 24, "c_out": 24, "rank": 8, "k": 3, "alpha": 8}, 60),
    ("tt", {"i_dims": [4, 6], "o_dims": [4, 6], "rank": 6}, 300),
    ("tr", {"i_dims": [4, 6], "o_dims": [4, 6], "rank": 4}, 500),
    ("oddlike", {"i_dims": [4, 5], "o_dims": [4, 5], "rank": 3}, 500),
)
MC_FIELDS = ("empirical_ratio", "empirical_std", "predicted_ratio")


def mc_key(name: str, mode: str, seed: int) -> str:
    return f"{name}/{mode}/{seed}"


class McSmall:
    """One ``tc.variance_mc`` call per item over builtins x plan modes."""

    name = "mc_small"
    depth = 1
    pass_size = len(MC_CASES) * len(tc.PLAN_MODES)
    trace_items = pass_size
    seed_pool = 8
    batch = 16
    params = {
        "cases": [list(c) for c in MC_CASES],
        "modes": list(tc.PLAN_MODES),
        "activation": "tanh",
        "batch": batch,
    }

    def __init__(self, seed: int, refs: bool = True):
        self._rng = np.random.default_rng([seed, 0])
        self._warm_rng = np.random.default_rng([seed, 1])
        self.cells = []
        for name, params, trials in MC_CASES:
            f = tc.builtin_format(name, **params)
            for mode in tc.PLAN_MODES:
                plan = tc.make_plan(f, mode, self.params["activation"])
                self.cells.append((name, mode, f, plan, trials))
        self.refs = _load_refs(self.name, self.params) if refs else None

    def _item(self, rng, cell: int):
        return cell, int(rng.integers(self.seed_pool))

    def warmup_item(self):
        # Always the first cell: cells differ up to tenfold in cost, so a
        # seed-drawn cell would make setup_s depend on the seed.
        return self._item(self._warm_rng, 0)

    def items(self):
        while True:
            for cell in self._rng.permutation(len(self.cells)):
                yield self._item(self._rng, int(cell))

    def run(self, item) -> dict:
        cell, seed = item
        _, _, f, plan, trials = self.cells[cell]
        return tc.variance_mc(f, plan, seed=seed, trials=trials, batch=self.batch)

    def check(self, item, result: dict) -> bool:
        cell, seed = item
        name, mode = self.cells[cell][:2]
        want = self.refs[mc_key(name, mode, seed)]
        return result["seed"] == seed and all(
            _close(result[k], want[k]) for k in MC_FIELDS
        )

    @staticmethod
    def digest(result: dict) -> str:
        return hashlib.sha256(repr(sorted(result.items())).encode()).hexdigest()


# -- format_sweep -------------------------------------------------------------

# phi = 1 builtins only: phi replicas would repeat the forward einsum.
CONV_BUILTINS = ("standard", "lowrank", "tucker2", "cp")
SWEEP_BATCH = 4
# About 2.5% of random formats exceed this; their weights reach 20 MB and
# would make peak memory depend on the seed and on how many items ran.
MAX_WEIGHT_ENTRIES = 20_000


def _signature(f) -> bytes:
    """Digest of what fixes the einsum (spec, shapes) of forward and backward.

    Edge ids and padding do not reach the contraction shapes, so two formats
    that differ only there would repeat an einsum; they count as equal.
    """
    edges = tuple(
        (e.kind, e.endpoints, e.dim)
        + ((e.window.alpha, e.window.alpha_prime, e.window.stride) if e.window else ())
        for e in f.edges
    )
    key = repr((tuple(v.id for v in f.vertices), edges))
    return hashlib.blake2b(key.encode(), digest_size=16).digest()


def _weight_entries(f) -> int:
    return sum(
        math.prod(e.dim for e in f.edges if vid in e.endpoints)
        for vid in f.weight_ids
    )


class FormatSweep:
    """Every item is a new format: built, analyzed and executed once.

    Items alternate between ``random_format`` linear layers and builtin
    convolutions with seed-drawn geometry.  A format is redrawn when its
    contraction shapes already occurred in this run, so no einsum repeats,
    or when it has more than ``MAX_WEIGHT_ENTRIES`` weight entries.
    """

    name = "format_sweep"
    depth = 1
    pass_size = 1
    trace_items = 1000

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 0])
        self._seen = set()
        self._stream = self._generate()

    def _draw_conv(self, rng):
        name = CONV_BUILTINS[int(rng.integers(len(CONV_BUILTINS)))]
        k = int(rng.integers(1, 6))
        padding = int(rng.integers(k))
        alpha = tuple(int(rng.integers(max(3, k - 2 * padding), 13)) for _ in range(2))
        params = {
            "c_in": int(rng.integers(2, 17)),
            "c_out": int(rng.integers(2, 17)),
            "k": k,
            "alpha": alpha,
            "stride": int(rng.integers(1, 4)),
            "padding": padding,
        }
        if name == "tucker2":
            params["r0"] = int(rng.integers(2, 9))
            params["r1"] = int(rng.integers(2, 9))
        elif name != "standard":
            params["rank"] = int(rng.integers(2, 9))
        return ("builtin", name, params)

    @staticmethod
    def build(spec):
        if spec[0] == "random":
            return tc.random_format(spec[1])
        return tc.builtin_format(spec[1], **spec[2])

    def _generate(self):
        rng = self._rng
        linear = True
        while True:
            if linear:
                spec = ("random", int(rng.integers(2**31)))
            else:
                spec = self._draw_conv(rng)
            f = self.build(spec)
            sig = _signature(f)
            if sig in self._seen or _weight_entries(f) > MAX_WEIGHT_ENTRIES:
                continue
            self._seen.add(sig)
            linear = not linear
            yield spec, int(rng.integers(2**31))

    def warmup_item(self):
        return next(self._stream)

    def items(self):
        return self._stream

    def run(self, item) -> dict:
        spec, data_seed = item
        f = self.build(spec)
        parsed = tc.parse_format(tc.serialize_format(f))
        bg_in = tc.extract_bg(f, tc.FAN_IN)
        bg_out = tc.extract_bg(f, tc.FAN_OUT)
        products = (tc.edge_product(bg_in), tc.edge_product(bg_out))
        plans = {mode: tc.make_plan(f, mode, "tanh") for mode in tc.PLAN_MODES}
        for mode in tc.BASELINE_MODES:
            tc.baseline_variance(f, mode)
        theorem1 = [tc.verify_theorem1(e.window) for e in f.kernel_edges]
        rng = np.random.default_rng(data_seed)
        layer = tc.materialize(f, plans["graph-in"], rng)
        x = rng.standard_normal((SWEEP_BATCH,) + f.input_mode_dims())
        g = rng.standard_normal((SWEEP_BATCH,) + f.output_mode_dims())
        y = tc.forward_apply(layer, tc.DenseTensor.from_array(x)).array
        gx = tc.backward_apply(layer, tc.DenseTensor.from_array(g)).array
        return {
            "roundtrip": parsed == f,
            "products": products,
            "plans": plans,
            "theorem1": theorem1,
            "x": x, "g": g, "y": y, "gx": gx,
        }

    def check(self, item, r: dict) -> bool:
        y_g = float(np.vdot(r["y"], r["g"]))
        x_gx = float(np.vdot(r["x"], r["gx"]))
        scale = float(np.linalg.norm(r["y"]) * np.linalg.norm(r["g"]))
        adjoint = abs(y_g - x_gx) <= REL_TOL * scale
        closure = []
        for mode, product in zip(tc.GRAPH_MODES, r["products"]):
            plan = r["plans"][mode]
            value = plan.p_a * plan.phi * math.prod(plan.variances.values()) * product
            closure.append(abs(value - 1.0) <= REL_TOL)
        return bool(r["roundtrip"] and adjoint and all(closure) and all(r["theorem1"]))

    @staticmethod
    def digest(r: dict) -> str:
        h = hashlib.sha256()
        h.update(repr((r["roundtrip"], r["products"], r["theorem1"])).encode())
        h.update(repr(sorted((m, sorted(p.variances.items())) for m, p in r["plans"].items())).encode())
        for key in ("x", "g", "y", "gx"):
            h.update(np.ascontiguousarray(r[key]).tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (ConvDepth, McSmall, FormatSweep)}
