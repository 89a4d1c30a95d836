"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

NAMES = list(wl.WORKLOADS)


def first_item(w):
    return next(iter(w.items()))


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_checks_at_tiny_length(name):
    w = wl.WORKLOADS[name](0)
    rows = [worker.run_item(w, w.warmup_item()), worker.run_item(w, first_item(w))]
    assert [ok for _, ok, _ in rows] == [True, True]


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_results_are_identical(name):
    item = first_item(wl.WORKLOADS[name](0))
    w = wl.WORKLOADS[name](0)
    plain = worker.run_item(w, item)
    original = np.einsum
    with tr.Tracer() as t:
        traced = worker.run_item(w, item, t.item)
        assert np.einsum is not original
    assert np.einsum is original
    assert traced[1:] == plain[1:]
    m = t.metrics(w.depth, 1)
    assert set(m) == set(tr.PER_LAYER) - {"trace.overhead_s"}
    assert m["einsum.calls"] > 0
    if name == "conv_depth":
        assert m["network.forward_apply.calls"] == 2 * m["network.backward_apply.calls"]
        assert all(m[f"depth.{d}.{s}_s"] > 0 for d in range(5) for s in ("forward", "backward"))
    if name == "format_sweep":
        assert m["einsum.distinct_ratio"] == 1


def _corrupt(name, result):
    if name == "conv_depth":
        report = json.loads(result)
        report["layers"][2]["grad_var"] *= 1 + 1e-6
        return json.dumps(report)
    if name == "mc_small":
        return dict(result, empirical_ratio=result["empirical_ratio"] * (1 + 1e-6))
    return dict(result, gx=result["gx"] * (1 + 1e-6))


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_result_is_counted_as_failed(name):
    w = wl.WORKLOADS[name](0)
    run_once = w.run
    w.pass_size = 1
    w.run = lambda item: _corrupt(name, run_once(item))
    rows = worker.timed_loop(w, 0.0)
    assert rows and not any(ok for _, ok, _ in rows)


def test_format_sweep_rejects_a_broken_round_trip():
    w = wl.FormatSweep(0)
    item = first_item(w)
    result = w.run(item)
    assert w.check(item, result)
    assert not w.check(item, dict(result, roundtrip=False))
    assert not w.check(item, dict(result, theorem1=[False]))


def test_einsum_cost_matches_numpy_report():
    spec = "abc,cd,dbe,ef->af"
    shapes = ((6, 5, 7), (7, 4), (4, 5, 3), (3, 9))
    ops = [np.ones(s) for s in shapes]
    _, report = np.einsum_path(spec, *ops, optimize=("greedy", 1e8))
    flops, largest = tr.einsum_cost(spec, shapes, ("greedy", 1e8))
    reported = float(re.search(r"Optimized FLOP count:\s*(\S+)", report).group(1))
    assert abs(flops + 1 - reported) <= 1e-3 * reported
    assert largest == int(float(re.search(r"Largest intermediate:\s*(\S+)", report).group(1)))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # format_sweep runs by hand only; see README.md.
    assert [w["name"] for w in spec["workloads"]] == ["conv_depth", "mc_small"]
    assert list(run.WORKLOADS) == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER
    assert run.SIMULATE_WORKERS == wl.ConvDepth.params["workers"]


def test_end_to_end_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "format_sweep",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
