"""tcinit benchmark: one workload, timed (``--trace 0``) or traced (``--trace 1``).

Run from the repository root:

    python3 perfbench/run.py --workload conv_depth --seed 1 --seconds 15 --trace 0

Every process it starts runs ``worker.py`` against the package under
``src/`` with the BLAS thread count pinned.  ``--trace 0`` starts one timed
process and then set-up-only processes (see ``SETUP_RUNS``) and prints the
end-to-end metrics; ``--trace 1`` runs the workload's fixed item list once
untraced and once traced, each in a fresh process, and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is the JSON result.  Exits 2 without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("conv_depth", "mc_small", "format_sweep")
# One BLAS thread and one simulate worker: their product never exceeds nproc,
# and conv_depth runs 25% slower with 1 thread than with 2, so it is pinned.
BLAS_THREADS = 1
SIMULATE_WORKERS = 1
# setup_s is the median of at least SETUP_RUNS set-ups; cheap set-ups are
# repeated up to SETUP_RUNS_MAX times while they total under SETUP_BUDGET_S.
SETUP_RUNS = 3
SETUP_RUNS_MAX = 9
SETUP_BUDGET_S = 3.0
DEADLINE_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = perf_counter()
    # Unbuffered, so readline() takes only the READY line and communicate()
    # gets everything after it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else b""
        setup_s = perf_counter() - t0
        if line.strip() != b"READY":
            raise ChildFailed(f"worker {args} did not finish set-up")
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise ChildFailed(f"worker {args} exited with {proc.returncode}")
        lines = out.decode().strip().splitlines()
        return setup_s, json.loads(lines[-1]) if lines else None
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args} ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def tail_line(times: list[float]) -> str:
    """Highest whole percentile with at least 10 samples beyond it."""
    n = len(times)
    if n < 11:
        return f"tail: no percentile has 10 samples beyond it (n={n})"
    p = math.floor(100 * (n - 10) / n)
    value = sorted(times)[math.ceil(p / 100 * n) - 1]
    return f"item_p{p}_ms = {value * 1e3:.4f} ms (n={n})"


def timed(args, deadline) -> tuple[dict, int, int]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, res = spawn(common + ["--seconds", str(args.seconds)], deadline)
    setups = [setup]
    while len(setups) < SETUP_RUNS or (
        len(setups) < SETUP_RUNS_MAX and sum(setups) < SETUP_BUDGET_S
    ):
        setups.append(spawn(common + ["--setup-only"], deadline)[0])
    times = res["times"]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": res["rss_kb"] / 1024,
    }
    failed = res["ok"].count(False) + (not res["warm_ok"])
    print(f"items: {len(times)} timed, {len(setups)} set-ups")
    print(tail_line(times))
    _print_env(res)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, len(times) + 1, failed


def traced(args, deadline) -> tuple[dict, int, int]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    _, plain = spawn(common + ["--mode", "fixed"], deadline)
    _, trace = spawn(common + ["--mode", "traced"], deadline)
    n = len(trace["times"])
    mismatched = sum(a != b for a, b in zip(plain["digests"], trace["digests"]))
    failed = (
        plain["ok"].count(False) + trace["ok"].count(False) + mismatched
        + (not plain["warm_ok"]) + (not trace["warm_ok"])
    )
    per_layer = dict(trace["per_layer"])
    per_layer["trace.overhead_s"] = {
        "value": (sum(trace["times"]) - sum(plain["times"])) / n,
        "unit": "s",
    }
    print(f"items: {n} traced, {n} untraced, {mismatched} results differ")
    _print_env(trace)
    return per_layer, 2 * n + 2, failed


def _print_env(res: dict) -> None:
    print(
        f"env: blas_threads={BLAS_THREADS} simulate_workers={SIMULATE_WORKERS} "
        f"nproc={len(os.sched_getaffinity(0))} numpy={res['numpy']} "
        f"python={platform.python_version()}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tcinit" / "__init__.py").is_file():
        print(f"error: no tcinit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through spawn(), which stops the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = perf_counter() + DEADLINE_S
    try:
        metrics, attempted, failed = (traced if args.trace else timed)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} items failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
