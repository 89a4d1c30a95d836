"""One benchmark process: set up a workload, then time or trace its items.

Started by ``run.py``, never by hand.  Prints ``READY`` on its own line
when set-up (imports, inputs, references, one warm-up item) is done, then,
unless ``--setup-only``, one JSON line with the item times and results.

Modes:
  timed     run whole passes until ``--seconds`` have elapsed;
  fixed     run the workload's fixed ``trace_items`` list untraced;
  traced    run the same fixed list with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    import tcinit

    src = (ROOT / "src").resolve()
    if src not in Path(tcinit.__file__).resolve().parents:
        raise SystemExit(f"tcinit was imported from {tcinit.__file__}, not {src}")


def run_item(w, item, call=None):
    """Time one item; returns (seconds, ok, digest).  Failures never raise."""
    t0 = perf_counter()
    try:
        result = call(w.run, item) if call else w.run(item)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - t0, False, None
    dt = perf_counter() - t0
    try:
        ok = w.check(item, result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return dt, ok, w.digest(result)


def timed_loop(w, seconds: float):
    """The whole number of passes whose wall time comes nearest ``seconds``.

    At least one pass runs.  Another starts only while the time so far plus
    half a mean pass is short of ``seconds``, so a run overshoots by at most
    half a pass instead of a whole one.  Digests are dropped: only fixed and
    traced runs compare them, and keeping thousands of them would add the
    harness's own memory to ``peak_rss_mb``.
    """
    rows = []
    stream = w.items()
    start = perf_counter()
    passes = 0
    while True:
        for _ in range(w.pass_size):
            dt, ok, _ = run_item(w, next(stream))
            rows.append((dt, ok, None))
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            return rows


def fixed_items(w):
    stream = w.items()
    return [next(stream) for _ in range(w.trace_items)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--mode", choices=("timed", "fixed", "traced"), default="timed")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import numpy

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    warm = run_item(w, w.warmup_item())
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer_metrics = None
    if args.mode == "timed":
        rows = timed_loop(w, args.seconds)
    else:
        items = fixed_items(w)
        if args.mode == "fixed":
            rows = [run_item(w, item) for item in items]
        else:
            from tracer import PER_LAYER, Tracer

            with Tracer() as tracer:
                rows = [run_item(w, item, tracer.item) for item in items]
            tracer_metrics = {
                k: {"value": v, "unit": PER_LAYER[k][0]}
                for k, v in tracer.metrics(w.depth, len(items)).items()
            }

    out = {
        "times": [r[0] for r in rows],
        "ok": [r[1] for r in rows],
        "digests": [r[2] for r in rows],
        "warm_ok": warm[1],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "per_layer": tracer_metrics,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
