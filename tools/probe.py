"""In-process probe of a benchmark workload: time, minor page faults and peak
RSS per item, with BLAS at one thread as the benchmark runs it.

``conv_depth`` runs the ``tcinit simulate`` flags of that workload through
``tcinit.cli.main``: one warm item (seed 0), then seeds 1-8, one line each.
``mc_small`` runs one warm cell, then one pass over the workload's 64
``variance_mc`` cells (seed 1).  Both end with a summary line: the median
item in ms, ``ru_minflt`` per item and the process's ``ru_maxrss``.  The
workloads are those of ``perfbench/workloads.py``, read from there.

    PYTHONPATH=src python tools/probe.py [--workload conv_depth|mc_small]

Compare figures only within one probe run per side, alternating which side
runs first: two processes of one tree can read different fault counts.
"""

from __future__ import annotations

import os

# Before numpy loads its BLAS: the benchmark pins it to one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import ConvDepth, McSmall  # noqa: E402


def _measure(run, item):
    """``run(item)``'s wall ms and minor page faults."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    run(item)
    ms = 1e3 * (time.perf_counter() - t0)
    return ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("conv_depth", "mc_small"), default="conv_depth")
    args = parser.parse_args(argv)
    if args.workload == "conv_depth":
        workload = ConvDepth(0, refs=False)
        warm, items = 0, list(range(1, 9))
    else:
        workload = McSmall(0, refs=False)
        warm, items = (0, 1), [(cell, 1) for cell in range(len(workload.cells))]
    _measure(workload.run, warm)
    rows = []
    for item in items:
        ms, faults = _measure(workload.run, item)
        rows.append((ms, faults))
        if args.workload == "conv_depth":
            print(f"seed {item}: {ms:.1f} ms, {faults} minor faults")
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload}: {len(rows)} items, median {statistics.median(r[0] for r in rows):.1f} ms, "
          f"{sum(r[1] for r in rows) / len(rows):.0f} minor faults per item, "
          f"ru_maxrss {maxrss_mb:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
