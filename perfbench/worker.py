"""Set up one workload in this fresh process, run one batch, print one JSON line.

Started by run.py in these forms:

    python3 perfbench/worker.py --workload tree --seed 1 --batch 0
    python3 perfbench/worker.py --workload tree --seed 1 --batch 0 --trace

``setup_done`` is the CLOCK_MONOTONIC time at which the inputs were built,
so the parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import tempfile
import time
import traceback

import workloads
from tracing import Tracer

MAX_MESSAGES = 20


def measure(args, recorded: dict, outdir: str) -> dict:
    begin = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, recorded, outdir)
    setup_done = time.perf_counter()
    result = {"workload": args.workload, "setup_done": setup_done}
    try:
        batch = workload.batch(args.batch)
        attempted, failures = workload.check(batch.result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        batch, attempted, failures = None, 1, [f"batch {args.batch} raised"]
    result.update(
        unit=None if batch is None else [batch.ops, batch.seconds],
        counters={} if batch is None else batch.counters,
        attempted=attempted,
        failed=len(failures),
        messages=failures[:MAX_MESSAGES],
        wall_s=time.perf_counter() - begin,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    recorded = workloads.load_recorded()
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as outdir:
            result = measure(args, recorded, outdir)
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
