"""pwproj benchmark: one workload per call, or all four, in fresh processes.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all workloads, summary table

--trace 0 measures end-to-end metrics with tracing off: one fresh worker
process per batch runs a fixed set of batches, 0 .. n-1, where n is the
workload's entry in BATCHES scaled by --seconds / RUN_SECONDS, so a run
measures the same inputs however fast the program is; throughput is scaled
by the host factor measured around each batch.  --trace 1 runs
batch 0 untraced and traced, alternating, OVERHEAD_PAIRS times each in
fresh processes; it prints times from the fastest untraced run, calls and
self times from the fastest traced run, and the tracing overhead (fastest
traced minus fastest untraced wall time of the same work).  The last line
of standard output is one JSON object; the metric names and units are
those of BENCHMARK.json.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PACKAGE = os.path.join(ROOT, "src", "pwproj", "__init__.py")

# workload -> the workload-specific name of the throughput metric ops_per_s
OPS_NAMES = {
    "tree": "vertices_per_s",
    "products": "products_per_s",
    "witness": "trajectories_per_s",
    "returns-z": "trajectories_per_s",
}
WORKLOADS = tuple(OPS_NAMES)
# batches one run measures at --seconds RUN_SECONDS (the run_seconds of
# BENCHMARK.json), sized to take about that long on a 2-vCPU x86-64 VM
RUN_SECONDS = 30
BATCHES = {"tree": 3, "products": 9, "witness": 8, "returns-z": 10}
# --seed values whose witness report digests recorded.json holds, for every
# batch of a run at RUN_SECONDS
RECORDED_SEEDS = range(0, 11)
# median time of reference_loop() on that VM; it only sets the scale of the
# reported times, so it must never change
REFERENCE_S = 0.05
REFERENCE_REPEATS = 5
OVERHEAD_PAIRS = 2  # untraced and traced runs of batch 0, alternating
TIME_LIMIT = 170.0  # seconds one workload may take, all its processes together
EXACT_GROUPS = tuple(
    g for g in tracing.GROUPS if g.split(".")[0] in ("exactnum", "psl2", "piecewise")
)
SCHREIER_PHASES = ("bfs_s", "regions_s", "verify_s", "export_s")


class BenchError(RuntimeError):
    pass


def reference_loop() -> int:
    """Fixed pure-Python work, integer arithmetic and dict updates like the
    program's inner loops.  It never touches the program."""
    table = {}
    total = 0
    for i in range(150_000):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
        total += i * i % 97
    return total


def host_samples() -> list:
    """How much slower than nominal the shared host runs at this moment,
    as REFERENCE_REPEATS ratios of reference_loop() time to REFERENCE_S."""
    out = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_loop()
        out.append((time.perf_counter() - start) / REFERENCE_S)
    return out


def spawn(args, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    started = time.perf_counter()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("time limit reached before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - started
    return result


def batch_count(workload: str, seconds: float) -> int:
    return max(1, round(BATCHES[workload] * seconds / RUN_SECONDS))


def end_to_end_values(batches: list) -> dict:
    """Medians over the batch processes; throughput scaled to a nominal host."""
    done = [b for b in batches if b["unit"] is not None]
    if not done:
        raise BenchError("no batch completed")
    return {
        "ops_per_s": statistics.median(
            b["unit"][0] / b["unit"][1] * b["host_factor"] for b in done
        ),
        "setup_s": statistics.median(b["setup_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_kb"] for b in batches) / 1024.0,
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    # the host's speed drifts by tens of percent over seconds and minutes, so
    # each batch is scaled by the host factor sampled just before and after it
    batches = []
    before = host_samples()
    for index in range(batch_count(workload, seconds)):
        batch = spawn(base + ["--batch", str(index)], deadline)
        after = host_samples()
        batch["host_factor"] = statistics.median(before + after)
        batches.append(batch)
        before = after
    values = end_to_end_values(batches)
    n = len(batches)
    host = statistics.median(b["host_factor"] for b in batches)
    lines = [
        f"{workload}: {OPS_NAMES[workload]} (ops_per_s) {values['ops_per_s']:.6g} 1/s"
        f"  median of {n} batches, at nominal host speed (host factor median {host:.3f})",
        f"{workload}: setup_s {values['setup_s']:.6g} s  median of {n} processes",
        f"{workload}: peak_rss_mb {values['peak_rss_mb']:.6g} MB  median of {n} processes",
    ]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    messages = [m for b in batches for m in b["messages"]]
    return values, attempted, failed, messages, lines


def per_layer_values(traced: dict, plain: dict) -> dict:
    """Calls and self times from the traced run; times of whole phases from
    the untraced run of the same batch, so that no wrapper cost is in them."""
    stats = traced["trace"]
    counters = plain["counters"]
    seconds = plain["unit"][1] if plain["unit"] else 0.0  # 0 if the batch raised
    values = {}
    for group in EXACT_GROUPS:
        values[f"{group}.calls"] = stats[group]["calls"]
        values[f"{group}.self_s"] = stats[group]["self_s"]
    for phase in SCHREIER_PHASES:
        values[f"schreier.{phase}"] = counters.get(phase, 0.0)
    vertices = counters.get("vertices", 0)
    values["schreier.us_per_vertex"] = 1e6 * seconds / vertices if vertices else 0.0
    steps = counters.get("steps", 0)
    values["walk.us_per_step"] = 1e6 * seconds / steps if steps else 0.0
    values["walk.kernel.self_s"] = stats["walk.kernel"]["self_s"]
    values["walk.frozen_runs"] = counters.get("frozen_runs", 0)
    values["walk.sampler.draws"] = stats["walk.sampler"]["calls"]
    values["walk.sampler.self_s"] = stats["walk.sampler"]["self_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return values


def per_layer(workload: str, seed: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed), "--batch", "0"]
    runs = []
    for _ in range(OVERHEAD_PAIRS):
        runs.append(spawn(base, deadline))
        runs.append(spawn(base + ["--trace"], deadline))
    # host slowdowns only ever add time, so each side keeps its fastest run
    plain = min((r for r in runs if "trace" not in r), key=lambda r: r["wall_s"])
    traced = min((r for r in runs if "trace" in r), key=lambda r: r["wall_s"])
    stats = traced["trace"]
    values = per_layer_values(traced, plain)
    lines = [
        f"{workload}: traced {traced['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s"
        f" (fastest of {OVERHEAD_PAIRS} each), overhead {values['trace.overhead_s']:.4f} s"
        f" ({100.0 * values['trace.overhead_s'] / plain['wall_s']:.1f}%)"
    ]
    for group, stat in stats.items():
        lines.append(
            f"{workload}: {group:26s} calls {stat['calls']:>10d}"
            f"  self {stat['self_s']:10.4f} s  incl {stat['incl_s']:10.4f} s"
        )
    untraced = [f"schreier.{phase}" for phase in SCHREIER_PHASES]
    untraced += ["schreier.us_per_vertex", "walk.us_per_step", "walk.frozen_runs"]
    for name in untraced:
        lines.append(f"{workload}: {name} {values[name]:.6g}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return values, attempted, failed, [m for r in runs for m in r["messages"]], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through subprocess.run, which kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for path in (PACKAGE, SPEC):
        if not os.path.isfile(path):
            print(f"perfbench: {path} is missing; run from a full checkout", file=sys.stderr)
            return 2
    with open(SPEC) as handle:
        spec = json.load(handle)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in chosen:
            deadline = time.perf_counter() + TIME_LIMIT
            if args.trace:
                out = per_layer(workload, args.seed, deadline)
            else:
                out = end_to_end(workload, args.seed, args.seconds, deadline)
            values, tried, bad, messages, lines = out
            for line in lines:
                print(line)
            print(f"{workload}: failed_frac {bad / tried:.6g}  ({bad} of {tried} checks)")
            for message in messages:
                print(f"{workload}: FAILED {message}")
            selected = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
            if args.workload == "all":
                # the summary names throughput per workload and adds failed_frac
                if "ops_per_s" in selected:
                    selected[OPS_NAMES[workload]] = selected.pop("ops_per_s")
                selected["failed_frac"] = {"value": bad / tried, "unit": "1"}
                selected = {f"{workload}.{name}": m for name, m in selected.items()}
            metrics.update(selected)
            attempted += tried
            failed += bad
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
