"""The bcf benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload cubic_deep --seed 1 --seconds 20 --trace 0

Run from the root of a bcf source tree; the library is imported from
``src/`` with no install step.  With ``--trace 0`` it measures set-up time
(fresh interpreters importing ``bcf.cli``) and then one untraced worker
process, and reports the end-to-end metrics.  With ``--trace 1`` it runs
the untraced worker and then a traced worker with the same seed, and
reports the per-layer metrics plus the tracing overhead.  Metric names and
units come from ``BENCHMARK.json``; a mismatch is an error.  The last line of
stdout is the JSON result; the line before it names the machine and the
tail percentile used.  Exits 1 after the result when an output check
failed, and non-zero without a result when the source tree is missing, a
worker fails, or the kernel implementation differs from the one the outputs
were pinned with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import clock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
# Run in a fresh interpreter: its CPU time after start-up and the import of
# bcf.cli, then calibration kernels in the same process, once bcf.cli can
# no longer gain from the modules they load.
SETUP_SCRIPT = """
import sys, time
import bcf.cli
cpu_s = time.process_time()
sys.path.insert(0, {here!r})
import clock
print(cpu_s, *(clock.kernel_seconds() for _ in range(20)))
"""
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
RUN_LIMIT_S = 170  # the whole command, its workers included
STARTED = time.monotonic()


def tail_percentile(count):
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def measure_setup(env):
    """Median CPU time of a fresh interpreter starting and importing bcf.cli,
    each sample scaled by the median calibration kernel run in its own
    process (see clock.py); a fresh process runs its first kernels slowly."""
    command = [sys.executable, "-c", SETUP_SCRIPT.format(here=HERE)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):  # the first run writes the .pyc files
        out = subprocess.run(command, env=env, check=True, timeout=60,
                             capture_output=True, text=True).stdout
        cpu_s, *kernels = map(float, out.split())
        samples.append(cpu_s * clock.REFERENCE_KERNEL_S
                       / statistics.median(kernels))
    return statistics.median(samples[1:])


def run_worker(args, env, trace):
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--log", os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S - (time.monotonic() - STARTED))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def throughput(result):
    """Ops per scaled CPU second spent inside bcf.cli.run."""
    return len(result["latencies_s"]) / sum(result["latencies_s"])


def end_to_end(result, setup_s):
    latencies = sorted(result["latencies_s"])
    tail = tail_percentile(len(latencies))
    metrics = {
        "ops_per_s": throughput(result),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_tail_ms": percentile(latencies, tail or 100) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    return metrics, {"tail_percentile": tail, "samples": len(latencies)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "bcf", "cli.py")):
        sys.exit("no bcf source tree at ./src; run from the repository root")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with open(os.path.join(HERE, "golden.json")) as f:
        pinned_machine = json.load(f)["machine"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    units = {
        trace: {m["name"]: m["unit"] for m in benchmark[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }

    setup_s = None if args.trace else measure_setup(env)
    untraced = run_worker(args, env, trace=0)
    if untraced["kernel_implementation"] != pinned_machine["kernel_implementation"]:
        sys.exit(
            f"refusing to compare: kernels are {untraced['kernel_implementation']}"
            f", outputs were pinned with {pinned_machine['kernel_implementation']}")
    runs = [untraced]
    if args.trace:
        traced = run_worker(args, env, trace=1)
        runs.append(traced)
        metrics = dict(traced["layers"])
        overhead = 1 - throughput(traced) / throughput(untraced)
        metrics["trace.overhead_frac"] = overhead
        info = {}
    else:
        metrics, info = end_to_end(untraced, setup_s)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    info.update({
        "workload": args.workload,
        "failed_frac": failed / attempted,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "kernel_implementation": untraced["kernel_implementation"],
        "checked_ops": sum(r["checked"] for r in runs),
        "unscaled_ops_per_s": len(untraced["latencies_s"]) / untraced["cpu_s"],
        "kernel_ms": untraced["kernel_s"] * 1e3,
    })
    declared = units[args.trace]
    if set(metrics) != set(declared):
        sys.exit(f"metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in metrics.items()
        },
    }))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
