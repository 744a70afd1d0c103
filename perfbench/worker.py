"""One measured phase of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N \
        --seconds S --trace 0|1

Runs untimed warm-up ops, then a closed loop with one client: each op is
one ``bcf.cli.run(argv)`` call with stdout captured, issued when the last
one has returned, through the whole walks that ``--seconds`` buys.  Only
the ``cli.run`` call is on the clock, whose CPU time is scaled by the
calibration kernel of ``clock.py`` run between ops.  The pinned digest of each op is
compared after the clock stops; peak memory is read before the independent
checks run.  With ``--trace 1`` the tracer is installed before the first
op.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import workloads
from clock import Calibration, cpu_seconds

HERE = os.path.dirname(os.path.abspath(__file__))


def catalogue_digest(catalogue):
    argvs = json.dumps([op["argv"] for op in catalogue], separators=(",", ":"))
    return hashlib.sha256(argvs.encode()).hexdigest()


def run_op(run, argv):
    """One op: returns (exit code, stdout, CPU seconds on the clock).

    CPU time leaves out the time the host steals from a shared virtual CPU,
    which on a shared 2-vCPU virtual machine swung wall time by up to 2x
    between runs.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = cpu_seconds()
        code = run(argv)
        elapsed = cpu_seconds() - start
    return code, out.getvalue(), elapsed


def pinned(code, stdout):
    return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()}"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, stdout_bytes, scan_records):
    """Per-layer metrics of a traced run; counts and times are per op."""
    ns_per_ms = 1e6
    metrics = {}
    for name in (
        "fields.inverse", "fields.mul", "expansion.bcf_step", "polys.ext_gcd_q",
        "fields.NumberField", "polys.is_irreducible", "polys.sturm_chain",
        "polys.count_roots", "fields.refine", "kernels.convergent_triples",
    ):
        metrics[f"{name}.calls"] = tracer.stat(name)[0] / ops
    for name in (
        "fields.inverse", "fields.mul", "fields.floor", "expansion.bcf_step",
        "expansion.bcf_expand", "polys.ext_gcd_q", "fields.NumberField",
        "polys.is_irreducible", "polys.isolating_intervals",
        "polys.rational_roots", "recovery.recover_cubic_pure",
        "recovery.recover_cubic_eventual", "recovery.conjecture_scan",
        "fields.approximate", "treeval.convergent_sequence",
        "treeval.convergent", "treeval.gap_diagnostics",
        "kernels.convergent_triples", "kernels.gap_series",
        "validation.validate",
    ):
        metrics[f"{name}.self_ms"] = tracer.stat(name)[1] / ns_per_ms / ops
    steps = tracer.stat("expansion.bcf_step")
    recovers = [tracer.stat(n) for n in (
        "recovery.recover_cubic_pure", "recovery.recover_cubic_eventual")]
    early = _ratio(sum(tracer.early_ns), len(tracer.early_ns)) / ns_per_ms
    late = _ratio(sum(tracer.late_ns), len(tracer.late_ns)) / ns_per_ms
    cli_run = tracer.stat("cli.run")
    kernel_ns = sum(
        tracer.self_ns[i] for i, n in enumerate(tracer.names)
        if n.startswith("kernels."))
    metrics.update({
        "expansion.inverses_per_step": _ratio(tracer.inverses_in_step, steps[0]),
        "fields.refines_per_floor": _ratio(
            tracer.refines_in_floor, tracer.stat("fields.floor")[0]),
        "fields.height_bits_max": tracer.height_bits_max,
        "expansion.step_ms_early": early,
        "expansion.step_ms_late": late,
        "expansion.step_growth": _ratio(late, early),
        "recovery.gap_diagnostics_per_recover": _ratio(
            tracer.gap_in_recover, sum(r[0] for r in recovers)),
        "recovery.periodic_share": _ratio(*scan_records),
        "cli.self_ms_per_op": cli_run[1] / ns_per_ms / ops,
        "cli.stdout_bytes_per_op": stdout_bytes / ops,
        "fields.inverse.step_share": _ratio(tracer.inverse_in_step_ns, steps[2]),
        "kernels.share": _ratio(kernel_ns, cli_run[2]),
        "polys.rational_roots.recover_share": _ratio(
            tracer.rational_roots_in_recover_ns, sum(r[2] for r in recovers)),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", default=None, help="span log path (traced runs)")
    args = parser.parse_args(argv)

    import bcf
    import bcf.cli

    workload = workloads.WORKLOADS[args.workload]
    catalogue = workload.catalogue()
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    entry = golden["workloads"][workload.name]
    if entry["catalogue_sha256"] != catalogue_digest(catalogue):
        sys.exit("catalogue differs from the one pinned in golden.json")
    digests = entry["outputs"]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        missed = tracer.unpatched()
        if missed:
            sys.exit(f"tracer left bindings unwrapped: {missed}")
    run = bcf.cli.run

    failed_ops = set()
    calibration = Calibration()
    warmup = random.Random(f"warmup:{args.seed}").sample(
        range(len(catalogue)), workload.warmup_ops)
    for index in warmup:
        calibration.tick()
        code, stdout, _ = run_op(run, catalogue[index]["argv"])
        if pinned(code, stdout) != digests[index]:
            failed_ops.add(("warmup", index))
    if tracer is not None:
        tracer.reset()

    timed, held, stdout_bytes, records = [], [], 0, [0, 0]
    checked = set()  # a repeat of a checked op is covered by its digest
    rng = random.Random(args.seed)
    for _ in range(workload.walks(args.seconds)):
        for index in rng.sample(range(len(catalogue)), len(catalogue)):
            op = catalogue[index]
            position = len(timed)
            if tracer is not None:
                tracer.op = position
            calibration.tick()
            start = time.perf_counter()
            code, stdout, elapsed = run_op(run, op["argv"])
            timed.append((elapsed, start, time.perf_counter()))
            stdout_bytes += len(stdout)
            if pinned(code, stdout) != digests[index]:
                failed_ops.add(position)
            if op["kind"] == "scan":
                lines = stdout.splitlines()
                records[0] += sum('"status":"periodic"' in line for line in lines)
                records[1] += len(lines)
            if index not in checked and workloads.needs_check(op, position):
                checked.add(index)
                held.append((position, op, code, stdout))
    calibration.tick()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [calibration.scale(*t) for t in timed]

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, len(latencies), stdout_bytes, records)
        if args.log:
            tracer.write_log(args.log)
    problems = []
    for position, op, code, stdout in held:
        try:
            problem = workloads.check(op, code, stdout)
        except Exception as exc:  # output the check cannot even parse
            problem = f"check raised {exc!r}"
        if problem is not None:
            failed_ops.add(position)
            problems.append(f"{' '.join(op['argv'])[:120]}: {problem}")

    result = {
        "kernel_implementation": getattr(bcf, "KERNEL_IMPLEMENTATION", "pure-python"),
        "latencies_s": latencies,
        "cpu_s": sum(t[0] for t in timed),
        "kernel_s": sum(calibration.samples) / len(calibration.samples),
        "failed": len(failed_ops),
        "attempted": len(latencies) + workload.warmup_ops,
        "checked": len(held),
        "problems": problems[:10],
        "peak_rss_kib": peak_rss_kib,
    }
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
