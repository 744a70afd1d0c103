"""Smoke test of the traced run.

    python3 perfbench/smoke.py

Run from the repository root.  Fails (exit 1) when:
- an operator alias or a from-import copy named below is left unwrapped
  by the tracer;
- a per-layer metric reads zero on a workload where spec.json predicts
  work for it (trace.overhead_frac is only reported);
- a sanity share from spec.json falls outside its range.
Prints each sanity share as measured.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE_SECONDS = 4  # buys one walk of each workload

# Bindings a naive patcher misses: aliases made at class creation and
# names copied into other modules by from-imports.
MUST_WRAP = (
    ("bcf.fields", "AlgebraicNumber.__mul__"),
    ("bcf.fields", "AlgebraicNumber.__rmul__"),
    ("bcf.fields", "AlgebraicNumber.__add__"),
    ("bcf.fields", "AlgebraicNumber.__radd__"),
    ("bcf.cli", "bcf_expand"),
    ("bcf.recovery", "bcf_expand"),
    ("bcf.expansion", "floor_of"),
    ("bcf.validation", "floor_of"),
    ("bcf.expansion", "rational_digits"),
    ("bcf", "bcf_expand"),
)


def check_bindings():
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import importlib

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    errors = [f"unwrapped: {name}" for name in tracer.unpatched()]
    for module_name, path in MUST_WRAP:
        value = importlib.import_module(module_name)
        for part in path.split("."):
            value = getattr(value, part)
        if not hasattr(value, "__traced__"):
            errors.append(f"unwrapped: {module_name}.{path}")
    tracer.uninstall()
    return errors


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SMOKE_SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: output checks failed\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)

    errors = check_bindings()
    runs = {w: traced_run(w) for w in spec["workloads"]}
    for row in spec["per_layer"]:
        for workload in row["on"]:
            for metric in row["metrics"]:
                if metric.startswith("trace."):
                    # A difference of two timed runs: reported, never
                    # required to be positive on a noisy machine.
                    continue
                if not runs[workload][metric] > 0:
                    errors.append(f"{metric} reads 0 on {workload}")
    for metric, rule in spec["sanity"].items():
        lo, hi = rule["range"]
        workloads = rule["workload"]
        for workload in [workloads] if isinstance(workloads, str) else workloads:
            value = runs[workload][metric]
            verdict = "ok" if lo <= value <= hi else "OUT OF RANGE"
            print(f"{metric:36s} {workload:15s} {value:.4f}  "
                  f"expected {rule['expected']}: {verdict}")
            if verdict != "ok":
                errors.append(f"{metric} = {value:.4f} on {workload}")
    for error in errors:
        print(f"FAIL {error}")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
