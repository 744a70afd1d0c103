"""Pin the exit code and stdout digest of every catalogue op.

    PYTHONPATH=src python3 perfbench/pin.py

Runs each op of each workload's catalogue once through ``bcf.cli.run``,
applies the independent output check to every op, and writes
``golden.json`` beside this file together with the machine it ran on.
Refuses to write anything if a check fails.  Run it only on the commit
whose outputs the benchmark is meant to hold fixed.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import bcf
import bcf.cli

import workloads
from worker import HERE, catalogue_digest, pinned, run_op


def main():
    golden = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "kernel_implementation": getattr(
                bcf, "KERNEL_IMPLEMENTATION", "pure-python"),
        },
        "workloads": {},
    }
    failures = []
    for name, workload in workloads.WORKLOADS.items():
        catalogue = workload.catalogue()
        outputs = []
        for op in catalogue:
            code, stdout, _ = run_op(bcf.cli.run, op["argv"])
            outputs.append(pinned(code, stdout))
            problem = workloads.check(op, code, stdout)
            if problem is not None:
                failures.append(f"{name}: {' '.join(op['argv'])[:120]}: {problem}")
        golden["workloads"][name] = {
            "catalogue_sha256": catalogue_digest(catalogue),
            "outputs": outputs,
        }
        print(f"{name}: {len(catalogue)} ops pinned", file=sys.stderr)
    if failures:
        sys.exit("independent checks failed:\n" + "\n".join(failures))
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
