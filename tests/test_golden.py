"""Replay of the benchmark's pinned outputs: every catalogue op, byte for byte.

The benchmark (``perfbench/``) pins the exit code and stdout digest of each
op of its three catalogues in ``perfbench/golden.json``.  These tests build
each catalogue, check it is the one pinned, run every op once through
``bcf.cli.run`` and compare ``code:sha256(stdout)`` with the pin.  They
read ``perfbench/`` and never write to it.
"""

import json
import sys
from pathlib import Path

import pytest

from bcf.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from worker import catalogue_digest, pinned, run_op  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_catalogue_replays_pinned_outputs(name):
    catalogue = workloads.WORKLOADS[name].catalogue()
    entry = GOLDEN["workloads"][name]
    assert catalogue_digest(catalogue) == entry["catalogue_sha256"]
    assert len(entry["outputs"]) == len(catalogue)
    drifted = []
    for op, expected in zip(catalogue, entry["outputs"]):
        code, stdout, _ = run_op(run, op["argv"])
        if pinned(code, stdout) != expected:
            drifted.append(" ".join(op["argv"])[:120])
    assert not drifted, f"{len(drifted)} ops drifted, first: {drifted[:3]}"
