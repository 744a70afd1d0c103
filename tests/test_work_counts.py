"""Pinned work totals: one walk of each benchmark catalogue, counted.

Fixed work is exact, while its CPU time on a shared machine swings widely,
so these totals show every change in the work a catalogue does.  Each
catalogue test walks one catalogue of ``perfbench/`` once, in catalogue
order, through ``bcf.cli.run`` and counts calls through spies that
``monkeypatch`` restores; the deep set runs longer expansions through the
library with the same spies.  A change that moves a total re-pins it here
and states the old and the new value.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bcf import cli, expansion, fields, polys, recovery
from bcf.cli import run

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

TOTALS = {
    "cubic_deep": {
        "bcf_expand_digits": 16_576, "_convolve": 24, "_primitive": 391,
        "_refine_more": 156, "refine_bits": 19_848, "rational_digits": 0,
        "_rounded_decimal": 16_576, "stdout_chars": 7_297_676,
        "_sign_variations": 468, "period_checks": 6,
    },
    "scan_box": {
        "bcf_expand_digits": 12_386, "_convolve": 800, "_primitive": 145,
        "_refine_more": 159, "refine_bits": 20_201, "rational_digits": 0,
        "_rounded_decimal": 0, "stdout_chars": 132_863,
        "_sign_variations": 1_069, "period_checks": 200,
    },
    "digits_recover": {
        "bcf_expand_digits": 6_743, "_convolve": 0, "_primitive": 0,
        "_refine_more": 147, "refine_bits": 6_632, "rational_digits": 60,
        "_rounded_decimal": 6_803, "stdout_chars": 2_408_515,
        "_sign_variations": 216, "period_checks": 0,
    },
}


def _spy(patch, counts, owner, name, total, weight=lambda *a, **k: 1):
    """Rebind owner.name, through patch(owner, name, wrapper), to a wrapper
    that adds weight(result, *args) to counts[total] on each call that
    returns."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        counts[total] += weight(result, *args, **kwargs)
        return result

    patch(owner, name, spy)


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_catalogue_walk_does_the_pinned_work(monkeypatch, name):
    counts = Counter()
    patch = monkeypatch.setattr
    for binding in ("_convolve", "_primitive", "rational_digits"):
        _spy(patch, counts, expansion, binding, binding)
    _spy(patch, counts, expansion, "convergent_matrix", "period_checks")
    # Digit pairs that bcf_expand returns to expand and scan: the field
    # loop's, and on a rational pair (digits_recover) the integer kernel's.
    for owner in (cli, recovery):
        _spy(patch, counts, owner, "bcf_expand", "bcf_expand_digits",
             lambda pair, *a, **k: len(pair.b))
    for owner in (expansion, fields):
        _spy(patch, counts, owner, "_refine_more", "_refine_more")
    _spy(patch, counts, fields.NumberField, "refine", "refine_bits",
         lambda _, field, bits=1: bits)
    _spy(patch, counts, cli, "_rounded_decimal", "_rounded_decimal")
    # Sturm sign-variation counts: the bisection that tests each cubic for
    # a rational root and isolates its roots, and every root count of a
    # field's set-up or comparison.
    _spy(patch, counts, polys, "_sign_variations", "_sign_variations")
    for op in workloads.WORKLOADS[name].catalogue():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            run(op["argv"])
        counts["stdout_chars"] += len(out.getvalue())
    assert {total: counts[total] for total in TOTALS[name]} == TOTALS[name]


# The deep set: long runs through the library, where the catalogues stop at
# 256 steps.  (theta, theta^2 + theta) in the field of x^3 - 2x^2 - 2x - 2
# does not recur, and no two of its first 2000 states share a cell of
# expansion._CELL_BITS, so it makes no exact period check; the scan meets a
# periodic pair, an eventually periodic one and a termination, one check
# each for the first three; the box certifies the same digits on the
# integer engine from a rational box around the pair.
_DEEP_POLY, _DEEP_INTERVAL = (1, -2, -2, -2), (-3, 3)
_DEEP_TERMS = 2_000

DEEP_TOTALS = {
    "expand": {"pairs": 2_000, "period_checks": 0, "_convolve": 0,
               "_primitive": 62, "refine_bits": 255},
    "scan": {"records": [["periodic", 1, 2], ["periodic", 1, 1],
                         ["periodic", 1, 2], ["terminated", None, None]],
             "period_checks": 3, "_convolve": 12, "_primitive": 1,
             "refine_bits": 127},
    "box": {"pairs": 2_000, "matches_expand": True, "period_checks": 0,
            "_convolve": 0, "_primitive": 0, "refine_bits": 6_000},
}


def deep_work(patch):
    """The deep set's totals, with spies bound through patch(owner, name,
    value): monkeypatch.setattr in a test, setattr in a fresh interpreter."""
    counts = Counter()
    for binding in ("_convolve", "_primitive"):
        _spy(patch, counts, expansion, binding, binding)
    # Exact period checks: each rebuilds an earlier state in the current
    # state's cells through one convergent_matrix.
    _spy(patch, counts, expansion, "convergent_matrix", "period_checks")
    _spy(patch, counts, fields.NumberField, "refine", "refine_bits",
         lambda _, field, bits=1: bits)
    _spy(patch, counts, expansion, "rational_digits", "rational_digits",
         lambda result, *a, **k: len(result[1]))

    def work(**found):
        """found, and the totals counted since the last call."""
        for name in ("period_checks", "_convolve", "_primitive", "refine_bits"):
            found[name] = counts.pop(name, 0)
        return found

    t = fields.NumberField(_DEEP_POLY, _DEEP_INTERVAL).generator()
    pair = expansion.bcf_expand(t, t * t + t, max_terms=_DEEP_TERMS)
    expand = work(pairs=len(pair.b))
    records = recovery.conjecture_scan(
        [(1, 0, -3, -3)], list(cli._DEFAULT_SCAN_BETAS), horizon=32)
    scan = work(records=[[r.status, r.preperiod, r.period] for r in records])
    field = fields.NumberField(_DEEP_POLY, _DEEP_INTERVAL)
    field.refine(6_000)
    t = field.generator()
    box = expansion.bcf_expand(t.value_interval(),
                               (t * t + t).value_interval(), _DEEP_TERMS)
    box = work(pairs=counts["rational_digits"],
               matches_expand=(box.a, box.b) == (pair.a, pair.b))
    return {"expand": expand, "scan": scan, "box": box}


def test_deep_set_does_the_pinned_work(monkeypatch):
    assert deep_work(monkeypatch.setattr) == DEEP_TOTALS


_DEEP_RUN = (
    "import json, sys\n"
    "sys.path.insert(0, 'tests')\n"
    "import test_work_counts\n"
    "print(json.dumps(test_work_counts.deep_work(setattr)))\n"
)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_deep_set_is_independent_of_the_hash_seed(seed):
    # A fresh interpreter per seed: str hashes, and so the order of every
    # set and dict keyed on them, change with PYTHONHASHSEED.
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_RUN], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == DEEP_TOTALS
