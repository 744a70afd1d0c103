"""Pinned work totals: one walk of each benchmark catalogue, counted.

Fixed work is exact, while its CPU time on a shared machine swings widely,
so these totals show every change in the work a catalogue does.  Each test
walks one catalogue of ``perfbench/`` once, in catalogue order, through
``bcf.cli.run`` and counts calls through spies that ``monkeypatch``
restores.  A change that moves a total re-pins it here and states the old
and the new value.
"""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from bcf import cli, expansion, fields, polys, recovery
from bcf.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

TOTALS = {
    "cubic_deep": {
        "bcf_expand_digits": 16_576, "_convolve": 768, "_primitive": 496,
        "_refine_more": 774, "refine_bits": 14_856, "rational_digits": 0,
        "_rounded_decimal": 16_576, "stdout_chars": 7_297_676,
        "_chain_roots": 111,
    },
    "scan_box": {
        "bcf_expand_digits": 12_386, "_convolve": 1_014, "_primitive": 324,
        "_refine_more": 938, "refine_bits": 14_729, "rational_digits": 0,
        "_rounded_decimal": 0, "stdout_chars": 132_863,
        "_chain_roots": 343,
    },
    "digits_recover": {
        "bcf_expand_digits": 0, "_convolve": 0, "_primitive": 0,
        "_refine_more": 147, "refine_bits": 6_632, "rational_digits": 60,
        "_rounded_decimal": 6_803, "stdout_chars": 2_408_515,
        "_chain_roots": 0,
    },
}


def _spy(monkeypatch, counts, owner, name, total, weight=lambda *a, **k: 1):
    """Rebind owner.name to a wrapper that adds weight(result, *args) to
    counts[total] on each call that returns."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        counts[total] += weight(result, *args, **kwargs)
        return result

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_catalogue_walk_does_the_pinned_work(monkeypatch, name):
    counts = Counter()
    for binding in ("_convolve", "_primitive", "rational_digits"):
        _spy(monkeypatch, counts, expansion, binding, binding)
    # Digit pairs returned by the field loop: the CLI's expand and scan
    # reach bcf_expand only with field pairs.
    for owner in (cli, recovery):
        _spy(monkeypatch, counts, owner, "bcf_expand", "bcf_expand_digits",
             lambda pair, *a, **k: len(pair.b))
    for owner in (expansion, fields):
        _spy(monkeypatch, counts, owner, "_refine_more", "_refine_more")
    _spy(monkeypatch, counts, fields.NumberField, "refine", "refine_bits",
         lambda _, field, bits=1: bits)
    _spy(monkeypatch, counts, cli, "_rounded_decimal", "_rounded_decimal")
    # Rational-root searches: scan's irreducibility test only.
    _spy(monkeypatch, counts, polys, "_chain_roots", "_chain_roots")
    for op in workloads.WORKLOADS[name].catalogue():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            run(op["argv"])
        counts["stdout_chars"] += len(out.getvalue())
    assert {total: counts[total] for total in TOTALS[name]} == TOTALS[name]
