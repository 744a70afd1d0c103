"""The three workloads: op catalogues, seeded schedules and output checks.

Every workload draws its ops from a fixed catalogue built from
``CATALOGUE_SEED``, so the stdout digest and exit code of each catalogue op
can be pinned once (``golden.json``, written by ``pin.py``).  A run measures
whole walks through the catalogue, each walk running every op once, so
every seed times the same ops; the run's own seed only chooses their order.
An op is a plain argv list for ``bcf.cli.run``: the program sees nothing
else.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

CATALOGUE_SEED = 2000

# (monic cubic, isolating interval, beta as a rational function of alpha)
# that ``bcf scan --c2=-2:2 --c1=-2:2 --c0=-2:2 --horizon 32`` reports as
# "exhausted": no period and no termination within 32 steps.
EXHAUSTED_TRIPLES = (
    ("1,-2,-2,-2", "-3,3", "1,1,0/1"), ("1,-2,-2,-1", "-3,3", "1,0,0/1"),
    ("1,-2,-2,-1", "-3,3", "1,-1,0/1"), ("1,-2,-2,-1", "-3,3", "1,1,0/1"),
    ("1,-2,-2,2", "0,3/2", "1,1,0/1"), ("1,-2,-2,2", "3/2,3", "1,1,0/1"),
    ("1,-2,-1,-2", "-3,3", "1,0,0/1"), ("1,-2,-1,-2", "-3,3", "1,-1,0/1"),
    ("1,-2,-1,-2", "-3,3", "1,1,0/1"), ("1,-2,-1,-1", "-3,3", "1,0,0/1"),
    ("1,-2,-1,-1", "-3,3", "1,-1,0/1"), ("1,-2,-1,-1", "-3,3", "1,1,0/1"),
    ("1,-2,-1,1", "3/2,3", "1,1,0/1"), ("1,-2,0,-2", "-3,3", "1,-1,0/1"),
    ("1,-2,0,-1", "-3,3", "1,1,0/1"), ("1,-2,2,-2", "-3,3", "1,1,0/1"),
    ("1,-1,-2,-2", "-3,3", "1,0,0/1"), ("1,-1,-2,-2", "-3,3", "1,1,0/1"),
    ("1,-1,0,-1", "-2,2", "1,1,0/1"), ("1,-1,1,-2", "-3,3", "1,0,0/1"),
    ("1,-1,1,-2", "-3,3", "1,-1,0/1"), ("1,-1,1,-2", "-3,3", "1,1,0/1"),
    ("1,0,-1,-2", "-3,3", "1,0,0/1"), ("1,0,-1,-2", "-3,3", "1,-1,0/1"),
    ("1,0,-1,-2", "-3,3", "1,1,0/1"), ("1,0,2,-2", "-3,3", "1,0,0/1"),
    ("1,0,2,-2", "-3,3", "1,1,0/1"), ("1,0,2,-1", "-3,3", "1,1,0/1"),
    ("1,1,1,-2", "-3,3", "1,0,0/1"), ("1,1,1,-2", "-3,3", "1,1,0/1"),
    ("1,1,2,-2", "-3,3", "1,0,0/1"), ("1,1,2,-2", "-3,3", "1,1,0/1"),
    ("1,2,-2,-2", "0,3", "1,-1,0/1"), ("1,2,2,-2", "-3,3", "1,0,0/1"),
    ("1,2,2,-2", "-3,3", "1,1,0/1"), ("1,2,2,-1", "-3,3", "1,0,0/1"),
    ("1,2,2,-1", "-3,3", "1,1,0/1"),
)
DEPTHS = (64, 128, 256)
SCAN_BOX = range(-3, 4)
# digits_recover: (command, ops in the catalogue).
DIGITS_MIX = (("recover", 120), ("eval", 60), ("validate", 30),
              ("render", 30), ("expand", 60))
INADMISSIBLE_RECOVER_SHARE = 10  # one recover op in ten, exit 2 expected
CUBIC_CHECK_EVERY = 8  # check_proper runs on one cubic_deep op in eight


def _csv(values):
    return ",".join(str(v) for v in values)


# -- catalogues -----------------------------------------------------------


def _cubic_catalogue():
    return [
        {"kind": "cubic", "depth": depth, "argv": [
            "expand", "--alpha", f"alg:{poly}@{interval}",
            "--beta", f"ratfunc:{beta}", "--terms", str(depth)]}
        for depth in DEPTHS
        for poly, interval, beta in EXHAUSTED_TRIPLES
    ]


def _scan_catalogue():
    return [
        {"kind": "scan", "argv": [
            "scan", f"--c2={c2}:{c2}", f"--c1={c1}:{c1}", f"--c0={c0}:{c0}",
            "--horizon", "32", "--jobs", "1"]}
        for c2 in SCAN_BOX for c1 in SCAN_BOX for c0 in SCAN_BOX
    ]


def admissible(a, b, preperiod):
    """The digit rules on the infinite sequence a, b, periodic from index
    ``preperiod``: a_i >= 1, a_i >= b_i, and b_{i+1} != 0 after
    a_i == b_i, at every index i >= 1."""
    n = len(a)
    first = 1 if preperiod else 0  # a pure period repeats index 0
    for i in range(first, n):
        if a[i] < 1 or a[i] < b[i]:
            return False
        following = i + 1 if i + 1 < n else preperiod
        if a[i] == b[i] and b[following] == 0:
            return False
    return True


def _admissible_digits(rng, length):
    a, b, previous_equal = [], [], False
    for _ in range(length):
        a_i = rng.randint(1, 9)
        b_i = rng.randint(1 if previous_equal else 0, a_i)
        previous_equal = a_i == b_i
        a.append(a_i)
        b.append(b_i)
    return a, b


def _recover_ops(rng, count):
    ops = []
    inadmissible_quota = count // INADMISSIBLE_RECOVER_SHARE
    inadmissible = 0
    while len(ops) < count:
        m, k = rng.randint(1, 6), rng.randint(0, 3)
        a = [rng.randint(1, 9) for _ in range(k + m)]
        b = [rng.randint(0, x) for x in a]
        ok = admissible(a, b, k)
        if not ok:
            if inadmissible == inadmissible_quota:
                continue
            inadmissible += 1
        elif len(ops) - inadmissible == count - inadmissible_quota:
            continue
        argv = ["recover", "--period-a", _csv(a[k:]), "--period-b", _csv(b[k:])]
        if k:
            argv += ["--preperiod-a", _csv(a[:k]), "--preperiod-b", _csv(b[:k])]
        ops.append({"kind": "recover", "argv": argv, "admissible": ok,
                    "preperiod": k, "a": a, "b": b})
    return ops


def _digit_ops(rng, kind, count):
    ops = []
    for i in range(count):
        if kind == "expand":
            p, q, r, s = (rng.randrange(10**29, 10**30) for _ in range(4))
            ops.append({"kind": kind, "argv": [
                "expand", "--alpha", f"rat:{p}/{q}", "--beta", f"rat:{r}/{s}",
                "--terms", "200", "--format", "text"]})
            continue
        a, b = _admissible_digits(rng, rng.randint(200, 2000))
        if kind == "validate" and i % 2:
            j = rng.randrange(1, len(a))
            b[j] = a[j] + 1  # one a_less_than_b violation
        argv = [kind, "--a", _csv(a), "--b", _csv(b)]
        if kind == "render":
            argv += ["--depth", str(rng.randint(6, 11)),
                     "--style", ("ascii", "latex")[i % 2]]
        ops.append({"kind": kind, "argv": argv})
    return ops


def _digits_catalogue():
    rng = random.Random(CATALOGUE_SEED)
    ops = []
    for kind, count in DIGITS_MIX:
        ops += (_recover_ops(rng, count) if kind == "recover"
                else _digit_ops(rng, kind, count))
    return ops


# -- runs -----------------------------------------------------------------


class Workload:
    """A named op catalogue and how many walks through it a run makes.

    ``walk_seconds`` is the CPU time of one walk on the machine the outputs
    were pinned on (2 vCPU, Python 3.11.7); ``walks`` turns ``--seconds``
    into a whole number of walks, so the work a run measures depends on
    ``--seconds`` alone and never on where a time limit falls.
    """

    def __init__(self, name, build, walk_seconds, warmup_ops):
        self.name = name
        self.catalogue = build
        self.walk_seconds = walk_seconds
        self.warmup_ops = warmup_ops

    def walks(self, seconds):
        return max(1, round(seconds / self.walk_seconds))


# Why each workload exists is recorded in spec.json and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("cubic_deep", _cubic_catalogue, 22.7, 3),
        Workload("scan_box", _scan_catalogue, 9.3, 30),
        Workload("digits_recover", _digits_catalogue, 5.2, 30),
    )
}


# -- independent output checks ---------------------------------------------


def needs_check(op, position):
    """Whether an op gets the independent check besides its pinned digest."""
    if op["kind"] == "cubic":
        return position % CUBIC_CHECK_EVERY == 0
    return op["kind"] in ("expand", "eval", "recover")


def check(op, code, stdout):
    """Second-route check of one op's output; returns an error text or None."""
    kind = op["kind"]
    if kind == "recover":
        return _check_recover(op, code, stdout)
    if code != 0:
        return f"exit code {code}"
    if kind == "cubic":
        return _check_cubic(op, json.loads(stdout))
    if kind == "expand":
        return _check_rational(op, stdout)
    if kind == "eval":
        return _check_eval(op, json.loads(stdout))
    return None


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_cubic(op, out):
    from bcf import SequencePair, check_proper, parse_number

    alpha = parse_number(_arg(op["argv"], "--alpha"))
    beta = parse_number(_arg(op["argv"], "--beta")).evaluate(alpha)
    a, b = out["a"], out["b"]
    if len(a) != op["depth"] or len(b) != op["depth"]:
        return f"expected {op['depth']} digit pairs, got {len(a)}"
    if not check_proper(alpha, beta, SequencePair(a, b), len(a)):
        return "check_proper rejects the emitted digits"
    return None


def _check_rational(op, stdout):
    from bcf import tree_sum

    fields = dict(
        line.split(": ", 1) for line in stdout.splitlines() if ": " in line
    )
    if "terminal" not in fields:
        return "a rational expansion must terminate"
    a = [int(d) for d in fields["a"].split(",")] if fields["a"] else []
    b = [int(d) for d in fields["b"].split(",")]
    terminal = Fraction(fields["terminal"])
    if len(b) != len(a) + 1:
        return "a terminated expansion carries one extra b digit"
    alpha, beta = a + [terminal], b
    if b[-1] == 0:
        # tree_sum wants positive terminal entries: fold the last level,
        # where beta_n = 0 gives alpha_{n-1} = a_{n-1}, by hand.
        alpha = a[:-1] + [Fraction(a[-1])]
        beta = b[:-2] + [b[-2] + 1 / terminal]
    got = tree_sum(alpha, beta)
    want = (Fraction(_arg(op["argv"], "--alpha")[4:]),
            Fraction(_arg(op["argv"], "--beta")[4:]))
    if got != want:
        return f"tree_sum gives {got}, input was {want}"
    return None


def _check_eval(op, out):
    from bcf import (SequencePair, convergent, convergent_backward,
                     convergent_matrix, det_invariant)

    a = [int(d) for d in _arg(op["argv"], "--a").split(",")]
    b = [int(d) for d in _arg(op["argv"], "--b").split(",")]
    pair, n = SequencePair(a, b), len(a) - 1
    emitted = (int(out["A"]), int(out["B"]), int(out["C"]))
    forward = convergent(pair, n)
    matrix = convergent_matrix(pair, n)
    routes = {
        "forward": (forward.A, forward.B, forward.C),
        "backward": convergent_backward(pair, 0, n),
        "matrix": (matrix.A, matrix.B, matrix.C),
    }
    for route, triple in routes.items():
        if tuple(triple) != emitted:
            return f"{route} convergent disagrees with the output"
    if det_invariant(pair, n) != 1:
        return "det_invariant != 1"
    return None


def _check_recover(op, code, stdout):
    from bcf import bcf_expand, parse_number

    if code != (0 if op["admissible"] else 2):
        return f"exit code {code} for admissible={op['admissible']}"
    if code:
        return None
    out = json.loads(stdout)
    lo, hi = out["interval"]
    alpha = parse_number(f"alg:{_csv(out['min_poly'])}@{lo},{hi}")
    beta = parse_number(f"ratfunc:{out['beta_expr']}").evaluate(alpha)
    k, a, b = op["preperiod"], op["a"], op["b"]
    m = len(a) - k
    terms = k + 2 * m
    pair = bcf_expand(alpha, beta, max_terms=terms)
    want_a = [a[i if i < k else k + (i - k) % m] for i in range(terms)]
    want_b = [b[i if i < k else k + (i - k) % m] for i in range(terms)]
    if list(pair.a) != want_a or list(pair.b) != want_b:
        return "re-expanding the recovered pair does not give the input digits"
    if out["method"] != ("eventual" if k else "pure"):
        return f"method {out['method']} for preperiod {k}"
    return None
