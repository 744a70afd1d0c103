"""Command-line contract: exit codes, frozen JSON schemas, error routing."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf import (
    NumberField, bcf_expand, bcf_expand_rational, cli, convergent, errors,
    expansion, fields, literals, recovery, validation,
)
from bcf._kernels import rational_digits
from bcf.cli import _convergent_records, run
from bcf.fields import _rounded_decimal

from _corpus import random_valid_digits


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_lines(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return [json.loads(line) for line in captured.out.splitlines()]


# -- expand ---------------------------------------------------------------------


def test_expand_rational_json(capsys):
    payload = run_json(
        capsys, ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2"]
    )
    assert payload["a"] == [1, 2]
    assert payload["b"] == [1, 1, 0]
    assert payload["terminated"] is True
    assert payload["preperiod"] is None and payload["period"] is None
    assert payload["convergents"][1] == {
        "n": 1,
        "A": "3",
        "B": "3",
        "C": "2",
        "alpha": "3/2",
        "beta": "3/2",
        "alpha_dec": "1.500000000000",
    }
    assert "terminal" not in payload
    assert "heuristic" not in payload


def test_expand_output_is_deterministic(capsys):
    argv = ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    # keys sorted, compact separators
    assert first.startswith('{"a":[1,2],"b":[1,1,0],')


def test_expand_tribonacci_literals(capsys):
    payload = run_json(
        capsys,
        [
            "expand",
            "--alpha", "alg:1,-1,-1,-1@1,2",
            "--beta", "ratfunc:1,1/1,0",
            "--terms", "32",
        ],
    )
    assert payload["a"] == [1] * 32
    assert payload["b"] == [1] * 32
    assert payload["preperiod"] == 0 and payload["period"] == 1


def test_expand_text_shows_terminal(capsys):
    code = run(
        ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2",
         "--format", "text"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "terminal: 2/1" in out
    assert "terminated: true" in out


@pytest.mark.parametrize("beta", ["rat:1/2", "rat:7/5"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_degree_one_alg_literal_prints_as_its_rational(capsys, beta, fmt):
    outputs = []
    for alpha in ("alg:2,-3@1,2", "rat:3/2"):
        code = run(["expand", "--alpha", alpha, "--beta", beta, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    if fmt == "text":
        assert "terminal: " in outputs[0]


# The first 30-digit pair of the benchmark's digits_recover catalogue.
ALPHA_30 = "rat:713722173205991698923043325531/865535494447169240923082592683"
BETA_30 = "rat:381433033348889187677694374246/328022014863927355196443824330"


def _stdout(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


_Q = NumberField((1, 0), (-1, 1))  # Q, as the field of theta = 0


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_rational_expand_bytes_match_generic_loop(capsys, monkeypatch, fmt, offset):
    length = len(bcf_expand_rational(Fraction(ALPHA_30[4:]), Fraction(BETA_30[4:])).b)
    argv = ["expand", "--alpha", ALPHA_30, "--beta", BETA_30,
            "--terms", str(length + offset), "--format", fmt]
    kernel = _stdout(capsys, argv)
    with monkeypatch.context() as m:
        # the field loop, run on the pair embedded in a degree-1 field
        m.setattr(cli, "bcf_expand", lambda alpha, beta, max_terms: bcf_expand(
            _Q.element(alpha), _Q.element(beta), max_terms))
        generic = _stdout(capsys, argv)
    assert kernel == generic
    assert ("terminal: " in kernel or '"terminated":true' in kernel) == (offset >= 0)


def test_rational_expand_skips_generic_loop(capsys, monkeypatch):
    def generic(*args, **kwargs):
        raise AssertionError("the generic loop ran")

    calls = []

    def kernel(*args):
        calls.append(args)
        return rational_digits(*args)

    # the field loop's first step calls _bounds
    monkeypatch.setattr(expansion, "_bounds", generic)
    monkeypatch.setattr(expansion, "bcf_step", generic)
    monkeypatch.setattr(expansion, "rational_digits", kernel)
    out = _stdout(capsys, ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2",
                           "--terms", "2", "--format", "text"])
    assert out.splitlines()[:3] == ["a: 1,2", "b: 1,1", "terminated: false"]
    assert len(calls) == 1


# (argv, sha256 of stdout): one depth-256 cubic expansion and one 30-digit
# rational expansion from the benchmark catalogues, pinned on the code that
# expanded them with generic field and Fraction arithmetic.
PINNED_STDOUT = (
    (["expand", "--alpha", "alg:1,-2,-2,-2@-3,3", "--beta", "ratfunc:1,1,0/1",
      "--terms", "256"],
     "8a50c91c2d62a8668135c82699d6f1ca8a02ea6369a8a4a4e13bc33279e35656"),
    (["expand", "--alpha", ALPHA_30, "--beta", BETA_30, "--terms", "200",
      "--format", "text"],
     "5ec08b3067d9656f8e86ac18330efd6583af135eac5a58cfc98db5fb36ba535d"),
)


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=["cubic", "rational"])
def test_expand_stdout_pinned(capsys, argv, digest):
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# expand of a dec: box: no golden catalogue op runs it, so its bytes are
# pinned here on dec/dec, dec/rat and rat/dec pairs, a box that splits after
# one pair, and 1.75 written with an exponent.
APPROX_STDOUT = {
    "dec-dec": (["--alpha", "dec:1.7320508", "--beta", "dec:1.4142136"],
                "2e13285525ec93e5d136b4bf11fdedee6b4e83131ee0d0b290e0bdcd5a5437fe"),
    "dec-rat": (["--alpha", "dec:3.14159265358979", "--beta", "rat:3/2",
                 "--format", "text"],
                "f2fd975da4e02d4636bbdf320b93630e90876c354fa80810b326e821a8d554c1"),
    "rat-dec": (["--alpha", "rat:7/4", "--beta", "dec:2.718281828", "--terms", "5"],
                "ea5094225093214f3858e5138238e6ec0ccdcc69b278ca5b7d4f94918570855e"),
    "split": (["--alpha", "dec:2.5", "--beta", "dec:1.0000000000000001"],
              "82ae96fced6e8210d54df5711bec3b46cdf037f86a0346a2506c2642154c8412"),
    "exponent": (["--alpha", "dec:175e-2", "--beta", "dec:1.5", "--format", "text"],
                 "88fa316d556aea36cd1a27ca662fafc022d736ece9ba69d2d0c9168e2ec068c2"),
    "upper-exponent": (["--alpha", "dec:1.75E+0", "--beta", "dec:15E-1"],
                       "9afe2513b028a3631d2f45fe4f72faa104e7b7865994d88246ddb039f1d628e3"),
}


@pytest.mark.parametrize("kind", list(APPROX_STDOUT))
def test_expand_approx_stdout_pinned(capsys, kind):
    argv, digest = APPROX_STDOUT[kind]
    out = _stdout(capsys, ["expand", *argv])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# One argv per kind of expand run; each JSON line must already be in the
# canonical form: sorted keys, compact separators.
EXPAND_KINDS = {
    "open": ["--alpha", "alg:1,-2,-2,-2@-3,3", "--beta", "ratfunc:1,1,0/1",
             "--terms", "20"],
    "periodic": ["--alpha", "alg:1,-1,-1,-1@1,2", "--beta", "ratfunc:1,1/1,0",
                 "--terms", "12"],
    "terminated": ["--alpha", "rat:7/4", "--beta", "rat:3/2"],
    "empty_a": ["--alpha", "rat:7/4", "--beta", "rat:2"],
    "approx": ["--alpha", "dec:1.7320508", "--beta", "dec:1.4142136",
               "--terms", "6"],
}


@pytest.mark.parametrize("kind", list(EXPAND_KINDS))
def test_expand_json_is_canonical(capsys, kind):
    out = _stdout(capsys, ["expand", *EXPAND_KINDS[kind]])
    payload = json.loads(out)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert out == canonical + "\n"
    assert (payload["period"] is not None) == (kind == "periodic")
    assert payload["terminated"] == (kind in ("terminated", "empty_a"))
    assert (payload["a"] == []) == (kind == "empty_a")
    assert "heuristic" not in out
    assert len(payload["convergents"]) == len(payload["a"])


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_expand_record_too_long_midway_is_exit_3(capsys, fmt):
    # Digits a = b = 10**100 repeat forever: the first 40 records print, and
    # from about record 43 on, A, B and C pass the integer-string limit.
    big = 10**100
    argv = ["expand", "--alpha", f"alg:1,-{big},-{big},-1@{big},{big + 2}",
            "--beta", f"ratfunc:1,-{big},0/1", "--format", fmt, "--terms"]
    assert _stdout(capsys, argv + ["40"])
    assert run(argv + ["60"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: an integer in the output has more than ")


def test_expand_integer_too_long_to_print_is_exit_3(capsys):
    # Digits a = b = 10**100 repeat forever, so A_n has about 100*n digits.
    big = 10**100
    argv = ["expand", "--alpha", f"alg:1,-{big},-{big},-1@{big},{big + 2}",
            "--beta", f"ratfunc:1,-{big},0/1", "--terms", "60"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert str(sys.get_int_max_str_digits()) in captured.err


def _reference_decimal(value, digits):
    """Round half away from zero through Fraction arithmetic."""
    scaled = value * 10**digits
    magnitude = (2 * abs(scaled.numerator) + scaled.denominator) // (
        2 * scaled.denominator
    )
    n = -magnitude if scaled < 0 else magnitude
    whole, frac = divmod(abs(n), 10**digits)
    return n, f"{'-' if n < 0 else ''}{whole}.{str(frac).zfill(digits)}"


BIG = 2**200


def _coprime_to(x, c):
    """x with every prime factor it shares with c divided out."""
    while (g := math.gcd(x, c)) > 1:
        x //= g
    return x


@st.composite
def record_inputs(draw):
    """(A, B, C, digits): random integers, A / C half a unit in the last
    place, A * B = 0, or A = g1*x, B = g2*y, C = g1*g2*z built so that
    exactly the chosen ratios among A/C and B/C are unreduced."""
    digits = draw(st.integers(1, 60))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["half", "random", "zero", "factors"]))
    B = draw(st.integers(-BIG, BIG))
    if kind == "half":
        # A / C exactly half a unit in the last place, unreduced.
        half_units = 2 * draw(st.integers(0, 10**70)) + 1
        scale = draw(st.integers(1, 2**40))
        A, C = sign * half_units * scale, 2 * 10**digits * scale
    elif kind == "random":
        A = draw(st.one_of(st.just(0), st.integers(-BIG, BIG)))
        C = sign * draw(st.integers(1, BIG))
    elif kind == "zero":
        A, C = draw(st.integers(-BIG, BIG)), sign * draw(st.integers(1, BIG))
        if draw(st.booleans()):
            A, B = 0, A
        else:
            B = 0
    else:
        reduce_a, reduce_b = draw(st.sampled_from(
            [(False, False), (True, False), (False, True), (True, True)]
        ))
        factor = st.integers(2, 2**64)
        g1 = draw(factor) if reduce_a else 1
        g2 = draw(factor) if reduce_b else 1
        C = sign * g1 * g2 * draw(st.integers(1, BIG))
        x = draw(st.integers(1, BIG))
        y = draw(st.integers(1, BIG))
        if not reduce_a:
            x = _coprime_to(x, C)
        if not reduce_b:
            y = _coprime_to(y, C)
        A = draw(st.sampled_from([1, -1])) * g1 * x
        B = draw(st.sampled_from([1, -1])) * g2 * y
        assert (math.gcd(A, C) > 1, math.gcd(B, C) > 1) == (reduce_a, reduce_b)
    if draw(st.booleans()):
        C = -C
    return A, B, C, digits


@given(record_inputs())
@settings(max_examples=400, deadline=None)
def test_integer_record_matches_fraction_reference(inputs):
    A, B, C, digits = inputs
    alpha, beta = Fraction(A, C), Fraction(B, C)
    assert _rounded_decimal(A, C, digits) == _reference_decimal(alpha, digits)
    want = {
        "n": 7,
        "A": str(A),
        "B": str(B),
        "C": str(C),
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
        "beta": f"{beta.numerator}/{beta.denominator}",
        "alpha_dec": _reference_decimal(alpha, digits)[1],
    }
    text = " ".join(f"{key}={value}" for key, value in want.items())
    assert _convergent_records([(A, B, C)], digits, True, 7) == [text]
    (line,) = _convergent_records([(A, B, C)], digits, False, 7)
    assert line == json.dumps(want, sort_keys=True, separators=(",", ":"))
    # eval's record carries beta_dec too, after alpha_dec
    want["beta_dec"] = _reference_decimal(beta, digits)[1]
    text += f" beta_dec={want['beta_dec']}"
    assert _convergent_records([(A, B, C)], digits, True, 7, True) == [text]
    (line,) = _convergent_records([(A, B, C)], digits, False, 7, True)
    assert line == json.dumps(want, sort_keys=True, separators=(",", ":"))


_TOO_LONG = (
    "an integer in the output has more than 640 decimal digits, Python's "
    "limit for integer-to-string conversion"
)


@pytest.mark.parametrize("text", [True, False], ids=["text", "json"])
def test_records_past_the_digit_limit_are_output_too_large(text):
    long_a, short_a = 10**699 + 7, 10**638 + 7  # 700 and 639 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for triple in [(long_a, 1, 3), (3, long_a, 5), (3, 2, long_a)]:
            with pytest.raises(errors.OutputTooLarge) as info:
                _convergent_records([(1, 1, 1), triple], 12, text)
            assert str(info.value) == _TOO_LONG
        with pytest.raises(errors.OutputTooLarge) as info:
            _rounded_decimal(long_a, 1, 12)
        assert str(info.value) == _TOO_LONG
        (record,) = _convergent_records([(short_a, 1, 1)], 12, text)
        assert str(short_a) in record
        assert _rounded_decimal(short_a, 1, 640)[1] == f"{short_a}.{'0' * 640}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_huge_terms_stop_at_the_digit_limit(monkeypatch, capsys):
    # All-(1, 0) digits grow C slowest, and still record 7L + 2 has more
    # than L digits, so expand asks for at most 7L + 3 pairs.
    asked = []
    original = cli.bcf_expand

    def spy(*args, **kwargs):
        asked.append(kwargs["max_terms"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "bcf_expand", spy)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["expand", "--alpha", "alg:1,-1,0,-1@1,2",
                    "--beta", "ratfunc:1,-1,0/1", "--terms", "1000000000"])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {_TOO_LONG}\n"
    assert asked == [7 * 640 + 3]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unprintable_expand_renders_no_record(monkeypatch, capsys, fmt):
    # Tribonacci's C_n passes 640 digits near n = 2420: the last triple is
    # tested before any record is rendered, so no decimal is computed.
    calls = []
    original = cli._rounded_decimal

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_rounded_decimal", spy)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["expand", "--alpha", "alg:1,-1,-1,-1@1,2",
                    "--beta", "ratfunc:1,0,0/1", "--terms", "3000",
                    "--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (3, "", [])
    assert captured.err == f"error: {_TOO_LONG}\n"


def test_expand_ratfunc_only_for_beta(capsys):
    code = run(
        ["expand", "--alpha", "ratfunc:1/1,0", "--beta", "rat:2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: --alpha: expected a rat: or alg: literal, got 'ratfunc:1/1,0'\n"
    )


def test_expand_rejects_bad_literal(capsys):
    assert run(["expand", "--alpha", "rat:x", "--beta", "rat:1"]) == 2
    assert "rat:<int>" in capsys.readouterr().err
    # alpha and beta from two different fields
    assert run(["expand", "--alpha", "alg:1,0,-2@1,2",
                "--beta", "alg:1,0,-3@1,2"]) == 2
    assert "same field" in capsys.readouterr().err


def test_expand_rejects_nonpositive(capsys):
    assert run(["expand", "--alpha", "rat:-1", "--beta", "rat:2"]) == 2
    capsys.readouterr()
    # A field pair: beta = 1 - alpha < 0 in the tribonacci field.
    assert run(["expand", "--alpha", "alg:1,-1,-1,-1@1,2",
                "--beta", "ratfunc:-1,1/1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expansion requires alpha > 0 and beta > 0\n"


def test_expand_ratfunc_pole_is_input_error(capsys):
    # beta = 1/(alpha - 2) evaluated at alpha = 2 divides by zero
    code = run(["expand", "--alpha", "rat:2", "--beta", "ratfunc:1/1,-2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --beta: ")


# The exit code of every error class in bcf.errors, decided here by hand so
# that a new class fails test_every_error_class_has_an_exit_code until its
# code is chosen.
_EXIT_CODES = {
    errors.BcfError: 3,
    errors.InputError: 2,
    errors.ParseError: 2,
    errors.ReduciblePolynomial: 2,
    errors.RootCountNotOne: 2,
    errors.DegreeOutOfRange: 2,
    errors.NonPositiveInput: 2,
    errors.InvalidSequence: 2,
    errors.FieldMismatch: 2,
    errors.IndexOutOfRange: 2,
    errors.EmptyInterval: 2,
    errors.DegenerateSystem: 3,
    errors.OutputTooLarge: 3,
    ZeroDivisionError: 3,
}


def test_every_error_class_has_an_exit_code():
    classes = {
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.BcfError)
    }
    assert classes == set(_EXIT_CODES) - {ZeroDivisionError}


@pytest.mark.parametrize(
    "error, code", list(_EXIT_CODES.items()),
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_error_class_decides_exit_code(monkeypatch, capsys, error, code):
    # An error leaves with the code of its class, whichever step raised it.
    def broken(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "render_tree", broken)
    assert run(["render", "--a", "1,2", "--b", "1,2", "--depth", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


def _count_calls(monkeypatch, module, name):
    """Count calls to module.name through every bcf binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "bcf" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_exact_expand_unifies_its_pair_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, expansion, "_unify_pair")
    run_json(capsys, ["expand", "--alpha", "alg:1,-1,-1,-1@1,2",
                      "--beta", "ratfunc:1,1/1,0", "--terms", "8"])
    assert len(calls) == 1


def test_recover_validates_its_digits_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, validation, "validate")
    run_json(capsys, ["recover", "--preperiod-a", "2", "--preperiod-b", "2",
                      "--period-a", "2,3", "--period-b", "0,0"])
    assert len(calls) == 1


def test_valid_digit_lists_parse_without_the_token_loop(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, literals, "_parse_int")
    digits = ",".join(["1"] * 2000)
    payload = run_json(capsys, ["eval", "--a", digits, "--b", digits])
    assert payload["n"] == 1999 and calls == []
    # one bad token takes the loop, which names its position as before
    assert run(["eval", "--a", "10,x", "--b", "1,1"]) == 2
    assert "at position 3, got 'x'" in capsys.readouterr().err
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "1," + "9" * 5000, "--b", "1,1"],
    ["expand", "--alpha", "alg:1,0," + "9" * 5000 + "@0,1", "--beta", "rat:1"],
    ["expand", "--alpha", "rat:" + "9" * 5000, "--beta", "rat:1"],
    ["expand", "--alpha", "alg:1,0,-2@1," + "9" * 5000, "--beta", "rat:1"],
])
def test_integer_past_string_limit_is_named_not_echoed(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: token at position ")
    assert f"{sys.get_int_max_str_digits()}-digit integer-string limit" in (
        captured.err
    )
    assert len(captured.err) < 200


def test_reversed_root_interval_is_input_error(capsys):
    code = run(["expand", "--alpha", "alg:1,0,-2@2,1", "--beta", "rat:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: root interval must satisfy lo < hi")


# An interval end takes the rat: rule: a decimal or exponent end is refused
# at its token, before any field is set up.
@pytest.mark.parametrize("alpha, token", [
    ("alg:1,0,-2@1e5000,1e5001", "'1e5000'"),
    ("alg:1,0,-2@1.41,1.42", "'1.41'"),
    ("alg:1,0,-2@-1e999999,2", "'-1e999999'"),
])
def test_alg_interval_end_takes_the_rat_rule(capsys, alpha, token):
    assert run(["expand", "--alpha", alpha, "--beta", "rat:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: expected an integer at position 11, got "
                            f"{token} (grammar: alg:<c_d>,...,<c_0>@<lo>,<hi>)\n")


def test_out_of_memory_is_exit_3(monkeypatch, capsys):
    # An expand that runs out of memory leaves with one line, not a
    # traceback.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "bcf_expand", exhausted)
    code = run(["expand", "--alpha", "alg:1,-1,-1,-1@1,2",
                "--beta", "ratfunc:1,1/1,0", "--terms", "1000000000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_internal_value_error_is_not_input_error(monkeypatch):
    # A ValueError from a bug in a handler's parsing is not bad input: it
    # must not leave through the exit-2 path.
    def broken(text):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "parse_digits", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["eval", "--a", "1,2", "--b", "2,3"])


def test_expand_approx_box_digits(capsys):
    # dec:1.75 and dec:1.5 stand for [1.745, 1.755] and [1.45, 1.55]: only
    # the first pair is shared, and the split leaves the pair open.
    payload = run_json(
        capsys,
        ["expand", "--alpha", "dec:1.75", "--beta", "dec:1.5"],
    )
    assert (payload["a"], payload["b"]) == ([1], [1])
    assert payload["terminated"] is False
    exact = run_json(capsys, ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2"])
    assert set(payload) == set(exact)


# sha256 of what expand --approx printed on two rat: points, the exact bytes;
# the flag is gone, and the same argv without it prints them.
APPROX_RATIONAL_SHA256 = {
    "json": "0c9dbe6c01d46f8951d29a9a59424319825fcc74f8452b0cb3213f70d1063676",
    "text": "8c2e794ffce157412d8bdcd9c463cc9039c976ebe425e69e6cfa5848010f8ba3",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_expand_approx_rational_points_match_exact(capsys, fmt):
    argv = ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2", "--format", fmt]
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == APPROX_RATIONAL_SHA256[fmt]
    assert _outcome(argv + ["--approx"]) == (
        2, "", "error: unrecognized arguments: --approx\n")


def test_expand_approx_split_box_is_exit_0(capsys):
    # beta's box straddles no integer but sits just above 1; the box splits
    # after one pair instead of failing.
    payload = run_json(
        capsys,
        ["expand",
         "--alpha", "dec:2.5",
         "--beta", "dec:1.0000000000000001"],
    )
    assert (payload["a"], payload["b"]) == ([2], [1])
    assert payload["terminated"] is False


@pytest.mark.parametrize("argv", [
    ["expand", "--alpha", "dec:1e999999999", "--beta", "rat:1"],
    ["expand", "--alpha", "dec:1e-999999999", "--beta", "rat:1/2"],
], ids=["overflow", "underflow"])
def test_expand_approx_decimal_out_of_range_is_exit_2(capsys, argv):
    # A decimal outside the heuristic's exponent range is bad input; it must
    # neither escape as decimal.Overflow nor round to zero inside the run.
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: decimal at position 4 is too large or too small"
    )


_SCAN_ONE = ["scan", "--c2=0:0", "--c1=0:0", "--c0=-1:-1"]


# Each flag that takes a number literal names the kinds it takes, and any
# other kind is refused in one line that names the flag; a dec: on either
# side of expand leaves rat: or dec: to the other.
@pytest.mark.parametrize("argv, message", [
    (["expand", "--alpha", "ratfunc:1/1,0", "--beta", "rat:2"],
     "--alpha: expected a rat: or alg: literal, got 'ratfunc:1/1,0'"),
    (["expand", "--alpha", "dec:1.75", "--beta", "alg:1,0,-2@1,2"],
     "--beta: expected a rat: or dec: literal, got 'alg:1,0,-2@1,2'"),
    (["expand", "--alpha", "ratfunc:1/1,0", "--beta", "dec:1.5"],
     "--alpha: expected a rat: or dec: literal, got 'ratfunc:1/1,0'"),
    (["expand", "--alpha", "alg:1,-1,-1,-1@1,2", "--beta", "dec:2.8"],
     "--alpha: expected a rat: or dec: literal, got 'alg:1,-1,-1,-1@1,2'"),
    (["expand", "--alpha", "dec:1.75", "--beta", "ratfunc:1,1/1,0"],
     "--beta: expected a rat: or dec: literal, got 'ratfunc:1,1/1,0'"),
    (["validate", "--a", "1", "--b", "1,0", "--terminal", "ratfunc:1/1"],
     "--terminal: expected a rat: or alg: literal, got 'ratfunc:1/1'"),
    (["validate", "--a", "1", "--b", "1,0", "--terminal", "dec:0.5"],
     "--terminal: expected a rat: or alg: literal, got 'dec:0.5'"),
    (_SCAN_ONE + ["--beta", "rat:1/2"],
     "--beta: expected a ratfunc: literal, got 'rat:1/2'"),
    (_SCAN_ONE + ["--beta", "alg:1,0,-2@1,2"],
     "--beta: expected a ratfunc: literal, got 'alg:1,0,-2@1,2'"),
    (_SCAN_ONE + ["--beta", "dec:1.5"],
     "--beta: expected a ratfunc: literal, got 'dec:1.5'"),
], ids=["expand-alpha-ratfunc", "expand-alpha-dec", "expand-beta-dec",
        "approx-alpha-alg", "approx-beta-ratfunc", "terminal-ratfunc",
        "terminal-dec", "scan-beta-rat", "scan-beta-alg", "scan-beta-dec"])
def test_literal_kind_refusals(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# -- eval -----------------------------------------------------------------------


def test_eval_example(capsys):
    payload = run_json(capsys, ["eval", "--a", "1,1,1", "--b", "1,1,1"])
    assert payload == {
        "n": 2,
        "A": "4",
        "B": "3",
        "C": "2",
        "alpha": "2/1",
        "beta": "3/2",
        "alpha_dec": "2.000000000000",
        "beta_dec": "1.500000000000",
    }


def test_eval_text_bytes_pinned(capsys):
    # alpha = 10/6 and beta = 3/6 are both reduced before printing.
    out = _stdout(capsys, ["eval", "--a", "1,1,1,1", "--b", "0,1,2,2",
                           "--format", "text", "--digits", "5"])
    assert out == ("n=3 A=10 B=3 C=6 alpha=5/3 beta=1/2 alpha_dec=1.66667 "
                   "beta_dec=0.50000\n")


def test_eval_interior_index(capsys):
    payload = run_json(
        capsys, ["eval", "--a", "1,1,1", "--b", "1,1,1", "--n", "1"]
    )
    assert (payload["A"], payload["B"], payload["C"]) == ("2", "2", "1")


def test_eval_zero_denominator_is_exit_3(capsys):
    # a_1 = 0 gives C_1 = 0, so the convergent has no value.
    assert run(["eval", "--a", "1,0", "--b", "0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: C_n = 0 at n = 1, so A/C and B/C are undefined\n"
    )


def test_eval_length_mismatch(capsys):
    assert run(["eval", "--a", "1,2", "--b", "1"]) == 2
    capsys.readouterr()


def test_eval_index_out_of_range(capsys):
    assert run(["eval", "--a", "1,2", "--b", "1,0", "--n", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_eval_integer_too_long_to_print_is_exit_3(capsys, fmt):
    digits = ",".join(["9" * 200] * 30)
    argv = ["eval", "--a", digits, "--b", digits, "--format", fmt]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert str(sys.get_int_max_str_digits()) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "1,2", "--b", "2,3"],
    ["recover", "--period-a", "1", "--period-b", "1"],
])
def test_decimals_past_digit_limit_are_exit_3(capsys, argv):
    assert run(argv + ["--digits", "5000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_recover_past_digit_limit_fails_before_refining(capsys, monkeypatch):
    from bcf import NumberField

    refines = []
    monkeypatch.setattr(NumberField, "refine", lambda self, bits=1: refines.append(bits))
    argv = ["recover", "--period-a", "1", "--period-b", "1", "--digits", "5000"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert refines == []


@pytest.mark.parametrize("places", [sys.get_int_max_str_digits() + 1, 10**7])
@pytest.mark.parametrize("argv", [
    ["eval", "--a", "1,2", "--b", "1,1"],
    ["expand", "--alpha", "rat:7/4", "--beta", "rat:3/2"],
    ["expand", "--alpha", "dec:1.75", "--beta", "dec:1.5"],
    ["recover", "--period-a", "1", "--period-b", "1"],
], ids=["eval", "expand", "expand-approx", "recover"])
def test_eval_and_expand_past_digit_limit_fail_before_any_work(
    monkeypatch, capsys, argv, places
):
    calls = _count_calls(monkeypatch, fields, "_rounded_decimal")
    recoveries = _count_calls(monkeypatch, recovery, "recover_cubic_eventual")
    assert run(argv + ["--digits", str(places)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert calls == [] and recoveries == []
    # the limit itself still prints
    limit = str(sys.get_int_max_str_digits())
    assert run(argv + ["--digits", limit]) == 0, capsys.readouterr().err
    assert calls


# -- render ---------------------------------------------------------------------


def test_render_text_matches_library(capsys):
    from bcf import SequencePair, render_tree

    code = run(["render", "--a", "2,2,3", "--b", "2,0,0", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    expected = render_tree(SequencePair((2, 2, 3), (2, 0, 0)), 2)
    assert out == expected + "\n"


def test_render_latex_json(capsys):
    payload = run_json(
        capsys,
        ["render", "--a", "2,2,3", "--b", "2,0,0", "--depth", "1",
         "--style", "latex", "--format", "json"],
    )
    assert payload["alpha"].startswith("\\alpha = ")
    assert payload["beta"].startswith("\\beta = ")


def test_render_depth_beyond_digits(capsys):
    assert run(["render", "--a", "1,1", "--b", "1,1", "--depth", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("style", ["ascii", "latex"])
@pytest.mark.parametrize("depth", ["27", "2000", str(2**63 - 1), str(10**30)])
def test_render_beyond_the_node_budget_is_exit_3(capsys, style, depth):
    # Depths of sys.maxsize and more too: the budget is counted level by
    # level, never by slicing to depth + 1.
    code = run(["render", "--a", "1", "--b", "1", "--period", "1",
                "--depth", depth, "--style", style])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        f"error: depth {depth} renders more than 1048576 nodes\n"
    )


def test_render_periodic_extension(capsys):
    code = run(
        ["render", "--a", "1", "--b", "1", "--period", "1", "--depth", "4"]
    )
    assert code == 0
    capsys.readouterr()


# -- validate --------------------------------------------------------------------


def test_validate_rule_two_example(capsys):
    payload = run_json(capsys, ["validate", "--a", "3,2,2,1", "--b", "0,2,0,1"])
    assert payload["valid"] is False
    assert payload["violations"] == [
        {"index": 1, "rule": "equal_then_b_zero"}
    ]
    assert payload["indeterminate"] == [3]
    assert payload["last_checked"] == 3


def test_validate_invalid_still_exits_zero(capsys):
    assert run(["validate", "--a", "5,2,2", "--b", "1,2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False


def test_validate_with_terminal_digit(capsys):
    payload = run_json(
        capsys,
        ["validate", "--a", "1,2", "--b", "1,1,0", "--terminal", "rat:2"],
    )
    assert payload["valid"] is True


def test_validate_text_lists_each_violation(capsys):
    code = run(["validate", "--a", "3,2,2,1,0", "--b", "0,2,3,1,0", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == (
        "valid: false\n"
        "violation index=2 rule=a_less_than_b\n"
        "violation index=3 rule=equal_then_b_zero\n"
        "violation index=4 rule=a_below_one\n"
        "indeterminate index=4\n"
        "last_checked: 4\n"
    )


def test_validate_shape_error(capsys):
    assert run(["validate", "--a", "1,2", "--b", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["eval", "--a", "", "--b", ""], "eval needs at least one digit pair"),
    (["validate", "--a", "1", "--b", "1,0", "--terminal", "ratfunc:1/1"],
     "--terminal: expected a rat: or alg: literal, got 'ratfunc:1/1'"),
])
def test_digit_command_input_errors(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["render", "validate"])
def test_preperiod_without_period_is_exit_2(capsys, command):
    code = run([command, "--a", "1,1", "--b", "1,1", "--preperiod", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --preperiod needs --period\n"


# -- recover ---------------------------------------------------------------------


def test_recover_pure_json(capsys):
    payload = run_json(
        capsys, ["recover", "--period-a", "1", "--period-b", "1"]
    )
    assert payload["min_poly"] == [1, -1, -1, -1]
    assert payload["beta_expr"] == "1,-1,0/1"
    assert payload["method"] == "pure"
    assert payload["alpha_dec"] == "1.839286755214"
    lo, hi = payload["interval"]
    assert "/" in lo and "/" in hi


def test_recover_eventual_json(capsys):
    payload = run_json(
        capsys,
        ["recover", "--preperiod-a", "2", "--preperiod-b", "2",
         "--period-a", "2,3", "--period-b", "0,0"],
    )
    assert payload["min_poly"] == [1, -1, -2, -1]
    assert payload["method"] == "eventual"
    assert payload["alpha_dec"] == "2.147899035705"
    assert payload["beta_dec"] == "2.465571231877"


def test_recover_text_pinned(capsys):
    code = run(["recover", "--period-a", "1", "--period-b", "1", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == (
        "min_poly: 1,-1,-1,-1\n"
        "interval: (-7/1053, 3881/1053)\n"
        "beta_expr: 1,-1,0/1\n"
        "alpha_dec: 1.839286755214\n"
        "beta_dec: 1.543689012692\n"
        "method: pure\n"
    )
    code = run(["recover", "--preperiod-a", "2", "--preperiod-b", "2",
                "--period-a", "2,3", "--period-b", "0,0", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out.endswith("\nmethod: eventual\n")


def test_recover_pure_doubles_the_horizon(capsys):
    # the horizon-8 ball around alpha_8 holds more than one root here
    code = run(["recover", "--period-a", "1,3", "--period-b", "0,0"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"alpha_dec":"1.246979603717","beta_dec":"0.307978528370",'
        '"beta_expr":"-3,3,1/1,-1","interval":["71148837934/57126242257",'
        '"71321626006/57126242257"],"method":"pure","min_poly":[1,1,-2,-1]}\n'
    )


def test_recover_rejects_invalid_digits(capsys):
    assert run(["recover", "--period-a", "1,2", "--period-b", "1,3"]) == 2
    capsys.readouterr()


def test_recover_requires_period(capsys):
    assert run(["recover", "--period-a", "", "--period-b", ""]) == 2
    capsys.readouterr()


# -- scan ------------------------------------------------------------------------


def test_scan_ldjson_records(capsys):
    records = run_lines(
        capsys,
        ["scan", "--c2=-1:-1", "--c1=-1:-1", "--c0=-1:-1",
         "--horizon", "16"],
    )
    assert len(records) == 4  # four default beta candidates
    by_beta = {record["beta_expr"]: record for record in records}
    tribonacci = by_beta["1,-1,0/1"]
    assert tribonacci["status"] == "periodic"
    assert tribonacci["preperiod"] == 0
    assert tribonacci["period"] == 1
    assert tribonacci["min_poly"] == [1, -1, -1, -1]
    assert tribonacci["digits_preview"]["a"] == [1] * 8
    for record in records:
        assert set(record) == {
            "min_poly", "interval", "beta_expr", "status",
            "preperiod", "period", "digits_preview",
        }


def test_scan_custom_beta(capsys):
    records = run_lines(
        capsys,
        ["scan", "--c2=-1:-1", "--c1", "0:0", "--c0=-1:-1",
         "--beta", "ratfunc:1/1,0", "--horizon", "12"],
    )
    assert len(records) == 1
    assert records[0]["min_poly"] == [1, -1, 0, -1]
    assert records[0]["status"] == "periodic"
    assert records[0]["period"] == 1


def test_scan_pool_prints_the_serial_bytes(monkeypatch, capsys):
    # --jobs 2 starts a real pool of two workers, also on a one-CPU host.
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["scan", "--c2=-1:1", "--c1=-1:1", "--c0=-1:1", "--horizon", "16"]
    pooled = _stdout(capsys, argv + ["--jobs", "2"])
    assert started == [2]
    assert pooled == _stdout(capsys, argv + ["--jobs", "1"])
    assert started == [2]
    polys = {tuple(json.loads(line)["min_poly"]) for line in pooled.splitlines()}
    assert len(polys) == 27  # every cubic of the box has its records


def test_printed_beta_exprs_parse_back(capsys):
    # The zero numerator of ratfunc:0/1 is printed as 0, not as nothing.
    records = run_lines(
        capsys,
        ["scan", "--c2=0:0", "--c1=0:0", "--c0=-2:-2",
         "--beta", "ratfunc:0/1", "--beta", "ratfunc:1,0,0/1"],
    )
    recovered = run_json(capsys, ["recover", "--period-a", "2,3",
                                  "--period-b", "0,0"])
    exprs = [record["beta_expr"] for record in records]
    assert exprs == ["0/1", "1,0,0/1"]
    for expr in exprs + [recovered["beta_expr"]]:
        assert isinstance(literals.parse_number("ratfunc:" + expr),
                          literals.RatFunc)


def test_scan_bad_range(capsys):
    assert run(["scan", "--c2", "2:-2"]) == 2
    assert run(["scan", "--c2", "x:2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["scan", "--c0=0:99999999"],
    ["scan", "--c2=0:1", "--c1=0:0", "--c0=0:" + "9" * 4000],
], ids=["over", "huge-ends"])
def test_scan_box_over_budget_is_exit_3(monkeypatch, capsys, argv):
    # A box of more than 10**5 polynomials is refused before any list of
    # them is built; a box of exactly 10**5 still reaches the scanner.
    calls = []
    monkeypatch.setattr(cli, "conjecture_scan",
                        lambda *args, **kwargs: calls.append(args) or [])
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the scan box holds more than 100000 polynomials\n"
    assert calls == []
    assert run(["scan", "--c2=0:0", "--c1=0:99", "--c0=0:999"]) == 0
    assert len(calls) == 1


def test_unprintable_scan_record_is_exit_3_with_empty_stdout(capsys):
    # beta = (10**L - 1) alpha on x^3 - 2, L the digit limit: its first b
    # digit has L + 1 digits.  The printable alpha^2 record before it is
    # not printed either.
    nines = "9" * sys.get_int_max_str_digits()
    code = run(["scan", "--c2=0:0", "--c1=0:0", "--c0=-2:-2", "--beta",
                "ratfunc:1,0,0/1", "--beta", f"ratfunc:{nines},0/1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        f"error: an integer in the output has more than {len(nines)} decimal "
        f"digits, Python's limit for integer-to-string conversion\n")


def test_scan_horizon_over_budget_is_exit_3(monkeypatch, capsys):
    # A horizon of more than 65,536 steps is refused before any polynomial
    # is screened; 65,536 itself runs, here on x**3, which is reducible.
    screened = []
    monkeypatch.setattr(recovery, "_scan_single_poly",
                        lambda task: screened.append(task) or [])
    box = ["--c2=0:0", "--c1=0:0", "--c0=0:0"]
    assert run(["scan", *box, "--horizon", "65537"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the scan horizon is more than 65536 steps\n"
    assert screened == []
    monkeypatch.undo()
    assert run(["scan", *box, "--horizon", "65536"]) == 0
    assert '"status":"skipped-reducible"' in capsys.readouterr().out


_LONG = "x" * 5000


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "1," + _LONG, "--b", "1,1"],
    ["expand", "--alpha", _LONG, "--beta", "rat:1"],
    ["expand", "--alpha", "rat:1", "--beta", "ratfunc:1/1/" + _LONG],
    ["expand", "--alpha", "alg:1,0,-2@1,2," + _LONG, "--beta", "rat:1"],
    ["scan", "--c2=" + _LONG],
    ["expand", "--alpha", "rat:1", "--beta", "dec:" + _LONG],
    [_LONG],
    ["eval", "--a", "1", "--b", "1", "--format", _LONG],
    ["render", "--a", "1", "--b", "1", "--style", _LONG],
    ["eval", "--a", "1", "--b", "1", "--" + _LONG],
], ids=["eval-digit", "expand-prefix", "ratfunc", "alg-interval", "scan-range",
        "dec", "command", "format-choice", "style-choice", "unknown-option"])
def test_bad_long_token_is_quoted_short(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "xxxxxxxxxxxxxxxx'..." in err
    assert len(err.encode()) < 300


def test_closed_stdout_is_one_error_line_and_exit_3():
    # The box prints about 133 KB, more than a pipe holds, so the scan is
    # still writing when the reader closes the pipe after one byte.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bcf.cli", "scan", "--c2=-3:3", "--c1=-3:3",
         "--c0=-3:3", "--horizon", "8"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


# -- usage errors and help ---------------------------------------------------------


def test_help_is_exit_0(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli._COMMANDS)
    # Each subcommand's help names each of its flags and that flag's help
    # text, however argparse wraps the lines.
    for name, (_, _, flags) in cli._COMMANDS.items():
        assert run([name, "-h"]) == 0
        out = "".join(capsys.readouterr().out.split())
        for flag, keywords in flags:
            assert flag in out, (name, flag)
            assert "".join(keywords.get("help", "").split()) in out, (name, flag)


# -- argv fuzz ---------------------------------------------------------------------


def _csv(values):
    return ",".join(map(str, values))


def _mostly(good, bad):
    """good for nine of ten draws, else bad (Hypothesis favours small k)."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


def _count(lo, hi):
    return _mostly(st.integers(lo, hi), st.integers(-1, 0)).map(str)


_SMALL = st.integers(-3, 5)
_COEFFS = st.lists(_SMALL, min_size=1, max_size=4).map(_csv)
_JUNK = st.sampled_from(
    ["", "x", "--x", "rat:", "alg:1@", "dec:-", "rat:1/0", "1,,2", "é"]
)
_RATFUNC = st.builds("ratfunc:{}/{}".format, _COEFFS, _COEFFS)
_HUGE = "9" * sys.get_int_max_str_digits()  # the longest int a literal takes
# An interval end: an int or p/q, else a decimal, an exponent form or an
# int at or past the digit limit.
_END = _mostly(
    _SMALL.map(str) | st.builds("{}/{}".format, _SMALL, st.integers(1, 4)),
    st.sampled_from(["1.41", "-0.5", "1e-1", "1e5000", "-1e999999", _HUGE,
                     "-" + _HUGE, "1/" + _HUGE, _HUGE + "9"]),
)
_LITERAL = _mostly(
    st.one_of(
        st.builds("rat:{}/{}".format, st.integers(1, 30), st.integers(1, 9)),
        st.builds("dec:{}.{}".format, st.integers(0, 3), st.integers(0, 99999)),
        st.sampled_from(["alg:1,-1,-1,-1@1,2", "alg:1,0,-2@1,3/2"]),
        st.builds("alg:{}@{},{}".format, _COEFFS, _END, _END),
        _RATFUNC,
    ),
    _JUNK,
)
# An expand side: any literal, or a dec: literal in plain or exponent form,
# or with its digits or its exponent at or past the digit limit; a dec: on
# one side and an alg: or ratfunc: on the other meet the pairing refusal.
_LIMIT = sys.get_int_max_str_digits()
_EXPAND_LITERAL = _LITERAL | st.one_of(
    st.builds("dec:{}e{}".format, st.integers(-9, 999), st.integers(-6, 3)),
    st.sampled_from([f"dec:{_HUGE}", f"dec:{_HUGE}9", f"dec:0.{_HUGE}",
                     f"dec:1e{_LIMIT}", f"dec:1e-{_LIMIT}", f"dec:1e{_LIMIT + 1}",
                     "dec:1E+2", "dec:0", "dec:inf", "dec:nan"]),
)
# A scan beta, sometimes with a coefficient at the digit limit, whose
# preview digits may be too long to print.
_SCAN_BETA = _mostly(
    _RATFUNC,
    _LITERAL | st.sampled_from([f"ratfunc:{_HUGE},0/1", f"ratfunc:1,0,0/{_HUGE}"]),
)
_RANGE = _mostly(
    st.builds(lambda lo, width: f"{lo}:{lo + width}", _SMALL, st.integers(0, 2)),
    st.sampled_from(["2:1", "1", "a:b"]),
)
_FORMAT = _mostly(st.sampled_from(["json", "text"]), st.just("xml"))
_DIGITS = "digits"  # a digit list of the argv's common length, at most 6


# Each subcommand's options as (flag, values, how often given): "always" for
# the options that bound the work (--terms, the scan box, --horizon),
# "mostly" for the required ones, else half the time.
_GRAMMAR = {
    "expand": [
        ("--alpha", _EXPAND_LITERAL, "mostly"),
        ("--beta", _EXPAND_LITERAL, "mostly"),
        ("--terms", _count(1, 40), "always"), ("--digits", _count(1, 30), ""),
        ("--format", _FORMAT, ""),
    ],
    "eval": [
        ("--a", _DIGITS, "mostly"), ("--b", _DIGITS, "mostly"),
        ("--n", _count(0, 8), ""), ("--digits", _count(1, 30), ""),
        ("--format", _FORMAT, ""),
    ],
    "render": [
        ("--a", _DIGITS, "mostly"), ("--b", _DIGITS, "mostly"),
        ("--depth", _count(0, 6), ""),
        ("--style", _mostly(st.sampled_from(["ascii", "latex"]), st.just("svg")), ""),
        ("--format", _FORMAT, ""), ("--preperiod", _count(0, 3), ""),
        ("--period", _count(1, 3), ""),
    ],
    "validate": [
        ("--a", _DIGITS, "mostly"), ("--b", _DIGITS, "mostly"),
        ("--preperiod", _count(0, 3), ""), ("--period", _count(1, 3), ""),
        ("--terminal", _LITERAL, ""), ("--format", _FORMAT, ""),
    ],
    "recover": [
        ("--period-a", _DIGITS, "mostly"), ("--period-b", _DIGITS, "mostly"),
        ("--preperiod-a", _DIGITS, ""), ("--preperiod-b", _DIGITS, ""),
        ("--digits", _count(1, 30), ""), ("--format", _FORMAT, ""),
    ],
    "scan": [
        ("--c2", _RANGE, "always"), ("--c1", _RANGE, "always"),
        ("--c0", _RANGE, "always"), ("--beta", _SCAN_BETA, ""),
        ("--horizon", _count(1, 12), "always"), ("--jobs", _count(1, 1), ""),
        ("--preview", _count(1, 8), ""),
    ],
}


@st.composite
def _argvs(draw):
    command = draw(_mostly(st.sampled_from(sorted(_GRAMMAR)), _JUNK))
    length = draw(st.integers(1, 6))
    digits = _mostly(
        st.lists(_mostly(st.integers(1, 3), st.just(0)), min_size=length,
                 max_size=length).map(_csv),
        _JUNK,
    )
    options = []
    for flag, values, given in _GRAMMAR.get(command, ()):
        if given != "always" and draw(st.integers(0, 9)) >= (9 if given else 5):
            continue
        value = draw(digits if values is _DIGITS else values)
        if draw(st.integers(0, 7)) < 7:
            options.append([f"{flag}={value}"])
        else:
            options.append([flag, value])
    argv = [command] + [t for option in draw(st.permutations(options)) for t in option]
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))), draw(_LITERAL))
    return argv


# Tokens outside the usual argv: an abbreviation, '--', help, a removed flag,
# a separate value that starts with '-', an explicitly empty value, an empty
# token, a flag where a value belongs, a '--' value.
_ARGV_JUNK = st.sampled_from([
    ["--alp"], ["--"], ["-h"], ["--help"], ["--approx"], ["--c2", "-3:1"],
    ["--terms=-3"], ["--c2="], [""], ["--a", "--b"], ["--beta=--"],
])


@st.composite
def _argvs_with_junk(draw):
    argv = draw(_argvs())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, max(1, len(argv))))
        argv[at:at] = draw(_ARGV_JUNK)
    return argv


@given(argv=st.one_of(_argvs(), _argvs_with_junk()))
@settings(max_examples=300, deadline=None)
def test_argv_fuzz_ends_in_one_line_and_a_known_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert out.getvalue() == "", argv


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# One argv of each kind of usage error, and the line it prints: argparse's
# wording, which _parse keeps.  A missing or refused value is reported at
# its token, then the missing required flags, then the unrecognized tokens.
USAGE_ERRORS = {
    "unknown-flag": (["scan", "--no-such-option"],
                     "unrecognized arguments: --no-such-option"),
    "abbreviation": (["expand", "--alp=rat:1", "--beta=rat:1/2", "--alpha=rat:1"],
                     "unrecognized arguments: --alp=rat:1"),
    "once-ambiguous": (["scan", "--c"], "unrecognized arguments: --c"),
    "missing-value": (["eval", "--a", "--b", "1"],
                      "argument --a: expected one argument"),
    "missing-last-value": (["eval", "--a=1", "--b"],
                           "argument --b: expected one argument"),
    "double-dash-value": (["eval", "--a=--", "--b=1"],
                          "argument --a: expected one argument"),
    "removed-flag": (["expand", "--alpha=dec:1.5", "--beta=dec:2", "--approx"],
                     "unrecognized arguments: --approx"),
    "refused-int": (["expand", "--alph=rat:1", "--beta=rat:1", "--terms=-3"],
                    "argument --terms: expected a positive integer, got -3"),
    "zero-terms": (["expand", "--alpha", "rat:1", "--beta", "rat:1", "--terms", "0"],
                   "argument --terms: expected a positive integer, got 0"),
    "negative-depth": (["render", "--a", "1", "--b", "1", "--depth", "-1"],
                       "argument --depth: expected a nonnegative integer, got -1"),
    "zero-horizon": (["scan", "--horizon", "0"],
                     "argument --horizon: expected a positive integer, got 0"),
    "not-an-int": (["eval", "--a", "1", "--b", "1", "--n", "x"],
                   "argument --n: expected an integer, got 'x'"),
    "choice": (["eval", "--a=1", "--b=1", "--format=xml"],
               "argument --format: invalid choice: 'xml' (choose from 'json', "
               "'text')"),
    "value-before-required": (["render", "--style", "svg", "--bogus"],
                              "argument --style: invalid choice: 'svg' (choose "
                              "from 'ascii', 'latex')"),
    "required": (["recover", "--period-a=1"],
                 "the following arguments are required: --period-b"),
    "required-all": (["expand"],
                     "the following arguments are required: --alpha, --beta"),
    "required-before-unrecognized": (["validate", "--b=1", "7"],
                                     "the following arguments are required: --a"),
    "unrecognized": (["eval", "--a", "1", "--b", "1", "7", "-x"],
                     "unrecognized arguments: 7 -x"),
    "long-unrecognized": (["eval", "--a=1", "--b=1", "--" + _LONG],
                          "unrecognized arguments: '--xxxxxxxxxxxxxxxxxx'..."),
    "sevens": (["eval", "--a", "1", "--b", "1"] + ["7"] * 200,
               "unrecognized arguments: " + "7 " * 108 + "..."),
    "double-dash": (["eval", "--a=1", "--b=1", "--", "7"],
                    "unrecognized arguments: -- 7"),
    "double-dash-then-flags": (["eval", "--a=1", "--", "--b=1", "--n=x"],
                               "the following arguments are required: --b"),
    "unknown-command": (["no-such-command"],
                        "argument command: invalid choice: 'no-such-command' "
                        "(choose from 'expand', 'eval', 'render', 'validate', "
                        "'recover', 'scan')"),
    "no-command": ([], "the following arguments are required: command"),
    "option-like-command": (["--version"],
                            "the following arguments are required: command"),
}


@pytest.mark.parametrize("kind", list(USAGE_ERRORS))
def test_usage_error_line(kind):
    argv, line = USAGE_ERRORS[kind]
    assert _outcome(argv) == (2, "", f"error: {line}\n")


# --n is the one nonnegative flag whose range USAGE_ERRORS does not probe.
@pytest.mark.parametrize("argv, message", [
    (["eval", "--a", "1", "--b", "1", "--n", "-1"],
     "argument --n: expected a nonnegative integer, got -1"),
], ids=["n"])
def test_integer_option_out_of_range_is_exit_2(argv, message):
    assert _outcome(argv) == (2, "", f"error: {message}\n")


def _integer_flag_argvs():
    """Each int-typed flag of each subcommand, and each scan range, given
    a value with an '_', a blank or a non-ASCII digit, which int() takes
    and number literals refuse, with the line it prints."""
    for name, (_, _, flags) in cli._COMMANDS.items():
        required = [f"{flag}=1" for flag, keywords in flags
                    if keywords.get("required")]
        for flag, keywords in flags:
            for bad in ("1_0", " 1", "١"):
                if "type" in keywords:
                    yield pytest.param(
                        [name, *required, f"{flag}={bad}"],
                        f"argument {flag}: expected an integer, got {bad!r}",
                        id=f"{name} {flag}={bad}")
                elif flag in ("--c2", "--c1", "--c0"):
                    text = f"{bad}:{bad}"
                    yield pytest.param(
                        [name, f"{flag}={text}"],
                        f"{flag}: expected integer endpoints, got {text!r}",
                        id=f"{name} {flag}={text}")


@pytest.mark.parametrize("argv, line", _integer_flag_argvs())
def test_integer_flags_take_the_literal_rule(argv, line):
    assert _outcome(argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv, expected", [
    (["expand", "--alpha=rat:1", "--beta", "rat:2", "--terms=3", "--terms", "5"],
     dict(alpha="rat:1", beta="rat:2", terms=5, digits=12, format="json")),
    (["scan", "--beta", "ratfunc:1/1", "--beta=ratfunc:1,0/1", "--c2=0:0"],
     dict(c2="0:0", c1="-2:2", c0="-2:2", beta=["ratfunc:1/1", "ratfunc:1,0/1"],
          horizon=64, jobs=None, preview=8)),
    (["recover", "--period-b=1", "--period-a", "", "--format=text"],
     dict(period_a="", period_b="1", preperiod_a="", preperiod_b="", digits=12,
          format="text")),
    (["render", "--a=1", "--b=1", "--depth", "0"],
     dict(a="1", b="1", depth=0, style="ascii", format="text", preperiod=None,
          period=None)),
    (["scan", "--c2", "-3:1", "-h", "--horizon=0"], None),
    (["scan", "--c2", "-3:1", "--beta", "-x", "--jobs", "+1"],
     dict(c2="-3:1", c1="-2:2", c0="-2:2", beta=["-x"], horizon=64, jobs=1,
          preview=8)),
], ids=["repeated-store", "append", "empty-value",
        "zero", "help", "dash-value"])
def test_parse_reads_each_flag_form(argv, expected):
    args = cli._parse(argv[0], argv[1:])
    if expected is None:
        assert args is None
    else:
        assert vars(args) == dict(expected, handler=cli._COMMANDS[argv[0]][0])


def _explicit_dash_argvs():
    """Each flag of each subcommand given as --flag=--, with every other
    required flag given a value, and the line argparse prints for that flag
    without a value."""
    for name, (_, _, flags) in cli._COMMANDS.items():
        for flag, _ in flags:
            others = [f"{other}=1" for other, more in flags
                      if more.get("required") and other != flag]
            yield ([name, *others, f"{flag}=--"],
                   f"error: argument {flag}: expected one argument\n")


@pytest.mark.parametrize("argv, line", [
    *_explicit_dash_argvs(),
    (["scan", "--beta=ratfunc:1/1", "--beta=--"],
     "error: argument --beta: expected one argument\n"),
    (["expand", "--alp=--", "--beta=rat:1"],
     "error: the following arguments are required: --alpha\n"),
], ids=repr)
def test_explicit_double_dash_value_is_a_usage_error(argv, line):
    # A value of '--' counts as missing, with argparse's line for a flag
    # given no value; '--alp' is no flag, so there --alpha is missing.
    assert _outcome(argv) == (2, "", line)


def test_explicit_double_dash_value_in_a_child_process():
    proc = subprocess.run(
        [sys.executable, "-m", "bcf.cli", "eval", "--a=--", "--b=1"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: argument --a: expected one argument\n")


# sha256 of help as argparse formats it at 60 and 120 columns: the bytes
# of bcf -h from when argparse also parsed every argv, and of bcf expand -h
# since expand lost its one flag that took no value.
HELP_SHA256 = {
    (("-h",), "60"):
        "652a73efb2fd8f1b880e500eebf7e1aaf25763217667047c564a85f083b34d91",
    (("-h",), "120"):
        "00576d531fda069c19e9acc7a6a217f706d5d19c50d23c583ada952e066ed4f9",
    (("expand", "-h"), "60"):
        "c1f0532dcd2782fc4239c0fc83652f4c20a696f4f07e77d3c543013fd838024d",
    (("expand", "-h"), "120"):
        "928dfeb6a4ba9cc561618fd5d053596450dda2b77d4b9b335c72d9d05a9bd4d3",
}


@pytest.mark.parametrize("argv, columns", list(HELP_SHA256), ids=repr)
def test_help_follows_the_terminal_width(monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err = _outcome(list(argv))
    assert (code, err) == (0, "")
    assert max(map(len, out.splitlines())) <= int(columns)
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv, columns]


# -- eval prints the forward route's bytes ---------------------------------------


@st.composite
def eval_inputs(draw):
    rng = draw(st.randoms(use_true_random=False))
    a, b = random_valid_digits(rng, draw(st.integers(1, 400)))
    n = draw(st.integers(0, len(a) - 1))
    return a, b, n, draw(st.sampled_from(["json", "text"]))


@given(eval_inputs())
@settings(max_examples=80, deadline=None)
def test_eval_prints_the_forward_convergent(inputs):
    a, b, n, fmt = inputs
    triple = convergent((a, b), n)
    record = {
        "n": n,
        "A": str(triple.A),
        "B": str(triple.B),
        "C": str(triple.C),
        "alpha": literals.fraction_str(triple.alpha),
        "beta": literals.fraction_str(triple.beta),
        "alpha_dec": _reference_decimal(triple.alpha, 12)[1],
        "beta_dec": _reference_decimal(triple.beta, 12)[1],
    }
    if fmt == "json":
        want = json.dumps(record, sort_keys=True, separators=(",", ":"))
    else:
        want = " ".join(f"{key}={value}" for key, value in record.items())
    argv = ["eval", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)),
            "--n", str(n), "--format", fmt]
    assert _outcome(argv) == (0, want + "\n", "")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_eval_of_a_long_random_pair_is_output_too_large(fmt):
    a, b = random_valid_digits(random.Random(9000), 9000)
    argv = ["eval", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)),
            "--format", fmt]
    code, out, err = _outcome(argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: an integer in the output has more than "
        f"{sys.get_int_max_str_digits()} decimal digits, Python's limit "
        "for integer-to-string conversion\n"
    )
