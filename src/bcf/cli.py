"""Command-line front end: expand, eval, render, validate, recover, scan.

Each subcommand is declared once, in the plain table _COMMANDS: its
handler, its help line and each flag's add_argument keywords.  One parser,
_parse, reads every argv off that table in one pass: exact long flags,
each value given as --flag=value or as the next token (one that does not
start with '--'), with '--' ending the flags.  It raises each usage error
as a ParseError in argparse's words, and returns None for -h or --help;
only then does _help load argparse, to format the help from the same
table.

All commands emit deterministic JSON (sorted keys, compact separators) on
standard output unless ``--format text`` selects the plain rendering; the
scanner emits one JSON record per line.  _parse reads each integer flag,
and each command's one handler the rest of its text, before it calls the
library (which checks the values itself) and prints last: every integer
in a flag value, a literal, a digit list or a scan range is read by the
one reader in literals.  Each flag that takes a number literal names the
kinds it takes, and _literal refuses any other.  Exit codes:
0 for success (including a completed validation that found violations);
otherwise the error's class decides the code, whether the parsing or the
library raises it: 2 for every InputError (bad usage, unparsable or
refused literals, a ratfunc: beta with a pole at alpha, malformed or
inadmissible digit pairs, nonpositive inputs, alpha and beta from
different fields), 3 for computation errors (degenerate recovery
systems, an integer too long to print, more --digits than Python's
integer-to-string limit, a render or a scan box over its budget, a zero
division) and for a standard output closed before the output ended.
"""

import json
import math
import os
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from . import _kernels
from .errors import (
    BcfError,
    IndexOutOfRange,
    InputError,
    InvalidSequence,
    NonPositiveInput,
    OutputTooLarge,
    ParseError,
)
from .expansion import bcf_expand
from .fields import _check_places, _rounded_decimal
from .literals import (
    RatFunc,
    _check_characters,
    _excerpt,
    _ints,
    _parse_int,
    bounded_str,
    fraction_str,
    parse_digits,
    parse_number,
)
from .recovery import conjecture_scan, recover_cubic_eventual
from .sequences import SequencePair
from .treeval import convergent_matrix, render_tree
from .validation import validate

_SCAN_BUDGET = 10**5  # polynomials in a scan box; -23:22 cubed is 97,336
_HORIZON_BUDGET = 65_536  # steps of each scan expansion

_DEFAULT_SCAN_BETAS = (
    RatFunc((1, 0, 0), (1,)),   # alpha^2
    RatFunc((1, -1, 0), (1,)),  # alpha^2 - alpha
    RatFunc((1, 1, 0), (1,)),   # alpha^2 + alpha
    RatFunc((1, 1), (1,)),      # alpha + 1
)


# The one JSON writer: sorted keys, compact separators.
_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _int_at_least(bound):
    """add_argument type for an integer >= bound, which is 0 or 1."""
    kind = "positive" if bound == 1 else "nonnegative"

    def parse(text):
        _check_characters(text, 0, "<int>")
        value = _parse_int(text, 0, "<int>")
        if value < bound:
            raise ValueError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _exact_str(value):
    """Render an exact number, a Fraction or a field element, as text:
    rationals as p/q."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if value.is_rational():
        return fraction_str(value.as_fraction())
    return bounded_str(value, repr)


# One loop renders every convergent record: expand's, and eval's one with
# beta_dec.  Each triple has A, B >= 0 and C >= 1: digits are >= 0, eval
# refuses C = 0, and expand's C starts at 1 and never falls, nor do A and B,
# as its a-digits past the first are >= 1.  Every integer a record prints is
# A, B or C, reduced or split into whole and fraction parts under
# _check_places, so if the last triple prints, every record does.  Its largest
# integer is tested first, by str() only past 3.32 L bits (10**L has more, L
# Python's digit limit), so each record renders each integer once.  Both
# ratios share one gcd, h = gcd(A*B, C): gcd(A, C) divides A*B and C, so it
# divides h, and h divides C, so gcd(A, C) = gcd(h, A), and likewise for B;
# gcd(1, x) returns at once, and a ratio in lowest terms reuses the rendered
# integers.  Fields are digits, '/' and '.', so none needs JSON escaping.
def _convergent_records(triples, digits, text, n=0, beta_dec=False):
    """Render a list of triples (A, B, C), convergents n, n + 1, ..., as text
    lines or JSON objects; with beta_dec, each also carries B/C rounded."""
    top = max(triples[-1]) if triples else 0
    if top.bit_length() > 3.32 * (sys.get_int_max_str_digits() or math.inf):
        bounded_str(top)
    records = []
    for A, B, C in triples:
        a, b, c = f"{A}", f"{B}", f"{C}"
        alpha_dec = _rounded_decimal(A, C, digits)[1]
        h = gcd(A * B, C)
        ga, gb = gcd(h, A), gcd(h, B)
        alpha = f"{a}/{c}" if ga == 1 else f"{A // ga}/{C // ga}"
        beta = f"{b}/{c}" if gb == 1 else f"{B // gb}/{C // gb}"
        more = ""
        if beta_dec:
            more = _rounded_decimal(B, C, digits)[1]
            more = f" beta_dec={more}" if text else f',"beta_dec":"{more}"'
        records.append(
            f"n={n} A={a} B={b} C={c} alpha={alpha} beta={beta} "
            f"alpha_dec={alpha_dec}{more}" if text else
            f'{{"A":"{a}","B":"{b}","C":"{c}","alpha":"{alpha}",'
            f'"alpha_dec":"{alpha_dec}","beta":"{beta}"{more},"n":{n}}}'
        )
        n += 1
    return records


# -- expand ------------------------------------------------------------------


def _literal(text, flag, kinds):
    """parse_number(text) of a kind the flag takes, each refusal naming the
    flag: the one place where the CLI refuses a literal's kind."""
    if text.partition(":")[0] not in kinds:
        raise ParseError(
            f"{flag}: expected a {' or '.join(k + ':' for k in kinds)} "
            f"literal, got {_excerpt(text)}"
        )
    try:
        return parse_number(text)
    except InputError as exc:
        raise type(exc)(f"{flag}: {exc}") from None


def _expand(args):
    _check_places(args.digits)
    # A dec: literal on either side makes a box, whose corners must be rational.
    box = args.alpha.startswith("dec:") or args.beta.startswith("dec:")
    alpha = _literal(args.alpha, "--alpha", ("rat", "dec") if box else ("rat", "alg"))
    beta = _literal(args.beta, "--beta",
                    ("rat", "dec") if box else ("rat", "alg", "ratfunc"))
    if isinstance(beta, RatFunc):
        try:
            beta = beta.evaluate(alpha)
        except ZeroDivisionError as exc:
            raise ParseError(f"--beta: {exc}") from None
    # Under the digit limit L record 7L + 2 cannot print, so no more pairs are
    # expanded: a-digits past the first are >= 1, so C_n >= C_(n-1) + C_(n-3)
    # >= rho**(n - 2), rho the real root of x**3 = x**2 + 1, log10(rho) > 1/7.
    limit = sys.get_int_max_str_digits()
    cap = 7 * limit + 3 if limit else math.inf
    pair = bcf_expand(alpha, beta, max_terms=min(args.terms, cap))
    text = args.format == "text"
    records = _convergent_records(
        list(_kernels.convergent_triples(pair.a, pair.b, len(pair.a) - 1)),
        args.digits, text,
    )
    if not text:
        print(f'{{"a":{_dumps(pair.a)},"b":{_dumps(pair.b)},'
              f'"convergents":[{",".join(records)}],'
              f'"period":{_dumps(pair.period)},'
              f'"preperiod":{_dumps(pair.preperiod)},'
              f'"terminated":{_dumps(pair.terminated)}}}')
        return
    lines = [
        "a: " + ",".join(str(d) for d in pair.a),
        "b: " + ",".join(str(d) for d in pair.b),
        f"terminated: {'true' if pair.terminated else 'false'}",
    ]
    if pair.terminal is not None:
        lines.append(f"terminal: {_exact_str(pair.terminal)}")
    if pair.periodicity is not None:
        lines.append(f"preperiod: {pair.preperiod}")
        lines.append(f"period: {pair.period}")
    print("\n".join(lines + records))


# -- eval --------------------------------------------------------------------


def _eval(args):
    _check_places(args.digits)
    pair = _digit_pair(args)
    if not pair.a:
        raise IndexOutOfRange("eval needs at least one digit pair")
    n = args.n if args.n is not None else len(pair.a) - 1
    if n >= len(pair.a):
        raise IndexOutOfRange(f"n must lie in 0..{len(pair.a) - 1}, got {n}")
    triple = convergent_matrix(pair, n)
    if not triple.C:
        raise ZeroDivisionError(
            f"C_n = 0 at n = {triple.n}, so A/C and B/C are undefined"
        )
    (record,) = _convergent_records(
        [(triple.A, triple.B, triple.C)], args.digits,
        args.format == "text", triple.n, beta_dec=True,
    )
    print(record)


# -- render ------------------------------------------------------------------


def _digit_pair(args, flags=("--a", "--b")):
    """The SequencePair of the digit lists that flags give, marked by any
    --terminal or --period: the CLI's one digit reader.  A list's refusal
    names its flag, a length mismatch both, and a mark's keeps its words."""
    lists = []
    for flag in flags:
        try:
            lists.append(parse_digits(getattr(args, flag[2:].replace("-", "_"))))
        except InputError as exc:
            raise type(exc)(f"{flag}: {exc}") from None
    periodicity = terminal = None
    if getattr(args, "period", None) is not None:
        periodicity = (args.preperiod or 0, args.period)
    elif getattr(args, "preperiod", None) is not None:
        raise ParseError("--preperiod needs --period")
    if getattr(args, "terminal", None):
        terminal = _literal(args.terminal, "--terminal", ("rat", "alg"))
        if not terminal > 0:  # as is every terminal that an expansion gives
            raise NonPositiveInput(f"--terminal: expected a positive value, "
                                   f"got {_excerpt(args.terminal)}")
    try:
        pair = SequencePair(*lists, terminal)
    except InvalidSequence as exc:  # a negative digit, or lengths that differ
        names = [f for f, d in zip(flags, lists) if min(d, default=0) < 0][:1]
        raise InvalidSequence(f"{', '.join(names or flags)}: {exc}") from None
    return pair if periodicity is None else pair._replace(periodicity=periodicity)


def _render(args):
    pair = _digit_pair(args)
    pair.digit_a(args.depth)
    pair.digit_b(args.depth)
    text = render_tree(pair, args.depth, format=args.style)
    if args.format == "text":
        print(text)
        return
    # A blank line parts the ascii towers, a newline the latex ones.
    alpha, beta = text.split("\n\n" if args.style == "ascii" else "\n", 1)
    print(_dumps({"alpha": alpha, "beta": beta}))


# -- validate ----------------------------------------------------------------


def _validate(args):
    report = validate(_digit_pair(args))
    if args.format == "json":
        print(_dumps({
            "valid": report.valid,
            "violations": [
                {"index": index, "rule": rule}
                for index, rule in report.violations
            ],
            "indeterminate": list(report.indeterminate),
            "last_checked": report.last_checked,
        }))
        return
    lines = [f"valid: {'true' if report.valid else 'false'}"]
    for index, rule in report.violations:
        lines.append(f"violation index={index} rule={rule}")
    for index in report.indeterminate:
        lines.append(f"indeterminate index={index}")
    lines.append(f"last_checked: {report.last_checked}")
    print("\n".join(lines))


# -- recover -----------------------------------------------------------------


def _recover(args):
    _check_places(args.digits)
    period = _digit_pair(args, ("--period-a", "--period-b"))
    preperiod = _digit_pair(args, ("--preperiod-a", "--preperiod-b"))
    result = recover_cubic_eventual(preperiod, period)
    lo, hi = (fraction_str(x) for x in result.field.root_interval)
    payload = {
        "min_poly": list(result.poly),
        "interval": [lo, hi],
        "beta_expr": str(result.beta_expr),
        "alpha_dec": result.alpha.approximate(args.digits).text,
        "beta_dec": result.beta.approximate(args.digits).text,
        "method": "eventual" if preperiod.a else "pure",
    }
    if args.format == "json":
        print(_dumps(payload))
        return
    print("\n".join([
        "min_poly: " + ",".join(str(c) for c in result.poly),
        f"interval: ({lo}, {hi})",
        *(f"{key}: {payload[key]}"
          for key in ("beta_expr", "alpha_dec", "beta_dec", "method")),
    ]))


# -- scan --------------------------------------------------------------------


def _parse_range(text, flag):
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ParseError(f"{flag}: expected LO:HI, got {_excerpt(text)}")
    try:
        _check_characters(text, 0, "<int>:<int>")
        lo, hi = _ints([lo_text, hi_text], 0, "<int>:<int>")
    except ParseError as exc:
        raise ParseError(f"{flag}: {exc}") from None
    if lo > hi:
        raise ParseError(f"{flag}: empty range {_excerpt(text)}")
    return range(lo, hi + 1)


def _scan(args):
    c2 = _parse_range(args.c2, "--c2")
    c1 = _parse_range(args.c1, "--c1")
    c0 = _parse_range(args.c0, "--c0")
    if math.prod(r.stop - r.start for r in (c2, c1, c0)) > _SCAN_BUDGET:
        raise OutputTooLarge(
            f"the scan box holds more than {_SCAN_BUDGET} polynomials"
        )
    if args.horizon > _HORIZON_BUDGET:
        raise OutputTooLarge(
            f"the scan horizon is more than {_HORIZON_BUDGET} steps"
        )
    candidates = [_literal(text, "--beta", ("ratfunc",))
                  for text in args.beta or ()] or _DEFAULT_SCAN_BETAS
    records = conjecture_scan(
        [(1, x2, x1, x0) for x2 in c2 for x1 in c1 for x0 in c0],
        candidates,
        horizon=args.horizon,
        jobs=args.jobs,
        preview_digits=args.preview,
    )
    # Every record is rendered before any prints, so an unprintable one
    # leaves standard output empty.
    lines = []
    for record in records:
        interval = beta_expr = preview = None
        if record.interval is not None:
            interval = [fraction_str(x) for x in record.interval]
        if record.beta_expr is not None:
            beta_expr = str(record.beta_expr)
        if record.digits_preview is not None:
            preview = {"a": list(record.digits_preview[0]),
                       "b": list(record.digits_preview[1])}
        lines.append(bounded_str({
            "min_poly": list(record.min_poly),
            "interval": interval,
            "beta_expr": beta_expr,
            "status": record.status,
            "preperiod": record.preperiod,
            "period": record.period,
            "digits_preview": preview,
        }, _dumps))
    for line in lines:
        print(line)


# -- flags -------------------------------------------------------------------


# Each subcommand, declared once: its handler, its help line and its flags,
# each with its add_argument keywords.
_JSON_OR_TEXT = ("json", "text")
_RANGE_HINT = "range LO:HI"
_COMMANDS = {
    "expand": (_expand, "expand a pair (alpha, beta) into digit sequences", (
        ("--alpha", dict(required=True, help="rat: or alg: literal; rat: or "
                         "dec: when either side is dec:")),
        ("--beta", dict(required=True, help="rat: or alg: or ratfunc: literal, "
                        "a ratfunc: evaluated at alpha; rat: or dec: when either "
                        "side is dec:, and then the digits hold for its whole box")),
        ("--terms", dict(type=_positive_int, default=64)),
        ("--digits", dict(type=_positive_int, default=12)),
        ("--format", dict(choices=_JSON_OR_TEXT, default="json")),
    )),
    "eval": (_eval, "evaluate the n-term convergent of a digit pair", (
        ("--a", dict(required=True, help="comma-separated digits")),
        ("--b", dict(required=True, help="comma-separated digits")),
        ("--n", dict(type=_nonnegative_int, default=None)),
        ("--digits", dict(type=_positive_int, default=12)),
        ("--format", dict(choices=_JSON_OR_TEXT, default="json")),
    )),
    "render": (_render, "render the fraction towers of a digit pair", (
        ("--a", dict(required=True)),
        ("--b", dict(required=True)),
        ("--depth", dict(type=_nonnegative_int, default=2)),
        ("--style", dict(choices=("ascii", "latex"), default="ascii")),
        ("--format", dict(choices=_JSON_OR_TEXT, default="text")),
        ("--preperiod", dict(type=_nonnegative_int, default=None)),
        ("--period", dict(type=_positive_int, default=None)),
    )),
    "validate": (_validate, "apply the admissibility rules to a digit pair", (
        ("--a", dict(required=True)),
        ("--b", dict(required=True)),
        ("--preperiod", dict(type=_nonnegative_int, default=None)),
        ("--period", dict(type=_positive_int, default=None)),
        ("--terminal", dict(default=None, help="rat: or alg: literal, the exact "
                            "terminal value of a terminated pair")),
        ("--format", dict(choices=_JSON_OR_TEXT, default="json")),
    )),
    "recover": (_recover, "recover the cubic behind a periodic digit pair", (
        ("--period-a", dict(required=True)),
        ("--period-b", dict(required=True)),
        ("--preperiod-a", dict(default="")),
        ("--preperiod-b", dict(default="")),
        ("--digits", dict(type=_positive_int, default=12)),
        ("--format", dict(choices=_JSON_OR_TEXT, default="json")),
    )),
    "scan": (_scan, "scan monic cubics for eventually periodic expansions", (
        ("--c2", dict(default="-2:2", help=f"x^2 coefficient {_RANGE_HINT}")),
        ("--c1", dict(default="-2:2", help=f"x coefficient {_RANGE_HINT}")),
        ("--c0", dict(default="-2:2", help=f"constant {_RANGE_HINT}")),
        ("--beta", dict(action="append", default=None, help="ratfunc: literal "
                        "for a beta candidate (repeatable)")),
        ("--horizon", dict(type=_positive_int, default=64)),
        ("--jobs", dict(type=_positive_int, default=None)),
        ("--preview", dict(type=_positive_int, default=8)),
    )),
}


def _row(flag, action="store", type=None, choices=None, default=None,
         required=False, help=None):
    """What _parse reads of one flag, from its add_argument keywords:
    (dest, action, type, choices, default, required)."""
    return flag[2:].replace("-", "_"), action, type, choices, default, required


# Each subcommand's handler and its rows by flag, as _parse reads them.
_ROWS = {
    name: (handler, {flag: _row(flag, **keywords) for flag, keywords in flags})
    for name, (handler, _, flags) in _COMMANDS.items()
}


def _usage(message):
    """The usage error's ParseError, one short line like every other error:
    each long word is cut to an excerpt, and the line to 240 bytes."""
    line = " ".join(_excerpt(word.strip("'")) if len(word) > 25 else word
                    for word in message.split())
    if len(line.encode()) > 240:
        line = line.encode()[:240].decode(errors="ignore") + "..."
    return ParseError(line)


def _parse(command, argv):
    """The subcommand's argv read off its rows in one pass: its namespace,
    or None for -h or --help.  Each usage error is a ParseError in
    argparse's words: a missing or refused value at its token, then the
    missing required flags, then any token that is no exact flag ('--'
    with every token after it)."""
    if command not in _ROWS:
        if command in ("-h", "--help"):
            return None
        if command is None or command.startswith("-"):
            raise _usage("the following arguments are required: command")
        raise _usage(f"argument command: invalid choice: {command!r} (choose "
                     f"from {', '.join(map(repr, _COMMANDS))})")
    handler, rows = _ROWS[command]
    given, unrecognized = {}, ()
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        row = rows.get(flag)
        if row is None:
            if token in ("-h", "--help"):
                return None
            unrecognized += (token, *tokens) if token == "--" else (token,)
            continue
        dest, action, kind, choices, _, _ = row
        if not eq:
            value = next(tokens, "--")  # a missing value reads as '--'
            if value.startswith("--"):
                raise _usage(f"argument {flag}: expected one argument")
        elif value == "--":
            raise _usage(f"argument {flag}: expected one argument")
        if kind is not None:
            try:
                value = kind(value)
            except ValueError as exc:
                raise _usage(f"argument {flag}: {exc}") from None
        if choices is not None and value not in choices:
            raise _usage(f"argument {flag}: invalid choice: {value!r} (choose "
                         f"from {', '.join(map(repr, choices))})")
        if action == "append":
            given.setdefault(dest, []).append(value)
        else:
            given[dest] = value
    values, missing = {}, ()
    for dest, _, _, _, default, required in rows.values():
        if required and dest not in given:
            missing += (f"--{dest.replace('_', '-')}",)
        values[dest] = given.get(dest, default)
    if missing:
        raise _usage(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        raise _usage(f"unrecognized arguments: {' '.join(unrecognized)}")
    return SimpleNamespace(**values, handler=handler)


def _help(command):
    """Print the subcommand's help, or bcf's: only help loads argparse."""
    import argparse

    parser = argparse.ArgumentParser(prog="bcf", description=(
        "Exact bifurcating continued fractions: expand pairs of numbers into "
        "paired digit sequences, evaluate and render them, validate digit "
        "pairs, recover cubic polynomials from periodic expansions, and scan "
        "cubic fields for periodicity."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, flags) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help)
        for flag, keywords in flags:
            subparser.add_argument(flag, **keywords)
    sub.choices.get(command, parser).print_help()


def run(argv):
    """Run one CLI invocation; returns the process exit code.  Help goes to
    standard output, and every error is one line on standard error."""
    command = argv[0] if argv else None
    try:
        args = _parse(command, argv[1:])
        if args is None:
            _help(command)
            return 0
        args.handler(args)
    except (BcfError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early; point stdout at devnull so that Python's
        # own flush at exit fails no second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the output ended",
              file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
