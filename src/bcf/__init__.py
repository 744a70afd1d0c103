"""Exact arithmetic for bifurcating continued fractions.

A bifurcating continued fraction expands a pair of numbers (alpha, beta)
into a pair of integer digit sequences by repeatedly taking floors and
inverting the fractional parts jointly; evaluating the digits back climbs
a Fibonacci-patterned tree of nested fractions whose convergents are
ratios from a three-term recurrence.  The package provides the exact
expansion (over rationals and cubic number fields), tree evaluation with
certified error diagnostics, admissibility validation, periodicity
detection, recovery of the cubic polynomial behind an eventually periodic
expansion, and an experimental scanner over families of cubic fields.
"""

from .errors import (
    BcfError,
    DegenerateSystem,
    DegreeOutOfRange,
    EmptyInterval,
    FieldMismatch,
    IndexOutOfRange,
    InputError,
    InvalidSequence,
    NonPositiveInput,
    OutputTooLarge,
    ParseError,
    ReduciblePolynomial,
    RootCountNotOne,
)
from .expansion import (
    bcf_expand,
    bcf_expand_rational,
    floor_of,
    rational_expansion_trace,
)
from .fields import (
    AlgebraicNumber,
    DecimalApproximation,
    NumberField,
    approximate,
)
from .literals import RatFunc, fraction_str, parse_digits, parse_number
from .recovery import (
    RecoveredCubic,
    ScanRecord,
    conjecture_scan,
    recover_cubic_eventual,
    recover_cubic_pure,
    transfer_matrix,
)
from .sequences import SequencePair
from .treeval import (
    ConvergenceDiagnostics,
    ConvergentTriple,
    convergent,
    convergent_backward,
    convergent_matrix,
    convergent_sequence,
    det_invariant,
    gap_diagnostics,
    node_counts,
    render_tree,
    tree_sum,
)
from .validation import (
    RULE_A_BELOW_ONE,
    RULE_A_LESS_THAN_B,
    RULE_EQUAL_THEN_B_ZERO,
    ValidationReport,
    check_appropriate,
    check_proper,
    validate,
)

__version__ = "6.0.0"

__all__ = [
    "AlgebraicNumber",
    "BcfError",
    "ConvergenceDiagnostics",
    "ConvergentTriple",
    "DecimalApproximation",
    "DegenerateSystem",
    "DegreeOutOfRange",
    "EmptyInterval",
    "FieldMismatch",
    "IndexOutOfRange",
    "InputError",
    "InvalidSequence",
    "NonPositiveInput",
    "NumberField",
    "OutputTooLarge",
    "ParseError",
    "RatFunc",
    "RecoveredCubic",
    "ReduciblePolynomial",
    "RootCountNotOne",
    "RULE_A_BELOW_ONE",
    "RULE_A_LESS_THAN_B",
    "RULE_EQUAL_THEN_B_ZERO",
    "ScanRecord",
    "SequencePair",
    "ValidationReport",
    "approximate",
    "bcf_expand",
    "bcf_expand_rational",
    "check_appropriate",
    "check_proper",
    "conjecture_scan",
    "convergent",
    "convergent_backward",
    "convergent_matrix",
    "convergent_sequence",
    "det_invariant",
    "floor_of",
    "fraction_str",
    "gap_diagnostics",
    "node_counts",
    "parse_digits",
    "parse_number",
    "rational_expansion_trace",
    "recover_cubic_eventual",
    "recover_cubic_pure",
    "render_tree",
    "transfer_matrix",
    "tree_sum",
    "validate",
    "__version__",
]
