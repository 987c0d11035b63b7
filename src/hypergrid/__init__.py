"""Exact real analysis on a finite grid.

The real line is replaced by the grid {0, 1/tau, ..., 1} for a large
integer tau, all arithmetic is exact rational arithmetic, and every
analytic judgment (equality, continuity, convergence) is made relative
to an observation context (H, K): quantities within 1/H are
indiscernible, quantities beyond K are infinite.  Derivatives become
difference quotients, integrals become cumulative sums, and the
fundamental theorem of calculus holds with zero error by telescoping.
"""

from .calculus import (
    ConvergentSequence,
    LimitQuotientResult,
    cumulative_values,
    derivative,
    ftc_check,
    grid_independence_check,
    integral,
    limit_check,
    limit_quotient,
    quotient_function,
    secant_check,
    secant_deviation,
)
from .context import DEFAULT_H, DEFAULT_K, CheckReport, ObservationContext
from .errors import (
    DomainError,
    EvaluationError,
    GridMismatchError,
    HypergridError,
    NotDifferentiableError,
    ParseError,
    ResourceLimitError,
    SearchRangeError,
)
from .expr import Expression, compile, parse, pretty
from .functions import constant, exp_fn, identity, log_fn, monomial, square, step
from .grid import (
    GridPoint,
    GridSpec,
    quasi_identity_defect,
    round_to_grid,
    successor,
)
from .gridfun import (
    Certificate,
    GridFunction,
    continuity_check,
    fn_indiscernible,
    transport,
)
from .rational import Rational, format_rational, parse_rational, render_decimal
from .reals import MINUS_INFINITY, PLUS_INFINITY, ExtendedReal, real_from_rational
from .sampling import SamplingPlan, sample_unit_fractions
from .series import (
    DEFAULT_POLICY,
    FULL_POLICY,
    UNSTABLE,
    TruncationPolicy,
    countable_sum,
    exp_approx,
    exp_series,
    is_unstable,
    log_approx,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Certificate",
    "ConvergentSequence",
    "DEFAULT_H",
    "DEFAULT_K",
    "DEFAULT_POLICY",
    "DomainError",
    "EvaluationError",
    "Expression",
    "ExtendedReal",
    "FULL_POLICY",
    "GridFunction",
    "GridMismatchError",
    "GridPoint",
    "GridSpec",
    "HypergridError",
    "LimitQuotientResult",
    "MINUS_INFINITY",
    "NotDifferentiableError",
    "ObservationContext",
    "PLUS_INFINITY",
    "ParseError",
    "Rational",
    "ResourceLimitError",
    "SamplingPlan",
    "SearchRangeError",
    "TruncationPolicy",
    "UNSTABLE",
    "compile",
    "constant",
    "continuity_check",
    "countable_sum",
    "cumulative_values",
    "derivative",
    "exp_approx",
    "exp_fn",
    "exp_series",
    "fn_indiscernible",
    "format_rational",
    "ftc_check",
    "grid_independence_check",
    "identity",
    "integral",
    "is_unstable",
    "limit_check",
    "limit_quotient",
    "log_approx",
    "log_fn",
    "monomial",
    "parse",
    "parse_rational",
    "pretty",
    "quasi_identity_defect",
    "quotient_function",
    "real_from_rational",
    "render_decimal",
    "round_to_grid",
    "sample_unit_fractions",
    "secant_check",
    "secant_deviation",
    "square",
    "step",
    "successor",
    "transport",
]
