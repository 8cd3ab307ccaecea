"""Exact arithmetic for the equation x^x = alpha over the positive rationals.

The package solves x^x = alpha for algebraic alpha by two independent exact
procedures, constructs minimal polynomials of self-powers (a/b)^(a/b),
analyzes when x^P(x) is rational, and issues transcendence certificates with
exact isolating intervals.  No floating point participates in any decision.
"""

from .arith import (
    Factorization,
    Ordering,
    compare_power_products,
    compare_self_power_to_rational,
    compare_self_power_to_root,
    factorize,
    integer_kth_root,
    is_prime,
    lambda_decompose,
    padic_valuation,
    powers_equal,
    reduce_fraction,
)
from .certify import Certificate, bisect_preimage, classify_preimage
from .errors import (
    DomainError,
    ParseError,
    PreconditionError,
    ResourceError,
    SelfPowerError,
    TargetShapeError,
    UnsupportedInputError,
)
from .minpoly import (
    BinomialMinPoly,
    IntPolynomial,
    as_binomial,
    degree_of_self_power,
    is_irreducible_binomial,
    minimal_polynomial_of_self_power,
)
from .polypower import (
    RationalityVerdict,
    analyze_poly_power,
    enumerate_rational_powers,
    eval_polynomial,
    leading_denominator_bound,
    rational_power,
    zero_exponent_denominator_bound,
)
from .solver import (
    AlgebraicTarget,
    SolutionSet,
    commuting_pair,
    denominator_bound,
    equal_self_power_pair,
    integer_scan,
    solve,
    solve_by_divisors,
    solve_enumerative,
    verify_commuting,
    verify_equal_self_powers,
)

__version__ = "0.1.0"

#: The scan is plain Python; the name stays so records and callers that read
#: it keep working.
BACKEND = "pure"

__all__ = [
    "AlgebraicTarget",
    "BACKEND",
    "BinomialMinPoly",
    "Certificate",
    "DomainError",
    "Factorization",
    "IntPolynomial",
    "Ordering",
    "ParseError",
    "PreconditionError",
    "RationalityVerdict",
    "ResourceError",
    "SelfPowerError",
    "SolutionSet",
    "TargetShapeError",
    "UnsupportedInputError",
    "analyze_poly_power",
    "as_binomial",
    "bisect_preimage",
    "classify_preimage",
    "commuting_pair",
    "compare_power_products",
    "compare_self_power_to_rational",
    "compare_self_power_to_root",
    "degree_of_self_power",
    "denominator_bound",
    "enumerate_rational_powers",
    "equal_self_power_pair",
    "eval_polynomial",
    "factorize",
    "integer_kth_root",
    "integer_scan",
    "is_irreducible_binomial",
    "is_prime",
    "lambda_decompose",
    "leading_denominator_bound",
    "minimal_polynomial_of_self_power",
    "padic_valuation",
    "powers_equal",
    "rational_power",
    "reduce_fraction",
    "solve",
    "solve_by_divisors",
    "solve_enumerative",
    "verify_commuting",
    "verify_equal_self_powers",
    "zero_exponent_denominator_bound",
]
