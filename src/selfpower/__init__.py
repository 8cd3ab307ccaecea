"""Exact arithmetic for the equation x^x = alpha over the positive rationals.

The package solves x^x = alpha for algebraic alpha by two independent exact
procedures, constructs minimal polynomials of self-powers (a/b)^(a/b),
analyzes when x^P(x) is rational, and issues transcendence certificates with
exact isolating intervals.  No floating point participates in any decision.

``import selfpower`` loads no submodule: each public name imports its home
module on first access (PEP 562) and is then bound here like any attribute.
"""

__version__ = "0.1.0"

#: The scan is plain Python; the name stays so records and callers that read
#: it keep working.
BACKEND = "pure"

#: The home module of each public name.
_HOME = {
    "Factorization": "arith",
    "Ordering": "arith",
    "compare_power_products": "arith",
    "compare_self_power_to_rational": "arith",
    "compare_self_power_to_root": "arith",
    "factorize": "arith",
    "integer_kth_root": "arith",
    "is_prime": "arith",
    "lambda_decompose": "arith",
    "powers_equal": "arith",
    "Certificate": "certify",
    "classify_preimage": "certify",
    "DomainError": "errors",
    "ParseError": "errors",
    "PreconditionError": "errors",
    "ResourceError": "errors",
    "SelfPowerError": "errors",
    "TargetShapeError": "errors",
    "UnsupportedInputError": "errors",
    "AlgebraicTarget": "minpoly",
    "BinomialMinPoly": "minpoly",
    "IntPolynomial": "minpoly",
    "is_irreducible_binomial": "minpoly",
    "minimal_polynomial_of_self_power": "minpoly",
    "RationalityVerdict": "polypower",
    "analyze_poly_power": "polypower",
    "enumerate_rational_powers": "polypower",
    "eval_polynomial": "polypower",
    "leading_denominator_bound": "polypower",
    "rational_power": "polypower",
    "zero_exponent_denominator_bound": "polypower",
    "SolutionSet": "solver",
    "commuting_pair": "solver",
    "denominator_bound": "solver",
    "equal_self_power_pair": "solver",
    "integer_scan": "solver",
    "solve": "solver",
    "solve_by_divisors": "solver",
    "solve_enumerative": "solver",
    "verify_commuting": "solver",
    "verify_equal_self_powers": "solver",
}

__all__ = sorted(["BACKEND", *_HOME])


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
