"""The checks that guard answers raise, also under python -O, when a comparator lies."""

import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import selfpower.certify as certify
import selfpower.polypower as polypower
import selfpower.solver as solver
from selfpower import (
    AlgebraicTarget,
    BinomialMinPoly,
    DomainError,
    IntPolynomial,
    Ordering,
    ResourceError,
    classify_preimage,
    minimal_polynomial_of_self_power,
    solve,
    solve_enumerative,
)
from selfpower import arith


def test_scan_hit_recheck_raises(monkeypatch):
    # every comparison answers GREATER: the integer scan stops at n = 1 and
    # the recheck of each scan hit fails
    monkeypatch.setattr(
        solver, "_compare_to_reduced_root", lambda *args: Ordering.GREATER
    )
    target = AlgebraicTarget.from_binomial(minimal_polynomial_of_self_power(8, 27))
    with pytest.raises(AssertionError, match="exact recheck"):
        solve_enumerative(target)


@pytest.mark.parametrize(
    "scan",
    [
        pytest.param(
            lambda: solver.integer_scan(AlgebraicTarget.from_rational(2)),
            id="integer_scan",
        ),
        pytest.param(lambda: classify_preimage(2), id="classify_preimage"),
    ],
)
def test_integer_scan_bound_raises(monkeypatch, scan):
    # the certificate scan is the solver's integer scan, bound check included
    def lying(x, d, r, s):
        return Ordering.LESS if x < 10 else Ordering.GREATER

    monkeypatch.setattr(solver, "_compare_to_reduced_root", lying)
    with pytest.raises(AssertionError, match="proven bound"):
        scan()


def test_bisection_bracket_raises(monkeypatch):
    monkeypatch.setattr(
        certify, "compare_self_power_to_rational", lambda *args: Ordering.EQUAL
    )
    with pytest.raises(AssertionError, match="does not bracket"):
        certify._bisect(Fraction(2), Fraction(1, 100), 2)


def test_bisection_equality_raises(monkeypatch):
    real = certify.compare_self_power_to_rational

    def lying(x, q, **kwargs):
        return real(x, q, **kwargs) if x.denominator == 1 else Ordering.EQUAL

    monkeypatch.setattr(certify, "compare_self_power_to_rational", lying)
    with pytest.raises(AssertionError, match="contradicts the integer scan"):
        classify_preimage(Fraction(2), Fraction(1, 100))


def test_guards_survive_optimized_mode():
    # the integer scan's proven-bound check, with the lying comparator of
    # test_integer_scan_bound_raises
    code = (
        "import selfpower.solver as s\n"
        "s._compare_to_reduced_root = lambda x, d, r, t: "
        "s.Ordering.LESS if x < 10 else s.Ordering.GREATER\n"
        "try:\n"
        "    s.integer_scan(s.BinomialMinPoly.from_rational(2))\n"
        "except AssertionError as exc:\n"
        "    print('raised' if 'proven bound' in str(exc) else exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "raised"


def test_rational_cross_check_raises_on_a_planted_disagreement(monkeypatch):
    # the divisor procedure reads 27 as no perfect power, so it finds no n
    # with n^n = 27 where the integer scan finds 3
    monkeypatch.setattr(solver, "_as_perfect_power", lambda n, m: (n, 1))
    target = BinomialMinPoly.from_rational(27)
    assert solve(target).solutions == (Fraction(3),)
    text = "solution procedures disagree: divisors () vs enumeration (Fraction(3, 1),)"
    with pytest.raises(AssertionError, match=f"^{re.escape(text)}$"):
        solve(target, cross_check=True)


def _sweep_past_a_low_bound(monkeypatch):
    # 2x has the rational value 1/2 at x = 1/2: a bound of 1 is too low
    monkeypatch.setattr(polypower, "leading_denominator_bound", lambda leading: 1)
    polypower.enumerate_rational_powers(IntPolynomial.from_coefficients([0, 2]), 1, 2)


@pytest.mark.parametrize(
    "call, error, text",
    [
        pytest.param(
            # with seed 1 the first product step of 15 already multiplies in
            # both factors, so gcd(q, 15) = 15 after 3 units and the fourth,
            # the first backtrack step, exhausts the budget
            lambda mp: arith._rho_brent(15, random.Random(1), [4]),
            ResourceError,
            "factorization budget of 500000 rho iterations exhausted on a "
            "4-bit cofactor 15",
            id="rho_backtrack_budget",
        ),
        pytest.param(
            lambda mp: arith.integer_kth_root(8, 0), DomainError, "k must be >= 1",
            id="kth_root_k",
        ),
        pytest.param(
            lambda mp: arith.integer_kth_root(-8, 3), DomainError, "n must be >= 0",
            id="kth_root_n",
        ),
        pytest.param(
            lambda mp: arith.powers_equal(0, 1, 1, 1),
            DomainError,
            "powers_equal requires x, y >= 1 and p, q >= 0",
            id="powers_equal",
        ),
        pytest.param(
            lambda mp: arith.lambda_decompose(0, 1, 1, 1),
            DomainError,
            "lambda_decompose requires positive integers",
            id="lambda_decompose",
        ),
        pytest.param(
            lambda mp: arith.ln_interval(0, 64),
            DomainError,
            "ln of a non-positive integer",
            id="ln_interval",
        ),
        pytest.param(
            lambda mp: arith.compare_self_power_to_root(Fraction(1), 0, 1, 1),
            DomainError,
            "root comparison needs d, r, s >= 1",
            id="compare_root_range",
        ),
        pytest.param(
            lambda mp: arith.compare_self_power_to_root(Fraction(1), 2, 2, 4),
            DomainError,
            "r and s must be coprime, got gcd(2, 4) != 1",
            id="compare_root_coprime",
        ),
        pytest.param(
            # t is checked before r and s, on input that fails both
            lambda mp: arith.compare_self_power_to_root(Fraction(0), 2, 2, 4),
            DomainError,
            "t must be positive, got 0",
            id="compare_root_t_before_coprime",
        ),
        pytest.param(
            # q is checked before t
            lambda mp: arith.compare_self_power_to_rational(Fraction(0), Fraction(0)),
            DomainError,
            "q must be positive, got 0",
            id="compare_rational_q_before_t",
        ),
        pytest.param(
            lambda mp: arith.compare_self_power_to_rational(Fraction(-1), Fraction(2)),
            DomainError,
            "t must be positive, got -1",
            id="compare_rational_t",
        ),
        pytest.param(
            lambda mp: solver._pair_exponents(Fraction(0), Fraction(1)),
            DomainError,
            "x and y must be positive",
            id="pair_exponents",
        ),
        pytest.param(
            lambda mp: minimal_polynomial_of_self_power(0, 1),
            DomainError,
            "need a, b >= 1",
            id="minpoly_of_zero",
        ),
        pytest.param(
            lambda mp: polypower.enumerate_rational_powers(
                IntPolynomial.from_coefficients([3]), 1
            ),
            DomainError,
            "polynomial must be non-constant",
            id="sweep_of_a_constant",
        ),
        pytest.param(
            _sweep_past_a_low_bound,
            AssertionError,
            "rational value at denominator 2 contradicts the bound 1 for leading "
            "coefficient 2",
            id="sweep_past_the_bound",
        ),
    ],
)
def test_each_refusal_names_its_cause(monkeypatch, call, error, text):
    # raises that no other in-process test reaches, each with its whole text;
    # solve's disagreement raise is the planted test above
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(monkeypatch)
