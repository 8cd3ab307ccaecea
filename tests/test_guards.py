"""The checks that guard answers raise, also under python -O, when a comparator lies."""

import subprocess
import sys
from fractions import Fraction

import pytest

import selfpower.certify as certify
import selfpower.solver as solver
from selfpower import (
    AlgebraicTarget,
    Ordering,
    classify_preimage,
    minimal_polynomial_of_self_power,
    solve_enumerative,
)


def test_scan_hit_recheck_raises(monkeypatch):
    # every comparison answers GREATER: the integer scan stops at n = 1 and
    # the recheck of each scan hit fails
    monkeypatch.setattr(
        solver, "compare_self_power_to_root", lambda *args: Ordering.GREATER
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

    monkeypatch.setattr(solver, "compare_self_power_to_root", lying)
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
        "s.compare_self_power_to_root = lambda x, d, r, t: "
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
