"""The public behaviour of the six result records: construction by keyword and
by position, repr text, equality and hashing, immutability, and the type and
message of every validation error."""

from fractions import Fraction

import pytest

from selfpower import (
    AlgebraicTarget,
    BinomialMinPoly,
    Certificate,
    DomainError,
    IntPolynomial,
    Ordering,
    RationalityVerdict,
    SolutionSet,
)

_STATEMENT = "x^x = 2 has an irrational solution in (3/2, 7/4)"

# (record class, field values in field order, exact repr)
_RECORDS = [
    pytest.param(
        IntPolynomial,
        {"terms": ((2, 1), (0, -2))},
        "IntPolynomial(terms=((2, 1), (0, -2)))",
        id="IntPolynomial",
    ),
    pytest.param(
        BinomialMinPoly,
        {"s": 6561, "d": 9, "r": 256},
        "BinomialMinPoly(s=6561, d=9, r=256)",
        id="BinomialMinPoly",
    ),
    # a rational value alpha = r/s is the target of degree d = 1
    pytest.param(
        AlgebraicTarget,
        {"s": 2, "d": 1, "r": 3},
        "AlgebraicTarget(s=2, d=1, r=3)",
        id="AlgebraicTarget-value",
    ),
    pytest.param(
        AlgebraicTarget,
        {"s": 6561, "d": 9, "r": 256},
        "AlgebraicTarget(s=6561, d=9, r=256)",
        id="AlgebraicTarget-root",
    ),
    pytest.param(
        SolutionSet,
        {"solutions": (Fraction(8, 27), Fraction(4, 9)), "scan_count": 320},
        "SolutionSet(solutions=(Fraction(8, 27), Fraction(4, 9)), scan_count=320)",
        id="SolutionSet",
    ),
    pytest.param(
        Certificate,
        {
            "q": Fraction(2),
            "integer_scan_trace": ((1, Ordering.LESS), (2, Ordering.GREATER)),
            "interval": (Fraction(3, 2), Fraction(7, 4)),
            "statement": _STATEMENT,
        },
        "Certificate(q=Fraction(2, 1), integer_scan_trace=((1, <Ordering.LESS: "
        "'less'>), (2, <Ordering.GREATER: 'greater'>)), interval=(Fraction(3, 2), "
        f"Fraction(7, 4)), statement='{_STATEMENT}')",
        id="Certificate",
    ),
    pytest.param(
        RationalityVerdict,
        {"exponent": Fraction(7, 3), "rational": None},
        "RationalityVerdict(exponent=Fraction(7, 3), rational=None)",
        id="RationalityVerdict",
    ),
]


@pytest.mark.parametrize("cls, fields, text", _RECORDS)
def test_keyword_and_positional_construction_agree(cls, fields, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, fields, text", _RECORDS)
def test_repr_text(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", _RECORDS)
def test_equal_records_compare_and_hash_equal(cls, fields, text):
    first, second = cls(**fields), cls(**dict(fields))
    assert first is not second
    assert first == second
    assert not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls, fields, text", _RECORDS)
def test_fields_cannot_be_assigned(cls, fields, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == value
    assert repr(record) == text


def test_records_with_different_fields_differ():
    assert BinomialMinPoly(6561, 9, 256) != BinomialMinPoly(6561, 9, 257)
    assert SolutionSet((), 3) != SolutionSet((), 4)
    assert AlgebraicTarget(1, 1, 2) != AlgebraicTarget(1, 1, 3)


# (constructor, arguments, exception type, exact message)
_INVALID = [
    pytest.param(IntPolynomial, {"terms": ()}, DomainError, "empty polynomial", id="poly-empty"),
    pytest.param(
        IntPolynomial,
        {"terms": ((1, 0),)},
        DomainError,
        "zero coefficient at degree 1",
        id="poly-leading-zero",
    ),
    pytest.param(
        IntPolynomial,
        {"terms": ((5, 1), (3, 0), (0, 2))},
        DomainError,
        "zero coefficient at degree 3",
        id="poly-inner-zero",
    ),
    pytest.param(
        IntPolynomial,
        {"terms": ((1, 1), (-1, 1))},
        DomainError,
        "degrees must be nonnegative",
        id="poly-negative-degree",
    ),
    pytest.param(
        IntPolynomial,
        {"terms": ((-2, 3),)},
        DomainError,
        "degrees must be nonnegative",
        id="poly-negative-constant",
    ),
    pytest.param(
        IntPolynomial,
        {"terms": ((2, 1), (2, 3))},
        DomainError,
        "degrees must strictly decrease",
        id="poly-repeated-degree",
    ),
    pytest.param(
        IntPolynomial,
        {"terms": ((0, -2), (2, 1))},
        DomainError,
        "degrees must strictly decrease",
        id="poly-unsorted-degrees",
    ),
    pytest.param(
        BinomialMinPoly,
        {"s": 0, "d": 2, "r": 1},
        DomainError,
        "binomial needs s, d, r >= 1",
        id="binomial-s",
    ),
    pytest.param(
        BinomialMinPoly,
        {"s": 1, "d": 0, "r": 1},
        DomainError,
        "binomial needs s, d, r >= 1",
        id="binomial-d",
    ),
    pytest.param(
        BinomialMinPoly,
        {"s": 1, "d": 2, "r": -3},
        DomainError,
        "binomial needs s, d, r >= 1",
        id="binomial-r",
    ),
    pytest.param(
        BinomialMinPoly,
        {"s": 4, "d": 2, "r": 2},
        DomainError,
        "gcd(r, s) must be 1, got gcd(2, 4)",
        id="binomial-gcd",
    ),
    pytest.param(
        BinomialMinPoly,
        {"s": 3 << 2100, "d": 2, "r": 3},
        DomainError,
        "gcd(r, s) must be 1, got gcd(3, <2102-bit integer>)",
        id="binomial-gcd-long",
    ),
    pytest.param(
        AlgebraicTarget,
        {"s": 2, "d": 1, "r": -3},
        DomainError,
        "binomial needs s, d, r >= 1",
        id="target-negative",
    ),
    pytest.param(
        AlgebraicTarget,
        {"s": 1, "d": 1, "r": 0},
        DomainError,
        "binomial needs s, d, r >= 1",
        id="target-zero",
    ),
    pytest.param(
        AlgebraicTarget,
        {"s": 4, "d": 1, "r": 6},
        DomainError,
        "gcd(r, s) must be 1, got gcd(6, 4)",
        id="target-gcd",
    ),
    pytest.param(
        SolutionSet,
        {"solutions": (Fraction(1), Fraction(2), Fraction(3)), "scan_count": 5},
        AssertionError,
        "x -> x^x has at most two preimages; got ['1', '2', '3']",
        id="solutions-three",
    ),
    pytest.param(
        SolutionSet,
        {"solutions": (Fraction(1, 2), Fraction(1, 4)), "scan_count": 5},
        AssertionError,
        "solutions must be sorted and distinct",
        id="solutions-unsorted",
    ),
    pytest.param(
        SolutionSet,
        {"solutions": (Fraction(1, 2), Fraction(1, 2)), "scan_count": 5},
        AssertionError,
        "solutions must be sorted and distinct",
        id="solutions-repeated",
    ),
    pytest.param(
        Certificate,
        {
            "q": Fraction(1),
            "integer_scan_trace": (),
            "interval": (Fraction(1), Fraction(2)),
            "statement": "",
        },
        DomainError,
        "certificates cover q > 1 only",
        id="certificate-q",
    ),
    pytest.param(
        Certificate,
        {
            "q": Fraction(2),
            "integer_scan_trace": (),
            "interval": (Fraction(7, 4), Fraction(7, 4)),
            "statement": "",
        },
        DomainError,
        "certificate interval must be nonempty",
        id="certificate-interval",
    ),
]


@pytest.mark.parametrize("cls, fields, error, message", _INVALID)
def test_validation_errors(cls, fields, error, message):
    with pytest.raises(error) as caught:
        cls(**fields)
    assert type(caught.value) is error
    assert str(caught.value) == message
    if fields:
        with pytest.raises(error) as caught:
            cls(*fields.values())
        assert str(caught.value) == message


def test_reducible_target_is_built_reduced():
    # 9x^2 - 4 is no validation error: by keyword and by position the target
    # is the minimal polynomial 3x - 2 of its positive root 2/3
    for target in (AlgebraicTarget(s=9, d=2, r=4), AlgebraicTarget(9, 2, 4)):
        assert type(target) is AlgebraicTarget
        assert target == (3, 1, 2)
        assert repr(target) == "AlgebraicTarget(s=3, d=1, r=2)"

