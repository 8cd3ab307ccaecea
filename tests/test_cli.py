"""CLI tests: parsing, golden outputs, exit codes, flags."""

import argparse
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfpower
from selfpower import BinomialMinPoly, DomainError, IntPolynomial, ParseError
from selfpower import cli, minpoly
from selfpower.cli import (
    _format_binomial,
    format_fraction,
    format_polynomial,
    main,
    parse_polynomial,
    parse_rational,
)
from selfpower.errors import DECIMAL_TEXT_BITS


@contextmanager
def _digit_limit(limit):
    """The interpreter's int/str digit limit set to limit, 0 lifting it; the
    package itself never touches it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _every_digit():
    """The digit limit lifted, for the tests' own reference texts and values."""
    return _digit_limit(0)


def run_cli(capsys, argv, expect_exit=0):
    """Invoke the CLI in-process; returns (stdout, stderr)."""
    code = 0
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == expect_exit, (argv, code, captured.err)
    return captured.out, captured.err


class TestParseRational:
    def test_examples(self):
        assert parse_rational("8/27") == Fraction(8, 27)
        assert parse_rational("6/4") == Fraction(3, 2)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("−3/4") == Fraction(-3, 4)  # unicode minus

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse_rational("1/0")
        assert exc.value.position == 2

    def test_non_ascii_digit_position(self):
        # '²' is a digit to str.isdigit but no decimal digit
        with pytest.raises(ParseError) as exc:
            parse_rational("1²/3")
        assert exc.value.position == 1

    def test_misplaced_sign_or_slash_position(self):
        # the position ends the longest prefix of [+-]?\d*(?:/\d*)?
        cases = {
            "1//2": 2, "1/-2": 2, "--1": 1, "+-3": 1, "1/2/3": 3, "1²/3": 1,
            "3/": 2, "-": 1, "/": 1, "": 0, "two": 0, "1/2x": 3, " 1/+2 ": 2,
        }
        for text, position in cases.items():
            with pytest.raises(ParseError) as exc:
                parse_rational(text)
            assert exc.value.position == position, text

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("two thirds")
        with pytest.raises(ParseError):
            parse_rational("1/2/3")
        with pytest.raises(ParseError):
            parse_rational("")


class TestParsePolynomial:
    def test_expression_form(self):
        assert parse_polynomial("9*x^3 - 4").terms == ((3, 9), (0, -4))
        assert parse_polynomial("x^2 + x^2").terms == ((2, 2),)
        assert parse_polynomial("-x + 1").terms == ((1, -1), (0, 1))
        assert parse_polynomial("2*x*x - x").terms == ((2, 2), (1, -1))
        # like terms that cancel leave no term behind
        assert parse_polynomial("x^3 + 2 - x^3 + x").terms == ((1, 1), (0, 2))

    def test_bracket_form(self):
        assert parse_polynomial("[−1, 0, 2]").terms == ((2, 2), (0, -1))
        assert parse_polynomial("[-4, 0, 0, 9]").terms == ((3, 9), (0, -4))
        assert parse_polynomial("[1, 2, 0]").terms == ((1, 2), (0, 1))  # zeros drop

    def test_forms_agree(self):
        assert parse_polynomial("9*x^3 - 4") == parse_polynomial("[-4, 0, 0, 9]")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError):
            parse_polynomial("")
        with pytest.raises(ParseError):
            parse_polynomial("[]")
        with pytest.raises(ParseError):
            parse_polynomial("[0, 0]")
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^-2")
        assert exc.value.position == 2
        with pytest.raises(ParseError):
            parse_polynomial("x + ")
        with pytest.raises(ParseError):
            parse_polynomial("2x")  # multiplication must be explicit
        with pytest.raises(ParseError):
            parse_polynomial("x^2 + 1.5")
        with pytest.raises(ParseError):
            parse_polynomial("[1, b]")

    def test_superscript_digit_is_a_parse_error(self):
        # str.isdigit accepts '²', int() does not
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x²")
        assert exc.value.position == 1

    def test_over_long_literal_names_limit_and_position(self):
        # one cap for every literal, 65536 bits or 19729 digits, whatever the
        # interpreter's int-from-str digit limit; 2^65536 - 1 has 19729 digits
        assert 10**19728 < 2**65536 - 1 < 10**19729
        with _every_digit():
            largest, past = str(2**65536 - 1), str(2**65536)
        for digits, size in (("7" * 19730, "19730 digits"), (past, "65537 bits")):
            cases = [
                (lambda: parse_polynomial(f"x^2 - {digits}"), 6),
                (lambda: parse_polynomial(f"{digits}*x"), 0),
                (lambda: parse_polynomial(f" -{digits}"), 1),
                (lambda: parse_polynomial(f"[-1, 0,  {digits}]"), 9),
                (lambda: parse_rational(f"1/{digits}"), 2),
                (lambda: parse_rational(f"-{digits}"), 0),
            ]
            for parse, position in cases:
                with pytest.raises(ParseError) as exc:
                    parse()
                assert exc.value.position == position
                assert str(exc.value) == (
                    f"integer literal of {size} exceeds the supported size of "
                    f"65536 bits (19729 digits) (at position {position})"
                )
        assert parse_polynomial(f"x - {largest}").terms == ((1, 1), (0, 1 - 2**65536))
        assert parse_polynomial(f"[{largest}, -1]").terms == ((1, -1), (0, 2**65536 - 1))
        assert parse_rational(f"-1/{largest}") == Fraction(-1, 2**65536 - 1)

    def test_rendering_past_the_interpreter_digit_limit_parses_back(self):
        # 9^9999 has 9542 digits, past the default int-from-str limit of 4300
        for text in ("9^9999*x", "2^65535*x - 2^65535 + 1", "-2^65535 - 2^65534 + 1"):
            poly = parse_polynomial(text)
            assert parse_polynomial(format_polynomial(poly)) == poly

    def test_degree_cap_holds_for_products(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^60000*x^60000*x^60000 - 3")
        assert "65536" in str(exc.value)
        assert exc.value.position == 7  # the '*' that crosses the cap
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^65537")
        assert "65536" in str(exc.value)
        assert parse_polynomial("x^32768*x^32768 - 1").degree == 65536

    def test_coefficient_cap_holds_for_powers_and_products(self):
        # refused before 99999999999^65536 (2.4M bits) is formed
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_polynomial("99999999999^65536*x^2 - 1")
        assert str(exc.value) == (
            "power 99999999999^65536 exceeds the supported coefficient size of "
            "65536 bits (at position 12)"
        )
        assert time.perf_counter() - start < 1.0
        # just past the cap: 2^65536 has 65537 bits
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^2 - 2^65536")
        assert exc.value.position == 8
        assert parse_polynomial("2^65535*x - 1").terms == ((1, 2**65535), (0, -1))
        with pytest.raises(ParseError) as exc:
            parse_polynomial("2^40000*x*2^30000 - 3")
        assert str(exc.value) == (
            "product coefficient of 70001 bits exceeds the supported coefficient "
            "size of 65536 bits (at position 9)"
        )
        assert parse_polynomial("1000003^3000*x^2 - 2").terms == (
            (2, 1000003**3000),
            (0, -2),
        )
        # like terms: the sum is refused at the sign that joins it
        with pytest.raises(ParseError) as exc:
            parse_polynomial("2^65535*x + 2^65535*x - 1")
        assert str(exc.value) == (
            "sum coefficient of 65537 bits exceeds the supported coefficient "
            "size of 65536 bits (at position 10)"
        )
        assert parse_polynomial("2^65535*x - 2^65535*x + x").terms == ((1, 1),)

    def test_exponent_past_the_degree_cap_is_written_by_bit_length(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^" + "9" * 5000)
        assert str(exc.value) == (
            "exponent <16610-bit integer> exceeds the supported degree 65536 "
            "(at position 2)"
        )

    def test_large_powers_are_fast(self):
        start = time.perf_counter()
        assert parse_polynomial("x^9000*x^9000*x^9000 - 3").terms == ((27000, 1), (0, -3))
        assert parse_polynomial("x^65536 - 3").terms == ((65536, 1), (0, -3))
        assert parse_polynomial("3^4*x^2*2 - 2^3*5").terms == ((2, 162), (0, -40))
        assert time.perf_counter() - start < 1.0

    @given(
        st.one_of(
            st.text(alphabet="0123456789xX+-*^ \t−[],²٣", max_size=30),
            st.lists(
                st.sampled_from(
                    ["x", "X", "2", "17", "0", "65536", "9999", "+", "-", "*", "^", " "]
                ),
                max_size=16,
            ).map("".join),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_and_round_trips_or_names_a_position(self, text):
        stripped = text.replace("−", "-").strip()
        try:
            poly = parse_polynomial(text)
        except ParseError as exc:
            assert exc.position is not None, exc
            assert 0 <= exc.position <= len(stripped), exc
            return
        # every coefficient is within the literal cap, so its rendering,
        # written with every digit, reads back
        assert parse_polynomial(format_polynomial(poly)) == poly

    @given(
        st.lists(st.integers(-99, 99), min_size=1, max_size=7).filter(
            lambda cs: any(cs)
        )
    )
    @settings(max_examples=200)
    def test_print_parse_round_trip(self, coeffs):
        poly = IntPolynomial.from_coefficients(coeffs)
        assert parse_polynomial(format_polynomial(poly)) == poly

    @given(
        st.dictionaries(
            st.integers(0, cli._MAX_DEGREE),
            st.integers(-(2**200), 2**200).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sparse_round_trips(self, by_degree):
        # a few terms anywhere up to the degree cap: the text holds one term
        # per nonzero coefficient, the dense list one entry per degree
        poly = IntPolynomial(tuple(sorted(by_degree.items(), reverse=True)))
        assert parse_polynomial(format_polynomial(poly)) == poly
        coeffs = [by_degree.get(k, 0) for k in range(poly.degree + 1)]
        assert IntPolynomial.from_coefficients(coeffs) == poly
        assert IntPolynomial.from_coefficients(coeffs + [0, 0]) == poly
        # the dense list, up to the degree cap: about 0.4 us per entry
        assert parse_polynomial(f"[{', '.join(map(str, coeffs))}]") == poly

    def test_fraction_rendering(self):
        assert format_fraction(Fraction(3, 1)) == "3"
        assert format_fraction(Fraction(-8, 27)) == "-8/27"


def test_long_integers_are_written_as_str_writes_them():
    # str up to DECIMAL_TEXT_BITS, decimal past it in pieces of at most that
    # many bits; powers of ten put runs of zeros where the pieces join
    rng = random.Random(20)
    short, mid = DECIMAL_TEXT_BITS, 1 << 14
    sizes = [1, 2, short - 1, short, short + 1, 4096, mid - 1, mid, mid + 1, 1 << 20]
    sizes += [int(2 ** rng.uniform(0, 20)) for _ in range(24)]
    values = [1 << mid, (1 << mid) - 1, 10**616, 10**617 - 1, 10**617, 10**617 + 1]
    values += [10**2466, 10**2467 - 1, 10**4932 + 1, 10**5000, 10**20000 + 7]
    values += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in sizes]
    with _every_digit():
        texts = [str(n) for n in values]
        n = rng.getrandbits(3 * mid) | 1
        n_text = str(n)
    assert cli._int_text(0) == "0"
    for value, text in zip(values, texts):
        assert cli._int_text(value) == text, value.bit_length()
        assert cli._int_text(-value) == "-" + text, value.bit_length()
    assert format_fraction(Fraction(-n, 2)) == f"-{n_text}/2"
    assert _format_binomial(BinomialMinPoly(n, 2, 2)) == f"{n_text}*x^2 - 2"


class TestLongLiterals:
    """Literals longer than 640 characters, the interpreter's lowest int/str
    digit limit, are read in pieces; each is accepted or refused as int()
    with the limit lifted reads it."""

    DIGITS = "1234567890" * 70
    ARABIC = "".join(chr(0x660 + int(d)) for d in DIGITS)  # Arabic-Indic digits

    def expect_as_int(self, texts):
        for text in texts:
            assert len(text) > 640
            with _every_digit():
                try:
                    expected = int(text)
                except ValueError:
                    expected = None
            if expected is None:
                with pytest.raises(argparse.ArgumentTypeError) as exc:
                    cli._int_option(text)
                assert str(exc.value) == f"invalid int value: {text!r}"
            else:
                assert cli._int_option(text) == expected, text[:20]

    def test_signs(self):
        d = self.DIGITS
        self.expect_as_int(["+" + d, "-" + d, "--" + d, "+-" + d, "−" + d, "- " + d])
        self.expect_as_int([d + "-", d[:350] + "-" + d[350:], "-0" + d])
        with _every_digit():
            value = int(d)
        assert parse_rational("-" + d) == -value
        assert parse_rational(f"+{d}/{d}7") == Fraction(value, 10 * value + 7)
        assert parse_polynomial(f"−{d}*x + {d}").terms == ((1, -value), (0, value))

    def test_whitespace_around_the_digits(self):
        d = self.DIGITS
        self.expect_as_int([f" {d} ", f"\t\n{d}\r\n", f"\u00a0-{d}\u2003", f"\x1c{d}"])
        self.expect_as_int([d[:350] + " " + d[350:], f"- {d}", f"{d}\u00a0_1"])

    def test_underscores_between_digits(self):
        d = self.DIGITS
        grouped = "_".join(d[i : i + 3] for i in range(0, len(d), 3))
        self.expect_as_int([grouped, "-" + grouped, f" {grouped} "])
        self.expect_as_int(["_" + d, d + "_", d[:350] + "__" + d[350:], "-_" + d])
        # the expression and rational grammars take digits only
        with pytest.raises(ParseError) as exc:
            parse_rational(grouped)
        assert exc.value.position == 3
        with pytest.raises(ParseError) as exc:
            parse_polynomial(f"{grouped}*x")
        assert str(exc.value) == "unexpected character '_' (at position 3)"

    def test_non_ascii_decimal_digits(self):
        d, arabic = self.DIGITS, self.ARABIC
        fullwidth = "".join(chr(0xFF10 + int(c)) for c in d)
        self.expect_as_int([arabic, "-" + arabic, fullwidth, d[:350] + arabic[350:]])
        self.expect_as_int(["²" * 700, d + "²", "٣_" + arabic])
        with _every_digit():
            value = int(d)
        assert parse_rational(f"-{arabic}/7") == Fraction(-value, 7)
        assert parse_polynomial(f"[{arabic}, {fullwidth}]").terms == ((1, value), (0, value))

    def test_bad_syntax(self, capsys):
        d = self.DIGITS
        self.expect_as_int([d + "a", "0x" + d, d + ".5", d + "e3", d + "/7", "1" + " " * 700])
        # options: argparse's text of the refusal
        _, err = run_cli(capsys, ["bound", "--leading", d + "a"], expect_exit=2)
        assert json.loads(err) == {
            "error": f"argument --leading: invalid int value: '{d}a'",
            "kind": "parse",
        }
        # rationals and polynomials: the grammar refuses before any conversion
        with pytest.raises(ParseError) as exc:
            parse_rational(d + ".5")
        assert str(exc.value) == f"not a rational: '{d}.5' (at position 700)"
        with pytest.raises(ParseError) as exc:
            parse_polynomial(f"[{d}a]")
        assert str(exc.value) == f"bad integer coefficient '{d}a' (at position 1)"


# int()'s whitespace is str.isspace but U+001C-U+001F, which are strays here
_SPACES = " \t\n\x0b\x0c\x85\u00a0\u2003"
_SIGNS = ["", "", "+", "-", "\u2212", "+-"]
_DIGIT_SETS = ["0123456789", "0123456789", "\u0660\u0661\u0662\u0663\u0664"
               "\u0665\u0666\u0667\u0668\u0669", "0123456789\u0660\u0665\u0669"]
_STRAYS = "_+- \u2212a\u00b2.\x1c\x1d\x1e\x1f"


def _option_text(rng, length):
    """A text of at most length characters near int()'s syntax: spaces, a
    sign, digits of one set with single underscores between some, spaces,
    and in three texts of ten one stray character in place of another."""
    head = "".join(rng.choices(_SPACES, k=rng.randrange(3))) + rng.choice(_SIGNS)
    tail = "".join(rng.choices(_SPACES, k=rng.randrange(3)))
    digits = rng.choice(_DIGIT_SETS)
    body = [
        "_" if i and rng.random() < 0.04 else rng.choice(digits)
        for i in range(max(1, length - len(head) - len(tail)))
    ]
    text = (head + "".join(body) + tail)[:length]
    if rng.random() < 0.3:
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice(_STRAYS) + text[i + 1 :]
    return text


class TestLiteralSyntax:
    """Each caller of _int_literal checks its own text's syntax: the
    expression and rational grammars and the coefficient list take
    [+-]?\\d+, and the integer options take int()'s syntax."""

    def test_options_read_as_int_at_every_length(self):
        # options as short as one character go through the option's own
        # syntax check, not only those past the interpreter's digit limit
        rng = random.Random(640)
        accepted = 0
        for length in range(1, 701):
            for _ in range(4):
                text = _option_text(rng, length)
                with _every_digit():
                    try:
                        expected = int(text)
                    except ValueError:
                        expected = None
                if expected is None:
                    with pytest.raises(argparse.ArgumentTypeError) as exc:
                        cli._int_option(text)
                    assert str(exc.value) == f"invalid int value: {text!r}"
                else:
                    assert cli._int_option(text) == expected, text[:20]
                    accepted += 1
        assert 500 < accepted < 2300  # both sides are well covered

    @pytest.mark.parametrize("count", [617, 618, 19729])
    def test_lengths_around_the_thresholds_are_read(self, count):
        # 617 digits go to int() at once, 618 in pieces; 19729 is the cap
        with _every_digit():
            digits = str(2**65536 - 1)[:count]
            value = int(digits)
        with _digit_limit(640):
            assert parse_rational(f"-{digits}") == -value
            assert parse_rational(f"1/{digits}") == Fraction(1, value)
            assert parse_polynomial(f"{digits}*x - 1").terms == ((1, value), (0, -1))
            assert parse_polynomial(f"[1, -{digits}]").terms == ((1, -value), (0, 1))
            assert cli._int_option(f" +{digits}\n") == value

    def test_one_digit_past_the_cap_is_refused_unread(self):
        digits = "1" * 19730
        refusal = (
            "integer literal of 19730 digits exceeds the supported size of "
            "65536 bits (19729 digits)"
        )
        with _digit_limit(640):
            for parse, text, position in [
                (parse_rational, f"-{digits}", 0),
                (parse_rational, f"1/{digits}", 2),
                (parse_polynomial, f"{digits}*x - 1", 0),
                (parse_polynomial, f"[1, -{digits}]", 4),
            ]:
                with pytest.raises(ParseError) as exc:
                    parse(text)
                assert str(exc.value) == f"{refusal} (at position {position})"
            with pytest.raises(argparse.ArgumentTypeError) as exc:
                cli._int_option(f" +{digits}\n")
            assert str(exc.value) == refusal

    def test_width_help_states_the_default(self):
        # the parser is built before certify is imported, so the help text
        # restates certify.DEFAULT_WIDTH
        from selfpower.certify import DEFAULT_WIDTH

        (commands,) = [
            action
            for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        (width,) = [a for a in commands.choices["classify"]._actions if a.dest == "width"]
        assert width.help.endswith(f"(default {format_fraction(DEFAULT_WIDTH)})")


def _reference_coefficient_list(text):
    """The coefficient-list reader as it was before it read in one pass: each
    entry is found again with str.index, checked with re.fullmatch and
    converted, zeros included.  It has no degree cap."""
    if not text.endswith("]"):
        raise ParseError("missing closing ']'", position=len(text))
    inner = text[1:-1].strip()
    if not inner:
        raise ParseError("empty polynomial", position=1)
    coeffs = []
    offset = 1
    for part in inner.split(","):
        token = part.strip()
        start = text.index(part, offset)
        if not re.fullmatch(r"[+-]?\d+", token):
            raise ParseError(f"bad integer coefficient {token!r}", position=start)
        coeffs.append(cli._int_literal(token, start + len(part) - len(part.lstrip())))
        offset = start + len(part)
    return dict(enumerate(coeffs))


# the characters of the drawn list texts: signs, ASCII, Arabic-Indic and
# fullwidth digits, spaces, commas, brackets and strays; the digits and
# commas come often, so most entries are literals and some texts parse
_LIST_CHARS = (
    "+-−" + "0123456789" * 2 + "000" + "٠٣٩" + "０５"
    + " " * 4 + "\t\x85\xa0\x1c\x1d\x1e\x1f" + "," * 8 + "[]x_"
)


def _list_text(rng):
    """A text near a coefficient list: spaces, '[', up to 16 drawn characters,
    mostly a ']', spaces."""
    head = rng.choice(["", "", " ", "\t"]) + "["
    body = "".join(rng.choices(_LIST_CHARS, k=rng.randrange(17)))
    return head + body + ("]" if rng.random() < 0.9 else "") + rng.choice(["", " "])


def _outcome(text):
    try:
        return parse_polynomial(text)
    except ParseError as exc:
        return str(exc), exc.position


class TestCoefficientList:
    """The coefficient list is read in one pass, straight to its nonzero
    terms, and keeps the reference reader's results and error positions."""

    def test_agrees_with_the_reference_reader(self, monkeypatch):
        rng = random.Random(2026)
        texts = [_list_text(rng) for _ in range(100_000)]
        monkeypatch.setattr(cli, "_parse_coefficient_list", _reference_coefficient_list)
        expected = [_outcome(text) for text in texts]
        monkeypatch.undo()
        accepted = 0
        for text, want in zip(texts, expected):
            assert _outcome(text) == want, text
            accepted += isinstance(want, IntPolynomial)
        assert 10_000 < accepted < 90_000  # both sides are well covered

    @pytest.mark.parametrize(
        "text, position",
        [
            ("[1,,2]", 2),  # an empty entry stands at the comma before it
            ("[  ,1]", 1),  # or at 1 if it is the first
            ("[1, ]", 2),
            ("[1, , 2]", 3),  # a blank entry is not empty: one past its comma
            ("[  x, 1]", 3),  # the first entry past '[' and its spaces
            ("[1,  x]", 3),  # a later one one past its comma
        ],
    )
    def test_positions_of_bad_entries(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert exc.value.position == position
        assert str(exc.value).startswith("bad integer coefficient ")

    def test_zero_entries_are_checked_and_skipped(self, monkeypatch):
        calls = []

        def counting(text, position):
            calls.append(text)
            return int_literal(text, position)

        int_literal = cli._int_literal
        monkeypatch.setattr(cli, "_int_literal", counting)
        text = "[-1, " + "0, " * 65535 + "2]"
        assert parse_polynomial(text).terms == ((65536, 2), (0, -1))
        assert calls == ["-1", "2"]  # not once per entry
        # every zero's syntax is still checked
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text.replace("0, 2]", "0x, 2]"))
        assert str(exc.value) == f"bad integer coefficient '0x' (at position {len(text) - 6})"

    def test_degree_cap(self):
        # 65,537 entries reach degree 65536; the next entry is refused at its
        # start, as x^65537 is refused at its exponent
        cap = cli._MAX_DEGREE
        at_cap = "[-1, " + "0, " * (cap - 1) + "2]"
        assert parse_polynomial(at_cap).terms == ((cap, 2), (0, -1))
        past = at_cap[:-1] + ", 3]"
        with pytest.raises(ParseError) as exc:
            parse_polynomial(past)
        assert str(exc.value) == (
            f"coefficient of degree {cap + 1} exceeds the supported degree {cap} "
            f"(at position {len(at_cap)})"
        )
        # a zero entry past the cap is refused too, and an empty one at its comma
        for tail, position in ((", 0]", len(at_cap)), (",]", len(at_cap) - 1)):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(at_cap[:-1] + tail)
            assert exc.value.position == position
        # an entry refused before the cap is reported first
        with pytest.raises(ParseError) as exc:
            parse_polynomial("[x" + ", 0" * (cap + 5) + "]")
        assert str(exc.value) == "bad integer coefficient 'x' (at position 1)"


class TestGoldenOutputs:
    def test_solve_json(self, capsys):
        out, _ = run_cli(capsys, ["solve", "--alpha", "[−1, 0, 2]", "--json"])
        assert out == (
            '{"alpha": "positive root of 2*x^2 - 1", "method": "divisors", '
            '"scan_count": 5, "solutions": ["1/4", "1/2"]}\n'
        )

    def test_solve_human(self, capsys):
        out, _ = run_cli(capsys, ["solve", "--alpha", "2*x^2 - 1"])
        assert out == (
            "x^x = positive root of 2*x^2 - 1: solutions 1/4, 1/2 "
            "(5 tests, divisors)\n"
        )

    def test_rational_alpha_reads_the_same_in_every_form(self, capsys):
        # a rational alpha is the target of degree 1, however it is written
        for forms, payload in (
            (
                ("3/2", "2*x - 3", "[-3, 2]", "-2*x + 3", "6/4", "[3, -2]"),
                '{"alpha": "3/2", "method": "enumeration", "scan_count": 2, '
                '"solutions": []}\n',
            ),
            (
                ("27", "x - 27", "[-27, 1]", "−x + 27"),
                '{"alpha": "27", "method": "enumeration", "scan_count": 3, '
                '"solutions": ["3"]}\n',
            ),
        ):
            humans = set()
            for alpha in forms:
                out, _ = run_cli(capsys, ["solve", "--alpha", alpha, "--json"])
                assert out == payload, alpha
                out, _ = run_cli(capsys, ["solve", "--alpha", alpha])
                humans.add(out)
            assert len(humans) == 1, humans
        assert humans == {"x^x = 27: solutions 3 (3 tests, enumeration)\n"}

    def test_non_primitive_binomial_reads_as_its_primitive_one(self, capsys):
        # c*P has the roots of P, so its content is divided out before the
        # binomial is recognised, as the text of a rational is reduced
        def outcome(alpha, flags):
            try:
                code = main(["solve", "--alpha", alpha, *flags])
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        for primitive, scaled in (
            ("2*x^2 - 1", ("4*x^2 - 2", "[-2, 0, 4]", "-6*x^2 + 3", "2^70*x^2 - 2^69")),
            ("3*x^3 - 2", ("6*x^3 - 4", "[-6, 0, 0, 9]")),
            ("x - 2", ("2*x - 4", "[-8, 4]", "-4*x + 8")),
            ("x^2 - 4", ("3*x^2 - 12", "[-12, 0, 3]")),
        ):
            for flags in ([], ["--json"], ["--verify-both"]):
                expected = outcome(primitive, flags)
                for alpha in scaled:
                    assert outcome(alpha, flags) == expected, (alpha, flags)

    def test_solve_rational_alpha(self, capsys):
        out, _ = run_cli(capsys, ["solve", "--alpha", "27", "--json"])
        payload = json.loads(out)
        assert payload["solutions"] == ["3"]
        assert payload["method"] == "enumeration"

    def test_minpoly_json(self, capsys):
        out, _ = run_cli(capsys, ["minpoly", "2/3", "--json"])
        assert out == '{"d": 3, "r": 4, "s": 9}\n'

    def test_minpoly_human(self, capsys):
        out, _ = run_cli(capsys, ["minpoly", "8/27"])
        assert out == "minimal polynomial of (8/27)^(8/27): 6561*x^9 - 256\n"

    def test_powcheck(self, capsys):
        out, _ = run_cli(
            capsys, ["powcheck", "--poly", "2*x", "--x", "1/4", "--json"]
        )
        assert json.loads(out) == {"exponent": "1/2", "rational": "1/2"}
        out, _ = run_cli(capsys, ["powcheck", "--poly", "x", "--x", "1/2", "--json"])
        assert json.loads(out) == {"exponent": "1/2", "rational": None}

    def test_values_past_the_int_digit_limit(self, capsys):
        # 15^20242 has 23807 digits and 5000^5000 over 18000, past the
        # interpreter's default int-to-str limit of 4300 digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["powcheck", "--poly", "6*x^3 - 8", "--x", "15"]
        json_out, _ = run_cli(capsys, argv + ["--json"])
        human_out, _ = run_cli(capsys, argv)
        minpoly_out, _ = run_cli(capsys, ["minpoly", "5000/4999", "--json"])
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with _every_digit():
            value = str(15**20242)
            assert json.loads(json_out) == {"exponent": "20242", "rational": value}
            assert human_out == f"(15)^(20242) = {value}\n"
            assert json.loads(minpoly_out)["r"] == 5000**5000

    def test_powsearch(self, capsys):
        out, _ = run_cli(
            capsys, ["powsearch", "--poly", "2*x", "--a-max", "9", "--json"]
        )
        payload = json.loads(out)
        assert payload["bound"] == 5
        assert {"value": "1/2", "x": "1/4"} in payload["hits"]

    def test_bound(self, capsys):
        out, _ = run_cli(capsys, ["bound", "--degree", "9", "--json"])
        assert json.loads(out) == {"bound": 79, "degree": 9}
        out, _ = run_cli(capsys, ["bound", "--leading", "-2", "--json"])
        assert json.loads(out) == {
            "bound": 5,
            "leading": -2,
            "zero_exponent_bound": 2,
        }

    def test_classify_integer(self, capsys):
        out, _ = run_cli(capsys, ["classify", "--q", "4", "--json"])
        assert json.loads(out) == {"integer": 2, "q": "4"}

    def test_classify_certificate(self, capsys):
        out, _ = run_cli(
            capsys, ["classify", "--q", "2", "--width", "1/8", "--json"]
        )
        payload = json.loads(out)
        cert = payload["certificate"]
        assert payload["q"] == "2"
        assert cert["scan"] == [[1, "less"], [2, "greater"]]
        lo = Fraction(cert["interval"]["lo"])
        hi = Fraction(cert["interval"]["hi"])
        assert lo < Fraction("1.5596104695") < hi
        assert hi - lo <= Fraction(1, 8)

    def test_pairs(self, capsys):
        out, _ = run_cli(capsys, ["pairs", "--m", "1", "--json"])
        assert json.loads(out) == {
            "commuting": False,
            "m": 1,
            "verified": True,
            "x": "1/2",
            "y": "1/4",
        }
        out, _ = run_cli(capsys, ["pairs", "--m", "1", "--commuting", "--json"])
        assert json.loads(out)["x"] == "2"

    def test_decompose(self, capsys):
        out, _ = run_cli(
            capsys,
            ["decompose", "--x", "16", "--y", "8", "--a", "3", "--b", "4", "--json"],
        )
        assert json.loads(out) == {"lambda": 2}

    def test_json_is_byte_deterministic(self, capsys):
        first, _ = run_cli(capsys, ["solve", "--alpha", "[-1, 0, 2]", "--json"])
        second, _ = run_cli(capsys, ["solve", "--alpha", "[-1, 0, 2]", "--json"])
        assert first == second


_X = IntPolynomial.from_coefficients((0, 1))


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        _, err = run_cli(capsys, ["solve", "--alpha", "1/0"], expect_exit=2)
        assert json.loads(err)["kind"] == "parse"

    def test_domain_error_is_3(self, capsys):
        _, err = run_cli(capsys, ["minpoly", "--", "-2/3"], expect_exit=3)
        assert json.loads(err)["kind"] == "domain"

    def test_precondition_error_is_3(self, capsys):
        _, err = run_cli(
            capsys,
            ["decompose", "--x", "4", "--y", "9", "--a", "2", "--b", "3"],
            expect_exit=3,
        )
        assert json.loads(err)["kind"] == "domain"

    def test_resource_error_is_4(self, capsys):
        _, err = run_cli(capsys, ["pairs", "--m", "10000000"], expect_exit=4)
        assert json.loads(err)["kind"] == "resource"

    def test_reducible_target_is_reduced(self, capsys):
        # x^2 - 4 is answered for its positive root 2, so it exits 0
        out, _ = run_cli(capsys, ["solve", "--alpha", "x^2 - 4", "--json"])
        assert json.loads(out) == {
            "alpha": "2",
            "method": "enumeration",
            "scan_count": 2,
            "solutions": [],
        }

    def test_non_binomial_target_is_3(self, capsys):
        _, err = run_cli(capsys, ["solve", "--alpha", "x^2 + x + 1"], expect_exit=3)
        assert json.loads(err)["kind"] == "domain"

    def test_constant_polynomial_target_is_3_with_the_shape_text(self, capsys):
        _, shape = run_cli(capsys, ["solve", "--alpha", "x^2 + x + 1"], expect_exit=3)
        for alpha in ("x^0", "[1, 0]", "0*x + 1", "[5]", "3*x^0"):
            _, err = run_cli(capsys, ["solve", "--alpha", alpha], expect_exit=3)
            assert err == shape, alpha
            assert "as_binomial" not in err

    def test_negative_powcheck_base_is_parse_error(self, capsys):
        _, err = run_cli(
            capsys, ["powcheck", "--poly", "x", "--x", "-1/2"], expect_exit=2
        )
        assert json.loads(err)["kind"] == "parse"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["minpoly", "--", "-" + "9" * 3000 + "/7"], 3),
            (["powcheck", "--poly", "x", "--x=-" + "9" * 3000 + "/7"], 3),
        ],
    )
    def test_refused_rationals_are_written_by_bit_length(self, capsys, argv, code):
        # every digit of the rejected rational made a 3,063-byte error line
        _, err = run_cli(capsys, argv, expect_exit=code)
        assert len(err.encode()) < 200
        assert "-<9963-bit integer>" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv, name, args",
        [
            (["powcheck", "--poly", "x", "--x", "0"], "analyze_poly_power", (_X, 0)),
            (["powsearch", "--poly", "x", "--a-max", "0"], "enumerate_rational_powers", (_X, 0)),
            (["bound", "--degree", "0"], "denominator_bound", (0,)),
            (["bound", "--leading", "0"], "leading_denominator_bound", (0,)),
            (["pairs", "--m", "0"], "equal_self_power_pair", (0,)),
            (["pairs", "--m", "0", "--commuting"], "commuting_pair", (0,)),
            (["classify", "--q", "2", "--width", "0"], "classify_preimage", (2, 0)),
            (["classify", "--q", "2", "--width=-1/8"], "classify_preimage", (2, Fraction(-1, 8))),
        ],
        ids=["x", "a-max", "degree", "leading", "m", "m-commuting", "width", "width-neg"],
    )
    def test_refusals_are_the_library_functions(self, capsys, argv, name, args):
        # the function that owns the argument refuses it, once, with its text
        with pytest.raises(DomainError) as exc:
            getattr(selfpower, name)(*args)
        _, err = run_cli(capsys, argv, expect_exit=3)
        assert json.loads(err) == {"error": str(exc.value), "kind": "domain"}

    @pytest.mark.parametrize("b_max", ["1", "0", "-5"])
    def test_powsearch_b_max_below_2_is_3(self, capsys, b_max):
        _, err = run_cli(
            capsys,
            ["powsearch", "--poly", "2*x", "--a-max", "9", "--b-max", b_max],
            expect_exit=3,
        )
        assert json.loads(err) == {"error": "b_max must be >= 2", "kind": "domain"}

    def test_integer_options_keep_the_literal_cap(self, capsys):
        _, err = run_cli(capsys, ["bound", "--leading", "7" * 19730], expect_exit=2)
        assert json.loads(err) == {
            "error": "argument --leading: integer literal of 19730 digits exceeds "
            "the supported size of 65536 bits (19729 digits)",
            "kind": "parse",
        }
        _, err = run_cli(capsys, ["bound", "--degree", "abc"], expect_exit=2)
        assert json.loads(err) == {
            "error": "argument --degree: invalid int value: 'abc'",
            "kind": "parse",
        }
        # a 5000-digit option is accepted, and its human text written whole
        _, err = run_cli(capsys, ["pairs", "--m", "1" + "0" * 4999], expect_exit=4)
        assert json.loads(err)["kind"] == "resource"
        out, _ = run_cli(capsys, ["bound", "--leading", "-" + "7" * 5000])
        assert out.startswith(f"denominator bound for leading coefficient -{'7' * 5000}: ")

    def test_unsupported_q_is_3(self, capsys):
        _, err = run_cli(capsys, ["classify", "--q", "1/2"], expect_exit=3)
        assert json.loads(err)["kind"] == "domain"

    def test_argparse_errors_are_json_exit_2(self, capsys):
        _, err = run_cli(capsys, ["bound"], expect_exit=2)
        assert json.loads(err)["kind"] == "parse"
        _, err = run_cli(capsys, ["nonsense"], expect_exit=2)
        assert json.loads(err)["kind"] == "parse"
        # the rho budget, bit cap and seed are fixed: their flags are gone
        for flag in ("--factor-budget", "--bit-cap", "--seed"):
            _, err = run_cli(capsys, ["minpoly", "8/27", flag, "50"], expect_exit=2)
            assert json.loads(err) == {
                "error": f"unrecognized arguments: {flag} 50",
                "kind": "parse",
            }


# inputs from the ROADMAP's baseline table that used to hang or crawl, inputs
# that used to crash (exit 1), and the paper's objects at the caps: the one
# table of timed adversarial commands.  Each row gives argv, a time limit in
# seconds, the exact exit code and a text that must appear: in stdout when
# the command succeeds, otherwise in the error JSON, where it names the cap.
_F7 = 2**128 + 1
# past the interpreter's default 4300-digit int/str limit, within the literal cap
_LONG = "7" * 4400
_COEFFICIENT_CAP = "exceeds the supported coefficient size of 65536 bits"


def _cofactor_refused(bits: int) -> str:
    return (
        f"a cofactor of {bits} bits without prime factors up to 1000000 that is no "
        "perfect power exceeds the 1024-bit cofactor cap"
    )


def _past_bit_cap(bits: str) -> str:
    return f"needs about {bits} bits, past the bit cap of 1048576 bits"


def _scanned_to(n: int) -> str:
    # a certificate's statement names the last integer its scan compared
    return f"the scan over n = 1..{n} shows"


def _residue_filter_passer() -> int:
    """An odd 65534-bit n = 1 mod the three smallest primes q = 1 (mod 2p) of
    every prime p <= 10103.  The residue filter that perfect-power detection
    ran before its root extractions passed n for each of those p, so each
    cost a full root."""

    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))

    moduli = set()
    for p in filter(is_prime, range(2, 10104)):
        residues = filter(is_prime, itertools.count(2 * p + 1, 2 * p))
        moduli.update(itertools.islice(residues, 3))
    m = math.prod(moduli)  # 58,135 bits: some q serve two p
    return 1 + m * (2 ** (65534 - m.bit_length()) + 12346)


_FILTER_PASSER = _residue_filter_passer()
with _every_digit():
    _LARGEST = str(2**65536 - 1)  # the largest literal, 19729 digits
    _BELOW = str(2**65536 - 2)
    # power_gcd tests the smaller operand for perfect powers first and
    # stops at g = 1: over 2 it never reaches n, over 2^65535 it tests n
    _FILTER_FRACTION = f"{_FILTER_PASSER}/{2**65535}"
    _R = 2**65535 + 1  # 19729 digits, divisible by 9 and not by 27
    _RATIONAL = f"{_R}/{3**19000}"
    _BINOMIAL = f"3^19000*x^2 - {_R}"
    _REDUCED = f"{_R // 9}/{3**18998}"
    _REDUCED_BINOMIAL = f"{3**18998}*x^2 - {_R // 9}"
    _LONG_MINPOLY = f'{{"d": {_LONG}, "r": 1, "s": {_LONG}}}'
    _LARGEST_MINPOLY = f'{{"d": {_LARGEST}, "r": 1, "s": {_LARGEST}}}'
    _PRIME_POWER = f"positive root of {1000003**3000}*x^2 - 2"
    _SMALL_PRIME_POWER = f"positive root of {3**40000}*x^2 - 2"
_ADVERSARIAL = [
    pytest.param(
        ["solve", "--alpha", "x^200-2", "--verify-both"],
        30, 0, "positive root of x^200 - 2",
        id="x^200-2",
    ),
    pytest.param(
        ["solve", "--alpha", "x^20000 - 3"], 30, 0, "positive root of x^20000 - 3", id="x^20000"
    ),
    pytest.param(
        ["solve", "--alpha", "x^65536 - 3"], 30, 0, "positive root of x^65536 - 3", id="x^65536"
    ),
    pytest.param(
        ["solve", "--alpha", "x^9000*x^9000*x^9000 - 3"],
        30, 0, "positive root of x^27000 - 3",
        id="3*9000",
    ),
    pytest.param(
        ["solve", "--alpha", "x^60000*x^60000*x^60000 - 3"],
        30, 2, "product of degree 120000 exceeds the supported degree 65536",
        id="3*60000",
    ),
    # README's caps list names F7 = 2^128 + 1 as the coefficient that spends
    # the rho budget: about 0.8 s, then exit 4 naming the budget
    pytest.param(
        ["solve", "--alpha", f"{_F7}*x^2 - 1"],
        10, 4, "factorization budget of 500000 rho iterations exhausted on a 129-bit",
        id="F7",
    ),
    # a width of 10^-300 makes ~1000 probes of the cell search on the log2
    # path and 10^-600 ~2000, each starting its enclosures at the precision
    # its bracket needs; each answers in a second or less, so a minute means
    # the enclosures slid back towards the square-and-extract cost or the
    # probes towards the top of the precision ladder
    pytest.param(
        ["classify", "--q", "2", "--width", "1/1" + "0" * 300],
        60, 0, _scanned_to(2),
        id="classify-1e-300",
    ),
    pytest.param(
        ["classify", "--q", "3/2", "--width", "1/1" + "0" * 600],
        60, 0, _scanned_to(2),
        id="classify-3/2-1e-600",
    ),
    pytest.param(
        ["classify", "--q", "100000000000000000001", "--width", "1/1" + "0" * 600],
        60, 0, _scanned_to(17),
        id="classify-1e20+1-1e-600",
    ),
    # q past 2^10000 takes more halvings of [1, q] than the probe cap allows,
    # but the cell search probes only inside (n - 1, n): about ten probes
    pytest.param(
        ["classify", "--q", "1" + "0" * 3699 + "1", "--width", "1/1000"],
        10, 0, _scanned_to(1202),
        id="classify-1e3699+1",
    ),
    pytest.param(
        ["classify", "--q", "1" + "0" * 18999 + "1", "--width", "1/1000"],
        10, 0, _scanned_to(5123),
        id="classify-1e18999+1",
    ),
    pytest.param(
        ["solve", "--alpha", f"{_LONG}*x^2 - 1"], 30, 4, _cofactor_refused(14216), id="long-term"
    ),
    pytest.param(
        ["solve", "--alpha", f"[-1, 0, {_LONG}]"],
        30, 4, _cofactor_refused(14216),
        id="long-coefficient",
    ),
    # the densest list one argument holds on Linux (131,071 bytes at most):
    # 131,070 bytes, degree 65,533.  Each entry's start is carried forward
    # from the one before; a reader that searched the text from the front
    # for each entry would be quadratic
    pytest.param(
        ["solve", "--alpha", "[-1," + "0," * 65532 + "2]"],
        5, 0, "positive root of 2*x^65533 - 1",
        id="densest-list",
    ),
    pytest.param(["minpoly", f"1/{_LONG}"], 30, 0, _LONG_MINPOLY, id="long-fraction"),
    pytest.param(
        ["classify", "--q", "2", "--width", f"1/{_LONG}"],
        30, 4, "needs 14617 probes, past the cap of 10000 probes",
        id="long-width",
    ),
    pytest.param(
        ["classify", "--q", "2", "--width", "1/1" + "0" * 3100],
        10, 4, "needs 10298 probes, past the cap of 10000 probes",
        id="classify-1e-3100",
    ),
    # refused when read, so the reduction its name promises is never reached;
    # reducible-at-caps below reaches it
    pytest.param(
        ["solve", "--alpha", "99999999999^65536*x^2 - 1"],
        30, 2, f"power 99999999999^65536 {_COEFFICIENT_CAP}",
        id="huge-reducible",
    ),
    # the largest reducible target inside the parser caps reduces to the
    # minimal polynomial of its root; the reduction tries only the prime
    # exponents dividing d = 2^16
    pytest.param(
        ["solve", "--alpha", "3^32768*x^65536 - 2^32768"],
        10, 0, "positive root of 3*x^2 - 2",
        id="reducible-at-caps",
    ),
    pytest.param(
        ["solve", "--alpha", "1000003^3000*x^2 - 2"], 30, 0, _PRIME_POWER, id="huge-prime-power"
    ),
    # the 59,795-bit cofactor is the cube of a 19,932-bit one
    pytest.param(
        ["solve", "--alpha", "1000003^2997*1000033^3*x^2 - 2"],
        30, 4, _cofactor_refused(19932),
        id="huge-cube",
    ),
    pytest.param(
        ["solve", "--alpha", "1000003^3000*1000033*x^2 - 2"],
        30, 4, _cofactor_refused(59815),
        id="huge-cofactor",
    ),
    pytest.param(
        ["solve", "--alpha", "3^40000*x^2 - 2"], 30, 0, _SMALL_PRIME_POWER,
        id="huge-small-prime-power",
    ),
    pytest.param(
        ["solve", "--alpha", "2^65535*x + 2^65535*x - 1"],
        30, 2, f"sum coefficient of 65537 bits {_COEFFICIENT_CAP}",
        id="sum-past-cap",
    ),
    pytest.param(
        ["powcheck", "--poly", "x^65536 + 1", "--x", "99999/99998"],
        10, 4, _past_bit_cap("1114113"),
        id="value-past-bit-cap",
    ),
    # just inside the bit cap: 983,041 bits, written in ~296,000 digits; the
    # text closes the answer, so all of it was written
    pytest.param(
        ["powcheck", "--poly", "x^65536 + 1", "--x", "32767/32766"],
        9, 0, '"rational": null}',
        id="value-at-bit-cap",
    ),
    # x and y with numerators and denominators of about 952,000 bits, written
    # in decimal: 8.7 s when str wrote them (2 cores, Python 3.11)
    pytest.param(
        ["pairs", "--m", "60000"], 5, 0, '"m": 60000, "verified": true', id="pair-at-bit-cap"
    ),
    pytest.param(
        ["powsearch", "--poly", "2*x", "--a-max", "1000000000000"],
        10, 4, "has 4000000000000 points, past the cap of 1048576 points",
        id="sweep-a",
    ),
    pytest.param(
        ["classify", "--q", _LARGEST], 10, 0, _scanned_to(5298), id="classify-at-literal-cap"
    ),
    pytest.param(
        ["classify", "--q", f"{_LARGEST}/{_BELOW}"],
        10, 0, _scanned_to(2),
        id="classify-near-1-at-cap",
    ),
    # both denominator bounds are exact at every size: at the literal cap each
    # takes one logarithm enclosure of about 65,600 bits, about 2 s
    pytest.param(
        ["bound", "--degree", _LARGEST],
        10, 0, '{"bound": 3640501527980196670214',
        id="bound-degree-at-literal-cap",
    ),
    pytest.param(
        ["bound", "--leading", _LARGEST],
        10, 0, '{"bound": 3939100125574292697866',
        id="bound-leading-at-literal-cap",
    ),
    pytest.param(
        ["minpoly", f"{_LARGEST}/2"],
        10, 4, "(<65536-bit integer>/2) " + _past_bit_cap("<65553-bit integer>"),
        id="minpoly-at-literal-cap",
    ),
    pytest.param(
        ["minpoly", f"1/{_LARGEST}"], 10, 0, _LARGEST_MINPOLY, id="minpoly-1/at-literal-cap"
    ),
    # exits 4 on the bit cap after the perfect-power test of n: 11.5 s when
    # the residue filter passed n for every prime exponent up to 10103
    pytest.param(
        ["minpoly", _FILTER_FRACTION],
        3, 4, "(<65534-bit integer>/<65536-bit integer>) " + _past_bit_cap("<65551-bit integer>"),
        id="minpoly-residue-filter-passer",
    ),
    pytest.param(
        ["powsearch", "--poly", "x", "--a-max", "5", "--b-max", "100000000000"],
        10, 4, "has 499999999995 points, past the cap of 1048576 points",
        id="sweep-b",
    ),
    # 5-13 s when every scan step and probe took the gcd of alpha's long
    # numerator and denominator again; the record proves it once
    pytest.param(
        ["solve", "--alpha", _RATIONAL], 3, 0, f'"alpha": "{_REDUCED}"', id="solve-long-rational"
    ),
    pytest.param(
        ["classify", "--q", _RATIONAL, "--width", "1/1000"],
        3, 0, _scanned_to(3060),
        id="classify-long-rational",
    ),
    pytest.param(
        ["solve", "--alpha", _BINOMIAL, "--verify-both"],
        3, 0, f"positive root of {_REDUCED_BINOMIAL}",
        id="solve-long-binomial",
    ),
]


def run_module(argv, limit, int_max_str_digits=None):
    """Run `python -m selfpower.cli argv --json` on this checkout's sources,
    with PYTHONINTMAXSTRDIGITS unset or set to int_max_str_digits."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if int_max_str_digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = int_max_str_digits
    return subprocess.run(
        [sys.executable, "-m", "selfpower.cli", *argv, "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=limit,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "[-1, 0, 2]"],
        ["solve", "--alpha", f"1{'0' * 4999}*x^2 - 1"],
        ["solve", "--alpha", f"{'7' * 19730}*x - 1"],
        ["classify", "--q", f"1{'0' * 698}1"],
        ["bound", "--leading", "7" * 5000],
        ["powcheck", "--poly", "6*x^3 - 8", "--x", "15"],
    ],
    ids=["readme", "5000-digit-coefficient", "past-cap", "700-digit-q", "option", "output"],
)
def test_int_digit_limit_setting_changes_nothing(argv):
    # the interpreter's int/str digit limit, default, lifted and at its minimum
    runs = [run_module(argv, 30, setting) for setting in (None, "0", "640")]
    results = {(proc.returncode, proc.stdout, proc.stderr) for proc in runs}
    assert len(results) == 1, [proc.stderr for proc in runs]


_SOLVER = {"arith", "minpoly", "solver"}
_POLYPOWER = {"arith", "minpoly", "polypower"}
#: selfpower modules a command loads besides the package, errors and cli
_LOADS = {
    "solve": _SOLVER,
    "minpoly": {"arith", "minpoly"},
    "powcheck": _POLYPOWER,
    "powsearch": _POLYPOWER,
    "bound --degree": _SOLVER,
    "bound --leading": _POLYPOWER,
    "classify": _SOLVER | {"certify"},
    "pairs": _SOLVER,
    "decompose": {"arith"},
}

# imports selfpower.cli, runs one command through main, then prints the heavy
# standard modules and the selfpower modules loaded, as the last line
_STARTUP_PROBE = """
import sys, selfpower.cli
selfpower.cli.main(sys.argv[1:])
heavy = [m for m in ("dataclasses", "inspect", "random", "typing") if m in sys.modules]
names = sorted(sys.modules)
loaded = [m.removeprefix("selfpower.") for m in names if m.startswith("selfpower.")]
print((heavy, loaded))
"""


def test_malformed_text_loads_no_arithmetic():
    # a command reads its argument text before it imports the modules that
    # act on it, so a parse error compiles none of them
    probe = (
        "import sys, selfpower.cli\n"
        "try:\n"
        "    selfpower.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        "print(sorted(m for m in sys.modules if m.startswith('selfpower')))\n"
    )
    root = Path(__file__).resolve().parents[1]
    for argv in (
        ["powcheck", "--poly", "2*x^^2", "--x", "1"],
        ["powsearch", "--poly", "[1, 2", "--a-max", "3"],
        ["solve", "--alpha", "2*x^^2 - 1"],
        ["solve", "--alpha", "[1, 2"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=30,
        )
        loaded = "['selfpower', 'selfpower.cli', 'selfpower.errors']"
        assert proc.stdout.splitlines() == ["2", loaded], (argv, proc.stderr)


def test_startup_leaves_heavy_modules_unloaded():
    # every CLI call pays for the modules it loads; dataclasses alone pulls
    # in inspect, ast, dis and tokenize, and each selfpower module a command
    # does not run is compiled for nothing where no bytecode is cached
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text().splitlines()
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in readme
        if line.startswith("selfpower ")
    ]
    assert commands
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _STARTUP_PROBE, *argv],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        key = " ".join(argv[:2]) if argv[0] == "bound" else argv[0]
        expected = ["cli", "errors", *_LOADS[key]]
        last = proc.stdout.splitlines()[-1]
        assert last == repr(([], sorted(expected))), argv


_KINDS = {2: "parse", 3: "domain", 4: "resource"}


class TestAdversarialInputs:
    @pytest.mark.parametrize("argv, limit, code, text", _ADVERSARIAL)
    def test_finishes_or_fails_typed(self, argv, limit, code, text):
        proc = run_module(argv, limit)
        assert proc.returncode == code, proc.stderr
        if code:
            error = json.loads(proc.stderr)
            assert error["kind"] == _KINDS[code]
            assert text in error["error"], error
        else:
            with _every_digit():  # an answer may hold integers of any length
                json.loads(proc.stdout)
            assert text in proc.stdout

    def test_residue_filter_passer_is_tested_for_powers(self, capsys, monkeypatch):
        # the row is there for the perfect-power walk over n; over a small
        # denominator power_gcd stops at g = 1 before it reaches n
        argv = next(p.values[0] for p in _ADVERSARIAL if p.id == "minpoly-residue-filter-passer")
        tested = []

        def recording(n, *args):
            tested.append(n)
            return real(n, *args)

        real = minpoly._as_perfect_power
        monkeypatch.setattr(minpoly, "_as_perfect_power", recording)
        run_cli(capsys, [*argv, "--json"], expect_exit=4)
        assert _FILTER_PASSER in tested, [n.bit_length() for n in tested]


def test_closed_stdout_exits_quietly():
    # a reader that stops early, as `| head -c 100` does, chose to: no
    # traceback, and exit 0, so `set -o pipefail` scripts do not fail on it;
    # the answer (158 KB) outgrows a pipe buffer, so its write fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with _every_digit():
        fraction = f"7/{2**65536 - 1}"
    proc = subprocess.Popen(
        [sys.executable, "-m", "selfpower.cli", "minpoly", fraction, "--json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (0, b"")


def _spellings(value: int) -> list[str]:
    # decimal, and 2^k or 10^k where the value is that power
    forms = [str(value)]
    if value & (value - 1) == 0:
        forms.append(f"2^{value.bit_length() - 1}")
    if value == 10 ** (len(str(value)) - 1):
        forms.append(f"10^{len(str(value)) - 1}")
    return forms


def test_readme_states_every_cap():
    # README restates each cap by hand, in the phrase next to it here; a cap
    # changed in the code and not in its text fails
    from selfpower import arith, certify, errors, polypower

    phrases = {
        "BIT_CAP": (arith.BIT_CAP, "the bit cap is {} "),
        "_TRIAL_LIMIT": (arith._TRIAL_LIMIT, "trial division up to {} leaves"),
        "_FACTOR_BUDGET": (arith._FACTOR_BUDGET, "may spend {} iterations"),
        "_MAX_COFACTOR_BITS": (arith._MAX_COFACTOR_BITS, "a cofactor of more than {} bits"),
        "_MAX_DEGREE": (cli._MAX_DEGREE, "the degree cap of {})"),
        "_MAX_COEFFICIENT_BITS": (cli._MAX_COEFFICIENT_BITS, "may have at most {} bits"),
        "_MAX_LITERAL_DIGITS": (cli._MAX_LITERAL_DIGITS, "One of more than {} digits"),
        "_MAX_PROBES": (certify._MAX_PROBES, "makes at most {} probes"),
        "_MAX_SWEEP_POINTS": (polypower._MAX_SWEEP_POINTS, "sweep covers at most {} "),
        "DECIMAL_TEXT_BITS": (errors.DECIMAL_TEXT_BITS, "an integer of more than {} bits"),
        "_MAX_LOG_PRECISION": (arith._MAX_LOG_PRECISION, "precision cap of {} bits"),
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Exit codes and errors\n", 1)[1].split("\n#", 1)[0]
    section = " ".join(section.split())
    for name, (value, phrase) in phrases.items():
        stated = [phrase.format(form) for form in _spellings(value)]
        assert any(text in section for text in stated), (name, stated)


def test_binomial_text_is_the_polynomial_text():
    for s in (1, 2, 6561, 10**700):
        for d in (1, 2, 9, 40):
            for r in (1, 3, 256):
                if math.gcd(r, s) == 1:
                    # a plain triple: a record would reduce x^2 - 1 to x - 1
                    binomial = (s, d, r)
                    dense = IntPolynomial.from_coefficients((-r, *[0] * (d - 1), s))
                    expected = format_polynomial(dense)
                    assert _format_binomial(binomial) == expected
    # a degree far past the parser's cap renders from the two terms alone
    assert _format_binomial(BinomialMinPoly(2, 2**128 + 1, 3)) == (
        f"2*x^{2**128 + 1} - 3"
    )


class TestMinpolyWithoutFactorization:
    """Minimal polynomials of inputs whose factorization is out of reach:
    each used to exit 4 on the rho budget or the cofactor cap."""

    def test_f7_denominator(self):
        proc = run_module(["minpoly", f"1/{_F7}"], 10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"d": _F7, "r": 1, "s": _F7}

    def test_f7_numerator_meets_the_bit_cap(self):
        proc = run_module(["minpoly", f"{_F7}/2"], 10)
        assert proc.returncode == 4, proc.stderr
        assert "past the bit cap of 1048576 bits" in json.loads(proc.stderr)["error"]

    def test_4000_digit_prime_denominator(self):
        b = 10**3999 + 7
        with _every_digit():  # the test's own text of b, at any digit limit
            proc = run_module(["minpoly", f"1/{b}"], 10)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["d"] == b

    def test_smooth_denominator(self):
        # lcm(1..8999), 12983 bits, is no perfect power
        b = math.lcm(*range(1, 9000))
        with _every_digit():
            proc = run_module(["minpoly", f"1/{b}"], 10)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == {"d": b, "r": 1, "s": b}


class TestConfiguration:
    def test_factor_budget_flag(self, capsys):
        # the fixed rho budget cannot split a 240-bit semiprime
        p = 1_225_940_852_714_443_485_428_456_866_477_129_349
        q = 947_243_141_625_855_928_478_791_872_949_100_783
        _, err = run_cli(
            capsys, ["solve", "--alpha", f"[-3, 0, {p * q}]"], expect_exit=4
        )
        assert json.loads(err)["kind"] == "resource"

    def test_classify_width_flag(self, capsys):
        out, _ = run_cli(
            capsys, ["classify", "--q", "2", "--width", "1/4", "--json"]
        )
        payload = json.loads(out)
        lo = Fraction(payload["certificate"]["interval"]["lo"])
        hi = Fraction(payload["certificate"]["interval"]["hi"])
        assert hi - lo <= Fraction(1, 4)
