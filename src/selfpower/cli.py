"""Command-line surface: exact parsing of rationals and integer polynomials,
command dispatch, deterministic JSON and human-readable output.

Rationals are rendered as strings ("a/b", plain "a" for integers) so exactness
survives the interface; JSON output is byte-deterministic for a fixed input
(sorted keys, canonical rendering).  Exit codes: 0 success, 2 parse error,
3 domain or precondition error, 4 resource error; errors are a single JSON
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import DECIMAL_TEXT_BITS
from .errors import DomainError, ParseError, ResourceError, number_text

# every other selfpower module is imported inside the function that needs it,
# after the argument text has parsed, so a command loads only the modules it
# runs; annotations that name their classes are never evaluated

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")

# degree ceiling for parsed polynomials, enforced on every exponent, product
# and sum; enumeration beyond this is infeasible anyway
_MAX_DEGREE = 1 << 16
# ceiling in bits for every integer literal, and for every coefficient: each
# power is checked before it is formed, each product and sum as it is formed;
# it admits 1000003^3000 (59,795 bits), and factoring and root extraction on
# coefficients this long take seconds, not minutes
_MAX_COEFFICIENT_BITS = 1 << 16
# decimal digits of 2^65536 - 1, the largest integer within the bit ceiling
_MAX_LITERAL_DIGITS = 19_729


def _normalize_minus(text: str) -> str:
    # accept the unicode minus sign U+2212 anywhere a hyphen works
    return text.replace("−", "-")


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' with an optional leading minus into a reduced fraction."""
    cleaned = _normalize_minus(text).strip()
    if _RATIONAL_RE.fullmatch(cleaned) is None:
        # the error stands at the end of the longest prefix of some rational
        end = re.match(r"[+-]?\d*(?:/\d*)?", cleaned).end()
        raise ParseError(f"not a rational: {text!r}", position=end)
    num, slash, den = cleaned.partition("/")
    numerator = _int_literal(num, 0)
    if not slash:
        return Fraction(numerator)
    denominator = _int_literal(den, len(num) + 1)
    if denominator == 0:
        raise ParseError(f"zero denominator in {text!r}", position=len(num) + 1)
    return Fraction(numerator, denominator)


# int() reads at most the 617 digits of 2^DECIMAL_TEXT_BITS at a time, so no
# int/str digit limit (640 at the lowest) changes what is read
_TEXT_DIGITS = 617
# int()'s syntax: whitespace (str.isspace but U+001C-U+001F) around a sign and
# Unicode decimal digits, single underscores between them
_LITERAL_RE = re.compile(r"[^\S\x1c-\x1f]*([+-]?)(\d+(?:_\d+)*)[^\S\x1c-\x1f]*")


def _int_literal(text: str, position: int | None) -> int:
    """The value of a decimal literal of at most _MAX_COEFFICIENT_BITS bits as
    int() reads it, its length checked first; a long one is read in halves."""
    count = len(text.lstrip("+-"))
    value = None
    if len(text) <= _TEXT_DIGITS:
        value = int(text)
    elif count <= _MAX_LITERAL_DIGITS:
        match = _LITERAL_RE.fullmatch(text)
        if match is None:
            raise ValueError("invalid decimal literal")
        value = _digits_value(match[2].replace("_", ""))
        value = -value if match[1] == "-" else value
    if value is None or value.bit_length() > _MAX_COEFFICIENT_BITS:
        size = f"{count} digits" if value is None else f"{value.bit_length()} bits"
        raise ParseError(
            f"integer literal of {size} exceeds the supported size of "
            f"{_MAX_COEFFICIENT_BITS} bits ({_MAX_LITERAL_DIGITS} digits)",
            position=position,
        )
    return value


def _digits_value(digits: str) -> int:
    # the value of a string of decimal digits, read by int() in halves
    if len(digits) <= _TEXT_DIGITS:
        return int(digits)
    half = len(digits) >> 1
    return _digits_value(digits[:-half]) * 10**half + _digits_value(digits[-half:])


def _int_option(text: str) -> int:
    """argparse type of the integer options: int()'s syntax, _int_literal's caps."""
    try:
        return _int_literal(text, None)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_text(n: int) -> str:
    """str(n) for an integer of any size, str() writing DECIMAL_TEXT_BITS
    bits at most: a longer n is halved by bits down to pieces that str()
    writes, and the pieces are recombined exactly as Decimals, as CPython
    3.12 does (_pylong)."""
    bits = n.bit_length()
    if bits <= DECIMAL_TEXT_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
    from functools import cache

    power = cache(lambda w: Decimal(2) ** w)

    def convert(m, w):  # m < 2^w
        if w <= DECIMAL_TEXT_BITS:
            return Decimal(str(m))
        h = w >> 1
        top = m >> h
        return convert(top, w - h) * power(h) + convert(m - (top << h), h)

    with localcontext(Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        return str(convert(n, bits))


def _json(value) -> str:
    """json.dumps(value, sort_keys=True), with integers written by _int_text."""
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    if type(value) is int:
        return _int_text(value)
    return json.dumps(value)


def format_fraction(q: Fraction) -> str:
    """Canonical rendering 'a/b', with '/b' omitted for integers."""
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


# ---------------------------------------------------------------------------
# polynomial parsing: expression grammar and bracketed coefficient lists
# ---------------------------------------------------------------------------


# one token after optional whitespace: an integer literal, x or an operator;
# group 3 is a character that starts no token
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([-+*^xX])|(\S))")


def _check_monomial(what: str, c: int, n: int, position: int) -> None:
    # the one cap check for a product (at its '*') and a sum (at its sign)
    if n > _MAX_DEGREE:
        raise ParseError(
            f"{what} of degree {n} exceeds the supported degree {_MAX_DEGREE}",
            position=position,
        )
    if c.bit_length() > _MAX_COEFFICIENT_BITS:
        raise ParseError(
            f"{what} coefficient of {c.bit_length()} bits exceeds the supported "
            f"coefficient size of {_MAX_COEFFICIENT_BITS} bits",
            position=position,
        )


def _parse_expression(text: str) -> dict[int, int]:
    """Coefficients by degree of poly := ['+'|'-'] term (('+'|'-') term)*,
    where term := factor ('*' factor)* and factor := (INT | 'x') ['^' INT].

    Every factor and term is a monomial c*x^n, carried as (c, n); like terms
    are collected by degree, and those that cancel stay as zeros.  A character
    or literal the tokens cannot hold is refused before any grammar error,
    wherever it stands.
    """
    tokens = []  # (position, int value or operator), then (len(text), "")
    for m in _TOKEN_RE.finditer(text):
        digits, op, bad = m.groups()
        pos = m.start(m.lastindex)
        if bad:
            raise ParseError(f"unexpected character {bad!r}", position=pos)
        tokens.append((pos, op.lower() if op else _int_literal(digits, pos)))
    tokens.append((len(text), ""))

    terms: dict[int, int] = {}
    i, sign, joint = 0, 1, None  # joint: position of the sign joining a term
    if tokens[0][1] in ("+", "-"):
        sign, i = (-1 if tokens[0][1] == "-" else 1), 1
    while True:
        c, n, star = 1, 0, None  # star: position of the '*' before a factor
        while True:
            pos, atom = tokens[i]
            if atom == "x":
                fc, fn = 1, 1
            elif type(atom) is int:
                fc, fn = atom, 0
            else:
                raise ParseError("expected an integer coefficient or x", position=pos)
            i += 1
            if tokens[i][1] == "^":
                pos, e = tokens[i + 1]
                i += 2
                if type(e) is not int:
                    raise ParseError(
                        "exponent must be a nonnegative integer", position=pos
                    )
                if e > _MAX_DEGREE:
                    raise ParseError(
                        f"exponent {number_text(e)} exceeds the supported degree "
                        f"{_MAX_DEGREE}",
                        position=pos,
                    )
                # |fc|^e has more than (bit_length(fc) - 1) * e bits, so a
                # power far past the cap is refused before it is formed
                power = None
                if (fc.bit_length() - 1) * e < _MAX_COEFFICIENT_BITS:
                    power = fc**e
                if power is None or power.bit_length() > _MAX_COEFFICIENT_BITS:
                    raise ParseError(
                        f"power {number_text(fc)}^{e} exceeds the supported "
                        f"coefficient size of {_MAX_COEFFICIENT_BITS} bits",
                        position=pos,
                    )
                fc, fn = power, fn * e
            c, n = c * fc, n + fn
            if star is not None:
                _check_monomial("product", c, n, star)
            pos, op = tokens[i]
            if op != "*":
                break
            star, i = pos, i + 1
        total = terms.get(n, 0) + sign * c
        if joint is not None:
            _check_monomial("sum", total, n, joint)
        terms[n] = total
        if op not in ("+", "-"):
            break
        joint, sign, i = pos, (-1 if op == "-" else 1), i + 1
    if op != "":
        raise ParseError("unexpected trailing input", position=pos)
    return terms


def _parse_coefficient_list(text: str) -> dict[int, int]:
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
        coeffs.append(_int_literal(token, start + len(part) - len(part.lstrip())))
        offset = start + len(part)
    return dict(enumerate(coeffs))


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse '9*x^3 - 4' or the coefficient list '[-4, 0, 0, 9]' (constant first).

    Both forms produce identical polynomials, held as their nonzero terms;
    like terms are collected.
    """
    cleaned = _normalize_minus(text).strip()
    if not cleaned:
        raise ParseError("empty polynomial", position=0)
    parse = _parse_coefficient_list if cleaned.startswith("[") else _parse_expression
    terms = [(n, c) for n, c in parse(cleaned).items() if c]
    if not terms:
        raise ParseError("zero polynomial", position=0)
    # minpoly, and arith with it, is loaded only once the text has parsed
    from .minpoly import IntPolynomial

    return IntPolynomial(tuple(sorted(terms, reverse=True)))


def format_polynomial(poly: IntPolynomial) -> str:
    """Canonical rendering like '9*x^3 - 4'; reparsing gives the same polynomial."""
    parts: list[str] = []
    for k, c in poly.terms:
        mag = abs(c)
        if k == 0:
            body = _int_text(mag)
        else:
            xpart = "x" if k == 1 else f"x^{_int_text(k)}"
            body = xpart if mag == 1 else f"{_int_text(mag)}*{xpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _format_binomial(binomial: BinomialMinPoly) -> str:
    """format_polynomial of the two terms of s*x^d - r."""
    from .minpoly import IntPolynomial

    s, d, r = binomial
    return format_polynomial(IntPolynomial(((d, s), (0, -r))))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _parse_alpha(text: str) -> BinomialMinPoly:
    cleaned = _normalize_minus(text).strip()
    rational = _RATIONAL_RE.fullmatch(cleaned)
    alpha = parse_rational(cleaned) if rational else parse_polynomial(cleaned)
    from .minpoly import BinomialMinPoly

    if rational:
        return BinomialMinPoly.from_rational(alpha)
    return BinomialMinPoly.from_polynomial(alpha)


def _describe_target(target: BinomialMinPoly) -> str:
    if target.d == 1:
        return format_fraction(Fraction(target.r, target.s))
    return f"positive root of {_format_binomial(target)}"


def _cmd_solve(args):
    target = _parse_alpha(args.alpha)
    from .solver import solve

    result = solve(target, cross_check=args.verify_both)
    rendered = [format_fraction(x) for x in result.solutions]
    payload = {
        "alpha": _describe_target(target),
        "method": "enumeration" if target.d == 1 else "divisors",
        "scan_count": result.scan_count,
        "solutions": rendered,
    }
    found = "no positive rational solutions"
    if rendered:
        found = "solutions " + ", ".join(rendered)
    human = (
        f"x^x = {payload['alpha']}: {found} "
        f"({result.scan_count} tests, {payload['method']})"
    )
    return payload, human


def _cmd_minpoly(args):
    q = parse_rational(args.fraction)
    if q <= 0:
        raise DomainError(f"need a positive rational, got {number_text(q)}")
    from .minpoly import minimal_polynomial_of_self_power

    binomial = minimal_polynomial_of_self_power(q.numerator, q.denominator)
    payload = {"d": binomial.d, "r": binomial.r, "s": binomial.s}
    human = (
        f"minimal polynomial of ({format_fraction(q)})^({format_fraction(q)}): "
        f"{_format_binomial(binomial)}"
    )
    return payload, human


def _cmd_powcheck(args):
    poly = parse_polynomial(args.poly)
    x = parse_rational(args.x)
    from .polypower import analyze_poly_power

    verdict = analyze_poly_power(poly, x)
    value = None if verdict.rational is None else format_fraction(verdict.rational)
    # the exponent may have ~300,000 digits, and writing it costs seconds
    exponent = format_fraction(verdict.exponent)
    payload = {"exponent": exponent, "rational": value}
    base = f"({format_fraction(x)})^({exponent})"
    human = f"{base} = {value}" if value is not None else f"{base} is irrational"
    return payload, human


def _cmd_powsearch(args):
    poly = parse_polynomial(args.poly)
    from .polypower import enumerate_rational_powers, leading_denominator_bound

    hits = enumerate_rational_powers(poly, args.a_max, args.b_max)
    payload = {
        "a_max": args.a_max,
        "bound": leading_denominator_bound(poly.leading_coefficient),
        "hits": [
            {"value": format_fraction(v), "x": format_fraction(x)} for x, v in hits
        ],
    }
    lines = [
        f"rational values of x^({format_polynomial(poly)}) for x = a/b, "
        f"a <= {_int_text(args.a_max)}, "
        f"2 <= b <= {_int_text(args.b_max or payload['bound'])}:"
    ]
    lines += [f"  x = {h['x']}: {h['value']}" for h in payload["hits"]]
    if not hits:
        lines.append("  none")
    return payload, "\n".join(lines)


def _cmd_bound(args):
    if args.degree is not None:
        from .solver import denominator_bound

        value = denominator_bound(args.degree)
        payload = {"bound": value, "degree": args.degree}
        degree, bound = map(_int_text, (args.degree, value))
        human = f"denominator bound for degree {degree}: {bound}"
    else:
        from .polypower import leading_denominator_bound, zero_exponent_denominator_bound

        value = leading_denominator_bound(args.leading)
        zero = zero_exponent_denominator_bound(args.leading)
        payload = {"bound": value, "leading": args.leading, "zero_exponent_bound": zero}
        leading, bound, zero = map(_int_text, (args.leading, value, zero))
        human = (
            f"denominator bound for leading coefficient {leading}: {bound} "
            f"(zero-exponent case: {zero})"
        )
    return payload, human


def _certificate_payload(cert: Certificate) -> dict:
    lo, hi = cert.interval
    return {
        "interval": {
            "hi": format_fraction(hi),
            "lo": format_fraction(lo),
            "width": format_fraction(hi - lo),
        },
        "scan": [[n, order.value] for n, order in cert.integer_scan_trace],
        "statement": cert.statement,
    }


def _cmd_classify(args):
    width = None if args.width is None else parse_rational(args.width)
    q = parse_rational(args.q)
    from .certify import DEFAULT_WIDTH, classify_preimage

    result = classify_preimage(q, DEFAULT_WIDTH if width is None else width)
    if isinstance(result, int):
        payload = {"integer": result, "q": format_fraction(q)}
        human = f"x^x = {format_fraction(q)} has the integer solution x = {result}"
        return payload, human
    payload = {"certificate": _certificate_payload(result), "q": format_fraction(q)}
    lo, hi = result.interval
    human = (
        f"x^x = {format_fraction(q)}: transcendental solution in "
        f"({format_fraction(lo)}, {format_fraction(hi)})\n{result.statement}"
    )
    return payload, human


def _cmd_pairs(args):
    from .solver import (
        commuting_pair,
        equal_self_power_pair,
        verify_commuting,
        verify_equal_self_powers,
    )

    if args.commuting:
        x, y = commuting_pair(args.m)
        verified = verify_commuting(x, y)
        relation = "x^y = y^x"
    else:
        x, y = equal_self_power_pair(args.m)
        verified = verify_equal_self_powers(x, y)
        relation = "x^x = y^y"
    payload = {
        "commuting": bool(args.commuting),
        "m": args.m,
        "verified": verified,
        "x": format_fraction(x),
        "y": format_fraction(y),
    }
    human = (
        f"m = {_int_text(args.m)}: x = {payload['x']}, y = {payload['y']} "
        f"({relation} {'verified' if verified else 'FAILED'})"
    )
    return payload, human


def _cmd_decompose(args):
    from .arith import lambda_decompose

    lam = lambda_decompose(args.x, args.y, args.a, args.b)
    payload = {"lambda": lam}
    lam_text, a, b, x, y = map(_int_text, (lam, args.a, args.b, args.x, args.y))
    human = f"lambda = {lam_text}: {lam_text}^{b} = {x}, {lam_text}^{a} = {y}"
    return payload, human


_COMMANDS = {
    "solve": _cmd_solve,
    "minpoly": _cmd_minpoly,
    "powcheck": _cmd_powcheck,
    "powsearch": _cmd_powsearch,
    "bound": _cmd_bound,
    "classify": _cmd_classify,
    "pairs": _cmd_pairs,
    "decompose": _cmd_decompose,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(_json({"error": message, "kind": "parse"}), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")

    parser = _Parser(
        prog="selfpower",
        description="Exact solver and analyzer for x^x = alpha over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", parents=[common], help="solve x^x = alpha exactly")
    p.add_argument(
        "--alpha",
        required=True,
        help="a rational ('27', '5/2') or a polynomial ('2*x^2 - 1', '[-1, 0, 2]')",
    )
    p.add_argument(
        "--verify-both",
        action="store_true",
        help="run both solution procedures and insist they agree",
    )

    p = sub.add_parser(
        "minpoly", parents=[common], help="minimal polynomial of (a/b)^(a/b)"
    )
    p.add_argument("fraction", help="positive rational a/b")

    p = sub.add_parser(
        "powcheck", parents=[common], help="is x^P(x) rational for this x?"
    )
    p.add_argument("--poly", required=True, help="integer polynomial P")
    p.add_argument("--x", required=True, help="positive rational x")

    p = sub.add_parser(
        "powsearch", parents=[common], help="sweep x = a/b for rational x^P(x)"
    )
    p.add_argument("--poly", required=True, help="integer polynomial P")
    p.add_argument(
        "--a-max", type=_int_option, required=True, help="numerator sweep limit"
    )
    p.add_argument(
        "--b-max",
        type=_int_option,
        help="denominator sweep limit (defaults to the proven bound)",
    )

    p = sub.add_parser("bound", parents=[common], help="denominator bounds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=_int_option, help="degree of alpha")
    group.add_argument("--leading", type=_int_option, help="leading coefficient of P")

    p = sub.add_parser(
        "classify", parents=[common], help="integer preimage or transcendence certificate"
    )
    p.add_argument("--q", required=True, help="rational q > 1")
    p.add_argument(
        "--width",
        help="isolating interval width as a rational (default 1/1000000000)",
    )

    p = sub.add_parser(
        "pairs", parents=[common], help="the x^x = y^y and x^y = y^x families"
    )
    p.add_argument("--m", type=_int_option, required=True, help="family index m >= 1")
    p.add_argument(
        "--commuting",
        action="store_true",
        help="emit the reciprocal pair solving x^y = y^x",
    )

    p = sub.add_parser(
        "decompose", parents=[common], help="common base of x^a = y^b"
    )
    p.add_argument("--x", type=_int_option, required=True)
    p.add_argument("--y", type=_int_option, required=True)
    p.add_argument("--a", type=_int_option, required=True)
    p.add_argument("--b", type=_int_option, required=True)

    return parser


def _fail(exc: Exception, kind: str, code: int) -> "SystemExit":
    print(_json({"error": str(exc), "kind": kind}), file=sys.stderr)
    return SystemExit(code)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, human = _COMMANDS[args.command](args)
        text = _json(payload) if args.json else human
    except ParseError as exc:
        raise _fail(exc, "parse", 2) from exc
    except ResourceError as exc:
        raise _fail(exc, "resource", 4) from exc
    except DomainError as exc:
        raise _fail(exc, "domain", 3) from exc
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early, which is its choice, not an error;
        # fd 1 goes to devnull so the interpreter's final flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
