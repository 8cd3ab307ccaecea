"""Every command's bytes, pinned: one sha256 per command family.

A fixed argv corpus runs in-process through `cli.main`.  Each case hashes to
sha256 of (argv, stdout, stderr, exit code), and each family's digest is the
sha256 of its cases' hashes in corpus order.  A change that moves any output
byte or exit code moves its family's digest.  On a mismatch the test prints
every case's hash next to its argv, so two checkouts' listings diff down to
the cases that moved.
"""

import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from selfpower.cli import (
    format_fraction,
    format_polynomial,
    main,
    parse_polynomial,
    parse_rational,
)

_README = Path(__file__).resolve().parents[1] / "README.md"

_F7 = 2**128 + 1
# the corpus's own texts of long integers: Decimal reads an int without text,
# so no int/str digit limit applies
_LARGEST = str(Decimal(2**65536 - 1))  # 19729 digits, the largest literal
_BELOW = str(Decimal(2**65536 - 2))  # 19729 digits, coprime to _LARGEST
_PAST = str(Decimal(2**65536))  # 19729 digits, one past the bit cap
_PAST_PROBES = f"1/{Decimal(2**10001)}"  # at q = 2, a width one probe past the cap
_TOO_LONG = "1" * 19730  # refused before it is converted

_WIDTHS = ["1/1000000000", "1/1" + "0" * 40, "1/1" + "0" * 150, "1/1024", f"1/{2**77}"]


def _readme_commands() -> list[list[str]]:
    return [
        shlex.split(line, comments=True)[1:]
        for line in _README.read_text().splitlines()
        if line.startswith("selfpower ")
    ]


def _solve() -> list[list[str]]:
    alphas = []
    # rational alpha in its four spellings
    for a in range(1, 40):
        for b in range(1, 40):
            if gcd(a, b) == 1:
                alphas += [f"{a}/{b}", f"{b}*x - {a}", f"[-{a}, {b}]", f"-{b}*x + {a}"]
    # minimal polynomials of self-powers, as expressions and as lists
    for a in range(1, 25):
        for b in range(2, 25):
            if gcd(a, b) == 1:
                s, d, r = _minpoly(a, b)
                alphas += [f"{s}*x^{d} - {r}", f"[-{r}, {', '.join(['0'] * (d - 1))}, {s}]"]
    alphas += [
        # reducible binomials, answered for the minimal polynomials of their roots
        "x^2 - 4", "4*x^2 - 9", "x^6 - 8", "27*x^3 - 8", "x^4 - 16",
        # not binomials, or no positive root
        "x^2 + 1", "x^2 + x - 1", "[1, 0, 2]", "x^3 - x", "5", "0", "-3/4",
        # not primitive
        "4*x^2 - 2", "[-2, 0, 4]", "2*x - 4", "-4*x + 8", "6*x^3 - 4", "[-6, 0, 0, 9]",
        # F7 leading coefficient, past the rho budget
        f"{_F7}*x^2 - 1",
        # parse errors
        "2*x^^2 - 1", "[1, 2", "x^65537 - 3",
        # an exponent past the degree cap, written by its bit length
        "x^" + "9" * 5000,
    ]
    # the = form keeps argparse from reading a leading minus as an option
    argvs = [["solve", f"--alpha={alpha}", "--json"] for alpha in alphas]
    argvs += [["solve", "--alpha", "[-1, 0, 2]"], ["solve", "--alpha", "8/27", "--verify-both"]]
    return argvs


def _minpoly(a: int, b: int) -> tuple[int, int, int]:
    # s*x^d - r of (a/b)^(a/b), written out independently of the package: g
    # is the largest divisor of b with a and b both perfect g-th powers, and
    # float roots of integers below 25 round to the exact ones
    for g in range(b, 0, -1):
        ra, rb = round(a ** (1 / g)), round(b ** (1 / g))
        if b % g == 0 and ra**g == a and rb**g == b:
            return rb**a, b // g, ra**a
    raise AssertionError((a, b))


def _minpolys() -> list[list[str]]:
    argvs = []
    for a in range(1, 25):
        for b in range(1, 25):
            if gcd(a, b) == 1:
                argvs.append(["minpoly", f"{a}/{b}", "--json"])
    argvs += [["minpoly", "8/27"], ["minpoly", f"1/{_F7}", "--json"], ["minpoly", "0"]]
    argvs += [["minpoly", "2/0"], ["minpoly", "two"]]
    return argvs


def _classify() -> list[list[str]]:
    qs = ["2", "3", "5", "26", "28", "100"]  # integers
    qs += ["3/2", "5/2", "27/8", "1000001/999999", "355/113"]  # fractions
    qs += ["1000000000000", "999999999999999999999999999999", "123456789012345678901/7"]
    argvs = [["classify", "--q", q, "--width", w, "--json"] for q in qs for w in _WIDTHS]
    argvs += [["classify", "--q", q, "--json"] for q in ("4", "27", "3125", str(10**10))]
    argvs += [
        ["classify", "--q", "2"],
        ["classify", "--q", "1"],
        ["classify", "--q", "1/2"],
        ["classify", "--q=-7/3"],
        ["classify", "--q", "2", "--width", "0"],
        ["classify", "--q", "2", "--width=-1/8"],
        ["classify", "--q", "2", "--width", _PAST_PROBES],
        ["classify", "--q", "2", "--width", "2"],
        ["classify", "--q", "3/2", "--width", "7/3"],
        # past 2^10000: more halvings of [1, q] than the cap, few probes
        ["classify", "--q", f"1{'0' * 3699}1", "--width", "1/1000", "--json"],
        ["classify", "--q", f"1{'0' * 18999}1", "--width", "1/1000", "--json"],
    ]
    return argvs


def _others() -> list[list[str]]:
    return [
        ["powcheck", "--poly", "2*x", "--x", "1/4", "--json"],
        ["powcheck", "--poly", "x^2 - 1", "--x", "3/2"],
        ["powcheck", "--poly", "6*x^3 - 8", "--x", "15", "--json"],
        ["powcheck", "--poly", "x", "--x", "0"],
        # 1^P(1) is 1 whatever the size of P(1)
        ["powcheck", "--poly", "x + 2000000", "--x", "1", "--json"],
        # 2^600000 has 600,001 bits, inside the bit cap
        ["powcheck", "--poly", "x + 599998", "--x", "2", "--json"],
        ["powsearch", "--poly", "2*x", "--a-max", "9", "--json"],
        ["powsearch", "--poly", "x^2 + 1", "--a-max", "12"],
        ["powsearch", "--poly", "3*x - 1", "--a-max", "30", "--json"],
        ["powsearch", "--poly", "x", "--a-max", "5", "--b-max", "1"],
        ["powsearch", "--poly", "x", "--a-max", "0"],
        ["bound", "--degree", "1", "--json"],
        ["bound", "--degree", "9"],
        ["bound", "--degree", "65536", "--json"],
        ["bound", "--degree", "0"],
        ["bound", "--leading", "2"],
        ["bound", "--leading", "-12", "--json"],
        ["bound", "--leading", "0"],
        ["pairs", "--m", "1", "--json"],
        ["pairs", "--m", "2"],
        ["pairs", "--m", "7", "--commuting", "--json"],
        ["pairs", "--m", "0"],
        ["decompose", "--x", "16", "--y", "8", "--a", "3", "--b", "4", "--json"],
        ["decompose", "--x", "27", "--y", "9", "--a", "2", "--b", "3"],
        ["decompose", "--x", "2", "--y", "3", "--a", "2", "--b", "3"],
        ["decompose", "--x", "4", "--y", "8", "--a", "2", "--b", "4"],
    ]


def _caps() -> list[list[str]]:
    # literals at the literal cap, one past it, and over-long; the bit,
    # degree, coefficient, sweep and probe caps
    return [
        ["solve", "--alpha", f"{_LARGEST}*x - 1", "--json"],
        ["solve", "--alpha", f"{_PAST}*x - 1", "--json"],
        ["solve", "--alpha", f"{_TOO_LONG}*x - 1", "--json"],
        ["solve", "--alpha", f"[-1, {_PAST}]", "--json"],
        ["solve", "--alpha", "2^65535*x + 2^65535*x - 1", "--json"],
        ["solve", "--alpha", "2^65536*x - 1", "--json"],
        ["classify", "--q", f"{_LARGEST}/{_LARGEST[:-1]}", "--json"],
        ["classify", "--q", _PAST, "--json"],
        ["classify", "--q", "2", "--width", f"1/{_TOO_LONG}"],
        ["minpoly", f"1/{_LARGEST}", "--json"],
        ["minpoly", f"{_PAST}/3"],
        ["bound", "--leading", _LARGEST, "--json"],
        ["bound", "--degree", _PAST],
        # integers of 19729 digits in human texts
        ["bound", "--leading", _LARGEST],
        ["bound", "--degree", _LARGEST],
        ["decompose", "--x", _LARGEST, "--y", _LARGEST, "--a", "1", "--b", "1"],
        ["decompose", "--x", "1", "--y", "1", "--a", _LARGEST, "--b", _BELOW],
        ["powcheck", "--poly", "x^65536 + 1", "--x", "99999/99998", "--json"],
        ["powsearch", "--poly", "2*x", "--a-max", "1000000000000"],
        ["pairs", "--m", _TOO_LONG],
    ]


def corpus() -> dict[str, list[list[str]]]:
    """The argv lists of each family, a family being the command name."""
    families: dict[str, list[list[str]]] = {}
    for argv in (
        _readme_commands() + _solve() + _minpolys() + _classify() + _others() + _caps()
    ):
        families.setdefault(argv[0], []).append(argv)
    return families


def run_case(argv: list[str]) -> str:
    """sha256 of (argv, stdout, stderr, exit code) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([argv, out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(record.encode()).hexdigest()


def _shown(argv: list[str]) -> str:
    text = shlex.join(argv)
    return text if len(text) <= 100 else f"{text[:60]} ... ({len(text)} chars)"


#: digest of each family; a change that moves a family's bytes on purpose
#: repins it here and names the cases that moved in CHANGES.md
PINNED = {
    "bound": "f5962f3366b910cb1a8713d85ca3eb12578c9ee6e167ec01f70d6970a838ff3c",
    "classify": "fccee59284d7eba277952a1d7d7fa13252212f5914755228160920c22b2fb195",
    "decompose": "d6e86ca3e6aad97036824721ff757d652b3988a2f688c1ce7cfe1bc9e6be91ec",
    "minpoly": "182a8802761a05f661678bf5608ec089b6b6a75751c4e7e94aab70095b432487",
    "pairs": "1ed75edd663648ff28d356c1ddb3f636b0d659b5f694bbe5d9669bb86a018107",
    "powcheck": "18229c219fb776af6c6497ee9cfb947e1ffc6ce8eaf9cabf7e375c2504ba2576",
    "powsearch": "013188556d8d24050c682e24d8b22bcac064c63d53435922ce90ee33b78edb13",
    "solve": "fe33e9068fb1f16d583ec6363b3305173b2df2f90456f653f4048fc9f2cb2ce1",
}


def _refuse(limit):
    raise AssertionError(f"sys.set_int_max_str_digits({limit}) called")


@pytest.mark.parametrize("family", sorted(corpus()))
def test_family_digest(family, monkeypatch):
    # the commands read and write integers of every allowed size without
    # touching the interpreter's int/str digit limit, which is process-wide
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(sys, "set_int_max_str_digits", _refuse)
    argvs = corpus()[family]
    hashes = [run_case(argv) for argv in argvs]
    assert sys.get_int_max_str_digits() == limit
    digest = hashlib.sha256("\n".join(hashes).encode()).hexdigest()
    if digest != PINNED[family]:
        for h, argv in zip(hashes, argvs):
            print(f"{h}  {_shown(argv)}")
    assert digest == PINNED[family], (family, len(argvs), digest)


def test_library_texts_leave_the_digit_limit(monkeypatch):
    # the parsers and formatters, called as library functions, read and write
    # 19729-digit integers at any int/str digit limit without touching it
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(sys, "set_int_max_str_digits", _refuse)
    n = 2**65536 - 1
    assert parse_rational(f"-{_LARGEST}/{_BELOW}") == Fraction(-n, n - 1)
    assert format_fraction(Fraction(-n, n - 1)) == f"-{_LARGEST}/{_BELOW}"
    poly = parse_polynomial(f"{_LARGEST}*x^2 - {_BELOW}")
    assert poly.terms == ((2, n), (0, 1 - n))
    assert format_polynomial(poly) == f"{_LARGEST}*x^2 - {_BELOW}"
    assert parse_polynomial(f"[-{_BELOW}, 0, {_LARGEST}]") == poly
    assert sys.get_int_max_str_digits() == limit
