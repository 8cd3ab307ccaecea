"""Transcendence certificates: classification, exact brackets, convergence."""

import random
from fractions import Fraction
from math import ceil

import mpmath as mp
import pytest

import selfpower.certify as certify
from selfpower import arith
from selfpower import (
    Certificate,
    DomainError,
    Ordering,
    ResourceError,
    UnsupportedInputError,
    classify_preimage,
    compare_self_power_to_rational,
    powers_equal,
)


class TestClassify:
    def test_integer_preimage(self):
        assert classify_preimage(Fraction(4)) == 2

    def test_certificate_for_two(self):
        cert = classify_preimage(Fraction(2), width=Fraction(1, 8))
        assert isinstance(cert, Certificate)
        assert [(n, c) for n, c in cert.integer_scan_trace] == [
            (1, Ordering.LESS),
            (2, Ordering.GREATER),
        ]
        lo, hi = cert.interval
        assert hi - lo <= Fraction(1, 8)
        assert "Gelfond-Schneider" in cert.statement

    def test_certificate_for_five_halves(self):
        cert = classify_preimage(Fraction(5, 2))
        assert isinstance(cert, Certificate)
        assert cert.integer_scan_trace[0] == (1, Ordering.LESS)
        assert cert.integer_scan_trace[1][1] is Ordering.GREATER

    def test_exhaustive_small_integers(self):
        for n in range(1, 13):
            q = Fraction(n) ** n
            if q > 1:
                assert classify_preimage(q) == n

    def test_rejects_q_at_most_one(self):
        with pytest.raises(UnsupportedInputError):
            classify_preimage(Fraction(1))
        with pytest.raises(UnsupportedInputError):
            classify_preimage(Fraction(1, 2))

    def test_width_is_checked_first(self):
        # before q and before the integer scan, which would answer 27 = 3^3
        for q, width in ((27, Fraction(-1)), (27, 0), (Fraction(1, 2), 0)):
            with pytest.raises(DomainError, match="^width must be positive$"):
                classify_preimage(q, width)


class TestHugeValuesInTexts:
    # decimal texts of these q pass the interpreter's 4300-digit int-to-str
    # limit; every text writes them by bit length instead
    HUGE = 10**5000 + 1

    def test_certificate_statement(self):
        q = Fraction(self.HUGE)
        cert = classify_preimage(q, width=q)
        assert cert.interval == (1, q)
        assert cert.statement.startswith(
            "The equation x^x = <16610-bit integer> has a unique real solution "
            "x > 1, isolated by the exact bracket (1, <16610-bit integer>)."
        )

    def test_classify_refusal(self):
        with pytest.raises(UnsupportedInputError, match=r"got 1/<16610-bit integer>$"):
            classify_preimage(Fraction(1, 10**5000))

    def test_ordinary_texts_keep_their_decimals(self):
        cert = classify_preimage(Fraction(5, 2), width=Fraction(1, 4))
        lo, hi = cert.interval
        assert cert.statement.startswith(
            f"The equation x^x = 5/2 has a unique real solution x > 1, isolated "
            f"by the exact bracket ({lo}, {hi})."
        )
        with pytest.raises(UnsupportedInputError, match=r"got -7/3$"):
            classify_preimage(Fraction(-7, 3))


class TestBisect:
    def test_interval_invariants(self):
        lo, hi = classify_preimage(Fraction(2), Fraction(1, 8)).interval
        assert lo < hi and hi - lo <= Fraction(1, 8)
        assert compare_self_power_to_rational(lo, Fraction(2)) is Ordering.LESS
        assert compare_self_power_to_rational(hi, Fraction(2)) is Ordering.GREATER
        # the bracket contains the oracle root of x ln x = ln 2
        mp.mp.dps = 50
        root = mp.findroot(lambda x: x * mp.ln(x) - mp.ln(2), mp.mpf("1.5"))
        assert mp.mpf(lo.numerator) / lo.denominator < root
        assert mp.mpf(hi.numerator) / hi.denominator > root

    def test_wide_bracket_example(self):
        lo, hi = classify_preimage(Fraction(27, 8), Fraction(1)).interval
        assert hi - lo <= 1
        assert compare_self_power_to_rational(lo, Fraction(27, 8)) is Ordering.LESS
        assert compare_self_power_to_rational(hi, Fraction(27, 8)) is Ordering.GREATER

    def test_rejects_bad_inputs(self):
        with pytest.raises(UnsupportedInputError):
            classify_preimage(Fraction(1, 2), Fraction(1, 8))
        with pytest.raises(DomainError):
            classify_preimage(Fraction(2), Fraction(0))

    def test_halving_convergence(self):
        # width after k halvings of the unit bracket is at most 2^-k
        for k in (1, 5, 20, 40):
            lo, hi = classify_preimage(Fraction(2), Fraction(1, 2**k)).interval
            assert hi - lo <= Fraction(1, 2**k)
            assert lo.denominator.bit_length() <= k + 2  # dyadic midpoints

    def test_iteration_cap(self):
        # the bracket [1, 2] needs 10001 halvings to reach 2^-10001, and the
        # root of x^x = 2 lies in (1, 2), so each of them is a probe
        with pytest.raises(ResourceError) as exc:
            classify_preimage(Fraction(2), Fraction(1, 2**10001))
        assert str(exc.value) == (
            "bisection to width 1/<10002-bit integer> needs 10001 probes, "
            "past the cap of 10000 probes"
        )

    def test_cap_counts_probes_not_halvings(self):
        # [1, 2^12000 + 1] takes 12001 halvings to width 1/2, but the scan
        # leaves the root in (n - 1, n), a cell of width 1/2 after one probe
        q = Fraction(2**12000 + 1)
        cert = classify_preimage(q, Fraction(1, 2))
        lo, hi = cert.interval
        assert hi - lo <= Fraction(1, 2)
        mp.mp.dps = 50
        root = mp.findroot(lambda x: x * mp.ln(x) - 12000 * mp.ln(2), 1000)
        assert mp.mpf(lo.numerator) / lo.denominator < root
        assert root < mp.mpf(hi.numerator) / hi.denominator

    def test_cap_refused_before_any_halving(self, monkeypatch):
        compared = []
        real = certify.compare_self_power_to_rational

        def recording(x, q):
            compared.append(x)
            return real(x, q)

        monkeypatch.setattr(certify, "compare_self_power_to_rational", recording)
        with pytest.raises(ResourceError):
            classify_preimage(2, Fraction(1, 2**10001))
        assert [x for x in compared if x.denominator > 1] == []

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(10, 3), Fraction(30)])
    def test_fewest_halvings(self, q):
        # the halvings counted up front stop at the first bracket within width
        rng = random.Random(17)
        widths = [Fraction(1, 2**k) for k in (0, 1, 5, 20)] + [
            Fraction(rng.randint(1, 1000), rng.randint(1, 10**6)) for _ in range(40)
        ]
        for width in widths:
            lo, hi = classify_preimage(q, width).interval
            start = max(2, -(-q.numerator // q.denominator)) - 1
            assert hi - lo <= width
            assert hi - lo == start or 2 * (hi - lo) > width


class TestCertificateType:
    def test_interval_must_be_ordered(self):
        with pytest.raises(DomainError):
            Certificate(
                q=Fraction(2),
                integer_scan_trace=((1, Ordering.LESS),),
                interval=(Fraction(2), Fraction(1)),
                statement="",
            )

    def test_q_must_exceed_one(self):
        with pytest.raises(DomainError):
            Certificate(
                q=Fraction(1, 2),
                integer_scan_trace=(),
                interval=(Fraction(1), Fraction(2)),
                statement="",
            )


def reference_scan(q: Fraction) -> list[tuple[int, Ordering]]:
    """The certificate's own integer scan, before it ran on solver.integer_scan."""
    trace = []
    n = 1
    while True:
        c = compare_self_power_to_rational(Fraction(n), q)
        trace.append((n, c))
        if c is not Ordering.LESS:
            return trace
        n += 1


def _seeded_qs() -> list[Fraction]:
    rng = random.Random(20261018)
    qs = [Fraction(n) for n in range(2, 300)]
    qs += [Fraction(rng.randint(300, 10**4)) for _ in range(300)]
    for n in range(2, 41):
        qs += [Fraction(n**n + delta) for delta in (-1, 0, 1)]
    for _ in range(300):
        den = rng.randint(2, 10**6)
        qs.append(Fraction(rng.randint(den + 1, 10**9), den))
    for _ in range(200):
        qs.append(Fraction(rng.randint(10**12, 10**30), rng.choice((1, 3, 7, 1000))))
    qs.append(Fraction(rng.randrange(10**399, 10**400), rng.randint(2, 10**6)))
    return [q for q in qs if q > 1]


class TestScanIsTheSolverScan:
    def test_traces_match_reference(self):
        for q in _seeded_qs():
            expected = reference_scan(q)
            # a width of q leaves the bracket [1, ceil(q)] unbisected
            result = classify_preimage(q, width=q)
            if isinstance(result, int):
                assert expected[-1] == (result, Ordering.EQUAL), q
                assert len(expected) == result, q
            else:
                assert list(result.integer_scan_trace) == expected, q
                assert f"n = 1..{len(expected)} " in result.statement


def reference_compare_power_products(lhs, rhs) -> Ordering:
    """The comparator before it tried log2 first: products materialised up to
    the bit cap, log2 enclosures at doubling precision past it."""
    left = [(b, e) for b, e in lhs if b != 1 and e != 0]
    right = [(b, e) for b, e in rhs if b != 1 and e != 0]
    lbits = sum(e * b.bit_length() for b, e in left)
    rbits = sum(e * b.bit_length() for b, e in right)
    if max(lbits, rbits) <= arith.BIT_CAP:
        lprod = rprod = 1
        for b, e in left:
            lprod *= b**e
        for b, e in right:
            rprod *= b**e
        return Ordering.of_sign((lprod > rprod) - (lprod < rprod))
    prec = 64
    while True:
        diff_lo = diff_hi = 0
        for b, e in left:
            lo, hi = arith.log2_interval(b, prec)
            diff_lo, diff_hi = diff_lo + e * lo, diff_hi + e * hi
        for b, e in right:
            lo, hi = arith.log2_interval(b, prec)
            diff_lo, diff_hi = diff_lo - e * hi, diff_hi - e * lo
        if diff_lo > 0:
            return Ordering.GREATER
        if diff_hi < 0:
            return Ordering.LESS
        prec <<= 1


def reference_compare(t: Fraction, q: Fraction) -> Ordering:
    a, b = t.numerator, t.denominator
    m, n = q.numerator, q.denominator
    if powers_equal(a, a, m, b) and powers_equal(b, a, n, b):
        return Ordering.EQUAL
    return reference_compare_power_products([(a, a), (n, b)], [(b, a), (m, b)])


def reference_bisect(q: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """The bisection before it used the scan's bracket: every halving compared."""
    lo, hi = Fraction(1), Fraction(max(2, ceil(q)))
    while hi - lo > width:
        mid = (lo + hi) / 2
        if reference_compare(mid, q) is Ordering.LESS:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bracket_sweep() -> list[tuple[Fraction, Fraction]]:
    # integers below 10^4, fractions, q in [10^12, 10^30); widths 2^-k and
    # 10^-k for k <= 60
    rng = random.Random(20261019)
    qs = [Fraction(rng.randint(2, 10**4 - 1)) for _ in range(24)]
    for _ in range(24):
        den = rng.randint(2, 50)
        qs.append(Fraction(rng.randint(den + 1, 101 * den), den))
    qs += [Fraction(rng.randrange(10**12, 10**30)) for _ in range(16)]
    qs += [Fraction(rng.randrange(10**12, 10**30), rng.randint(2, 1000)) for _ in range(8)]
    cases = []
    for i, q in enumerate(qs):
        k = 60 if i % 7 == 0 else rng.randint(0, 60)
        base = 2 if i % 2 else 10
        cases.append((q, Fraction(1, base**k)))
    return cases


class TestBisectionMatchesReference:
    @pytest.mark.parametrize("q, width", _bracket_sweep())
    def test_same_interval_and_statement(self, q, width):
        result = classify_preimage(q, width)
        if isinstance(result, int):
            assert Fraction(result) ** result == q
            return
        lo, hi = reference_bisect(q, width)
        assert result.interval == (lo, hi)
        scanned = len(reference_scan(q))
        assert result.statement == certify._statement(q, scanned, lo, hi)


class TestNarrowCertificates:
    # Past the widths TestBisectionMatchesReference reaches: the certificate
    # is the grid cell 1 + j*(H - 1)/2^k, k the fewest halvings, that holds
    # the root, the only bracket a bisection can return.
    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2), Fraction(10**20 + 1)])
    @pytest.mark.parametrize("digits", [100, 150])
    def test_interval_is_the_grid_cell_of_the_root(self, q, digits):
        width = Fraction(1, 10**digits)
        cert = classify_preimage(q, width)
        lo, hi = cert.interval
        span = max(2, ceil(q)) - 1
        k = ceil(span / width - 1).bit_length()
        cell = Fraction(span, 2**k)
        assert hi - lo == cell <= width < 2 * cell
        assert ((lo - 1) / cell).denominator == 1
        mp.mp.dps = digits + 50
        ln_q = mp.ln(q.numerator) - mp.ln(q.denominator)
        root = mp.findroot(lambda x: x * mp.ln(x) - ln_q, 2)
        assert mp.mpf(lo.numerator) / lo.denominator < root
        assert root < mp.mpf(hi.numerator) / hi.denominator


class TestProbeStartPrecision:
    # Each probe of the cell search starts its log2 enclosures at the rung
    # its bracket needs, instead of climbing to it from 64 bits.
    def test_few_enclosures_cannot_decide(self, monkeypatch):
        calls, undecided = [], []
        real = arith._log2_order

        def counting(left, right, prec):
            order = real(left, right, prec)
            calls.append(prec)
            if order is None:
                undecided.append(prec)
            return order

        monkeypatch.setattr(arith, "_log2_order", counting)
        classify_preimage(2, Fraction(1, 10**300))
        # climbing from 64 bits, 3,031 of 4,019 calls could not decide
        assert len(calls) < 1000
        assert len(undecided) <= 4

    def test_probes_extract_no_roots(self, monkeypatch):
        # no probe a/2^j has t^t = q (a rational x^x is an integer's), and
        # the size test rules out a^a = m^b before any root extraction;
        # without it every one of the 1,001 probes took a 2^j-th root
        calls = []
        real = arith.powers_equal

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arith, "powers_equal", counting)
        classify_preimage(2, Fraction(1, 10**300))
        assert len(calls) < 10

    def test_enclosure_precisions_stay_on_the_ladder(self):
        # ln 2's enclosure cache is unbounded; a start off the ladder would
        # add a precision per probe
        arith._ln2_interval.cache_clear()
        for digits in (9, 40, 150, 300, 600):
            classify_preimage(Fraction(2), Fraction(1, 10**digits))
            classify_preimage(Fraction(3, 2), Fraction(1, 10**digits))
        assert arith._ln2_interval.cache_info().currsize <= 11
