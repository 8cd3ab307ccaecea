"""Exact integer and rational primitives.

Everything here is decided by integer arithmetic alone: prime factorization
with a deterministic primality check, perfect-power detection, the common-base
extraction for x^a = y^b with coprime exponents, and exact order comparisons
of self-power expressions t^t against rationals and against d-th roots of
rationals.

Comparands of more than 10240 bits are ordered through rigorous fixed-point
enclosures of log2 -- still integer-only; a sign is reported only once the
enclosure excludes zero.  The first enclosure is taken at the rung of the
ladder 64 * 2^j that the caller says the comparison needs (64 bits unless
told more; a certificate probe derives it from the bracket it has left).
When that rung cannot decide, comparands under the bit cap BIT_CAP are
materialised; past it the precision doubles, and exact equality has been
detected structurally beforehand, so no decision ever rests on an
approximation.
"""

from __future__ import annotations

import enum
import threading
from array import array
from collections.abc import Iterable
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import DomainError, PreconditionError, ResourceError, number_text

#: Prime factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...
Factorization = tuple[tuple[int, int], ...]

#: Bit-size cap for operations that materialise a^a-scale integers; past it
#: comparisons rest on log2 enclosures alone and constructions are refused.
BIT_CAP = 1 << 20


def check_bit_cap(bits: int, subject: str, *values: int | Fraction) -> None:
    """Refuse a construction estimated at more than BIT_CAP bits.

    The ResourceError reads '<subject> about <bits> bits, past the bit cap of
    <BIT_CAP> bits', where subject is a format string ending in its verb
    ('{}**{} needs'), filled with number_text of values only on refusal.
    """
    if bits > BIT_CAP:
        raise ResourceError(
            f"{subject.format(*map(number_text, values))} about "
            f"{number_text(bits)} bits, past the bit cap of "
            f"{number_text(BIT_CAP)} bits"
        )


class Ordering(enum.Enum):
    """Result of an exact three-way comparison."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"

    @staticmethod
    def of_sign(sign: int) -> "Ordering":
        if sign < 0:
            return Ordering.LESS
        if sign > 0:
            return Ordering.GREATER
        return Ordering.EQUAL


# ---------------------------------------------------------------------------
# primality and factorization
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin with the witness set above is proven deterministic below this.
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_WITNESSES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Uses the 13-witness set proven complete below 3.3e24; beyond that the
    witness set is extended but stays fixed, so results are reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _SMALL_PRIMES
    if n >= _MR_PROVEN_BOUND:
        witnesses = _SMALL_PRIMES + _MR_EXTRA_WITNESSES
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_LIMIT = 10**6
#: each segment of the trial-division sieve ends this many times further out
_SIEVE_GROWTH = 16
#: a segment is sieved this many numbers at a time
_SIEVE_WINDOW = 1 << 16


def _sieve_segment(lo: int, hi: int, primes: Iterable[int]) -> array:
    """The primes in [lo, hi), 2 <= lo, as an array("I"); primes holds every
    prime p with p*p < hi.

    The range is marked in windows of at most _SIEVE_WINDOW numbers, so the
    scratch a segment needs stays under 100 KB however long it is.
    """
    found = array("I")
    for start in range(lo, hi, _SIEVE_WINDOW):
        end = min(start + _SIEVE_WINDOW, hi)
        candidates = bytearray([1]) * (end - start)
        for p in primes:
            if p * p >= end:
                break
            first = max(p * p, -(-start // p) * p) - start
            candidates[first::p] = bytes(len(range(first, end - start, p)))
        found.extend(compress(range(start, end), candidates))
    return found


# Segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977): the primes
# below _sieve_end, extended in place one segment at a time, and only as far
# as a factorization walks, so commands on small inputs never sieve to 1e6.
# They are held 4 bytes each in an array("I"): the 78,498 primes up to 1e6
# take about 0.3 MB, a tenth of a list of ints.  Segments are appended
# whole under the lock; readers index and slice the array without it, since
# it only ever grows by complete segments of larger primes.
_trial_primes = _sieve_segment(2, 1 << 10, _SMALL_PRIMES)
_sieve_end = 1 << 10
_sieve_lock = threading.Lock()


def _sieve_through(bound: int) -> None:
    """Extend the trial primes until they hold every prime <= min(bound, 1e6)."""
    global _sieve_end
    with _sieve_lock:
        while _sieve_end <= min(bound, _TRIAL_LIMIT):
            hi = min(_sieve_end * _SIEVE_GROWTH, _TRIAL_LIMIT + 1)
            _trial_primes.extend(_sieve_segment(_sieve_end, hi, _trial_primes))
            _sieve_end = hi


def _remove_prime(n: int, p: int) -> tuple[int, int]:
    """(n / p^v, v) for n >= 1, p >= 2 and v the largest with p^v | n.

    Takes out the powers of p^2 first, recursively through p^4, p^8, ...,
    so v costs about 2 log2(v) divisions instead of v.
    """
    if n % p:
        return n, 0
    m, e = _remove_prime(n, p * p)
    quotient, remainder = divmod(m, p)
    return (m, 2 * e) if remainder else (quotient, 2 * e + 1)


#: trial primes tested together, by one gcd with their product
_CHUNK = 256


# Chunk i is _trial_primes[i * _CHUNK : (i + 1) * _CHUNK].  The array only
# grows by whole segments of larger primes (and tests reset it to a prefix of
# the same primes), so a complete chunk never changes and its product can be
# cached by index: at most 305 products of about 5000 bits each.
@cache
def _chunk_product(i: int) -> int:
    return prod(_trial_primes[i * _CHUNK : (i + 1) * _CHUNK])


def _trial_divide(n: int, found: dict[int, int]) -> int:
    """Divide every prime p <= 1e6 with p*p <= n out of n into found; the cofactor.

    Past the first chunk, which holds the 172 primes sieved at import, each
    complete chunk costs one gcd of n with its product; only a chunk sharing
    a factor with n, and the partial chunk at the end, go prime by prime.
    """
    lo = 0
    while True:
        held = len(_trial_primes)
        while lo < held:
            if _trial_primes[lo] ** 2 > n:
                return n
            i = lo // _CHUNK
            hi = min((i + 1) * _CHUNK, held)
            if i and hi - lo == _CHUNK and gcd(n, _chunk_product(i)) == 1:
                lo = hi
                continue
            # a slice copies at most one chunk; islice would first step
            # through (and box) the lo primes before it
            for p in _trial_primes[lo:hi]:
                if p * p > n:
                    return n
                if n % p == 0:
                    n, found[p] = _remove_prime(n, p)
            lo = hi
        # every prime held was tried; the next one lies in (p, 2p] (Bertrand's
        # postulate) and matters only up to isqrt(n)
        _sieve_through(min(2 * _trial_primes[lo - 1], isqrt(n)))
        if len(_trial_primes) == lo:
            return n


#: Pollard-rho iterations one factorization may spend before it is refused.
_FACTOR_BUDGET = 500_000
#: Seed of rho's random starting points, so every run takes the same path.
_RHO_SEED = 0x5E1F


def _budget_exhausted(n: int) -> ResourceError:
    return ResourceError(
        f"factorization budget of {number_text(_FACTOR_BUDGET)} rho iterations "
        f"exhausted on a {n.bit_length()}-bit cofactor {number_text(n)}"
    )


def _rho_brent(n: int, rng: random.Random, budget: list[int]) -> int | None:
    """One Brent cycle-finding pass; nontrivial factor of composite odd n, or None.

    Spends one unit of budget[0] per product step (y squared and q multiplied,
    mod n) and per backtrack step, none on the r squarings that advance y;
    raises ResourceError when the budget runs out.
    """
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            budget[0] -= min(m, r - k)
            if budget[0] <= 0:
                raise _budget_exhausted(n)
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            budget[0] -= 1
            if budget[0] <= 0:
                raise _budget_exhausted(n)
            g = gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


#: A cofactor past this many bits that trial division and the perfect-power
#: reduction leave is refused: Miller-Rabin costs time cubic in the bit length,
#: about 0.13 s on a 1024-bit prime, 0.8 s at 2048 bits and 6 s at 4096.
_MAX_COFACTOR_BITS = 1 << 10


def _as_perfect_power(n: int, m: int, g: int = 0) -> tuple[int, int]:
    """(root, k) with root**k == n, for n >= 2 and k = gcd(k_n, g), where k_n
    is the largest k for which n is a perfect k-th power; g = 0 gives k_n.

    m is a lower bound the caller knows on every root: root >= 2^m, so
    n >= 2^(m*p) and only the prime exponents p <= (bit_length(n) - 1) / m,
    and p | g when g > 0, can occur.  m = 1 holds for every n; a cofactor
    that trial division leaves has roots above 1e6 > 2^19, so factorize
    passes 19.  Each prime exponent costs one integer_kth_root, which rejects
    almost every n from its low and leading bits.  Exponents run through the
    trial primes; a p | g that is no root exponent is divided out of g, and a
    bound still past 1e6 is refused (at once for g = 0).
    """
    max_exponent = min((n.bit_length() - 1) // m, g or n)  # g = 0: no bound
    _sieve_through(min(max_exponent, _TRIAL_LIMIT))
    for p in _trial_primes:
        if p > max_exponent or (not g and max_exponent > _TRIAL_LIMIT):
            break
        root = None if g % p else integer_kth_root(n, p)  # every p divides 0
        if root is not None:
            base, k = _as_perfect_power(root, m, g // p)
            return base, k * p
        if g and not g % p:  # p divides no k_n, so gcd(k_n, g) keeps no p
            g = _remove_prime(g, p)[0]
            max_exponent = min(max_exponent, g)
    if max_exponent > _TRIAL_LIMIT:
        raise ResourceError(
            f"perfect-power test refused: a {n.bit_length()}-bit integer may "
            f"have prime exponents up to {max_exponent}, past {_TRIAL_LIMIT}"
        )
    return n, 1


def factorize(n: int) -> Factorization:
    """Exact prime factorization of n >= 1 as ((p, e), ...), primes increasing.

    Trial division by primes up to 1e6, sieved only as far as it walks and
    tested 256 at a time by one gcd with their product (prime by prime only
    where that gcd exceeds 1), exponents taken by repeated squaring; then
    perfect-power reduction and seeded Brent rho with a deterministic
    primality check on every cofactor.  A cofactor that survives the rho
    budget of _FACTOR_BUDGET iterations, or that is no perfect power and
    exceeds _MAX_COFACTOR_BITS, raises ResourceError -- the answer is never
    guessed.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    found: dict[int, int] = {}
    n = _trial_divide(n, found)
    if n > _TRIAL_LIMIT * _TRIAL_LIMIT:
        # only rho draws random starting points, so only a factorization
        # that reaches it loads the module
        import random

        rng = random.Random(_RHO_SEED)
        budget = [_FACTOR_BUDGET]
        stack = [(n, 1)]
        while stack:
            m, mult = stack.pop()
            base, k = _as_perfect_power(m, _TRIAL_LIMIT.bit_length() - 1)
            if k > 1:
                stack.append((base, mult * k))
                continue
            if m.bit_length() > _MAX_COFACTOR_BITS:
                raise ResourceError(
                    f"factorization refused: a cofactor of {m.bit_length()} bits "
                    f"without prime factors up to {_TRIAL_LIMIT} that is no perfect "
                    f"power exceeds the {_MAX_COFACTOR_BITS}-bit cofactor cap"
                )
            if is_prime(m):
                found[m] = found.get(m, 0) + mult
                continue
            f = None
            while f is None:
                f = _rho_brent(m, rng, budget)
            stack.append((f, mult))
            stack.append((m // f, mult))
    elif n > 1:
        # no prime factor <= 1e6 survives trial division, so a cofactor
        # below 1e12 is itself prime
        found[n] = found.get(n, 0) + 1
    return tuple(sorted(found.items()))


# ---------------------------------------------------------------------------
# perfect powers and common-base extraction
# ---------------------------------------------------------------------------


def _power_mod_2(y: int, k: int, bits: int) -> int:
    """y**k mod 2^bits, for k >= 1, reduced by masks: pow(y, k, 2**bits)
    divides instead, 2-8 times slower from 1024 bits on."""
    mask = (1 << bits) - 1
    y &= mask
    result = y
    for digit in bin(k)[3:]:
        result = result * result & mask
        if digit == "1":
            result = result * y & mask
    return result


def _two_adic_root(a: int, k: int, bits: int) -> int:
    """The unique odd c < 2^bits with c**k = a (mod 2^bits), for odd a, k.

    Newton's iteration for the inverse root, y**k * a = 1, doubles the
    number of correct low bits per step from y = 1 (Hensel lifting; the
    derivative k * a * y**(k - 1) is odd), and c = a * y**(k - 1).
    """
    steps = []
    b = bits
    while b > 1:
        steps.append(b)
        b = (b + 1) // 2
    k_inverse = pow(k, -1, 1 << bits)
    y = 1
    for b in reversed(steps):
        mask = (1 << b) - 1
        error = (1 - (a & mask) * _power_mod_2(y, k, b)) & mask
        y = (y + (y * error & mask) * (k_inverse & mask)) & mask
    mask = (1 << bits) - 1
    return (a & mask) * _power_mod_2(y, k - 1, bits) & mask


def _two_adic_square_root(a: int, bits: int) -> int:
    """The c < 2^bits with c = 1 (mod 4) and c*c = a (mod 2^(bits + 1)), for
    a = 1 (mod 8) and bits >= 2; -c is the only other root modulo 2^bits.

    Newton's iteration for the inverse root, y*y * a = 1, takes the number of
    correct low bits from i to 2i - 2 per step, from y = 1 at i = 3: with
    a*y*y = 1 + 2^i u, y * (3 - a*y*y) / 2 = y * (1 - 2^(i-1) u).  Then
    c = a * y, up to sign.
    """
    steps = []
    b = bits + 1
    while b > 3:
        steps.append(b)
        b = (b + 3) // 2
    y = 1
    for b in reversed(steps):
        # y * (3 - a*y*y) is even: modulo 2^(b + 1) it gives y modulo 2^b
        mask = (1 << (b + 1)) - 1
        y = (y * ((3 - (a & mask) * (y * y & mask)) & mask) & mask) >> 1
    c = (a * y) & ((1 << bits) - 1)
    return c if c & 3 == 1 else (1 << bits) - c


def _leading_bits_differ(t: int, k: int, n: int) -> bool:
    """True when 64-bit log2 enclosures prove t**k != n.

    The enclosures are taken around _log2_interval's cache: the candidate
    roots of one input would otherwise evict the ones a certificate reuses.
    """
    enclose = _log2_interval.__wrapped__
    t_lo, t_hi = enclose(t, 64)
    n_lo, n_hi = enclose(n, 64)
    return k * t_hi < n_lo or k * t_lo > n_hi


def integer_kth_root(n: int, k: int) -> int | None:
    """The integer m with m**k == n exactly, or None. Requires n >= 0, k >= 1.

    The cheapest necessary conditions come first, then one candidate root
    and one exact power (Bernstein, "Detecting perfect powers in essentially
    linear time", Math. Comp. 67, 1998):

    1. a root m >= 2 makes n >= 2^k, and k must divide the 2-adic valuation
       v of n, so n = 2^v * a with a odd and m = 2^(v/k) * a^(1/k);
    2. a^(1/k) has length = ceil(bits(a) / k) bits, so its low length + 1
       bits decide it.  With k = 2^e * j, j odd, they come from the unique
       2-adic j-th root of a, lifted by Newton's iteration modulo
       2^(length + 1 + e), then from e 2-adic square roots, each one bit
       shorter, of which only one lies below 2^length;
    3. a candidate of any other bit length, or whose k-th power 64-bit log2
       enclosures separate from a, is no root;
    4. only then is the one power candidate**k compared with a.

    Every step but the last works on integers of about bits(a) / k bits.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < 0:
        raise DomainError("n must be >= 0")
    if n < 2 or k == 1:
        return n
    if k >= n.bit_length():
        return None
    v = (n & -n).bit_length() - 1
    if v % k:
        return None
    a = n >> v
    e = (k & -k).bit_length() - 1
    j = k >> e
    bits = a.bit_length()
    length = -(-bits // k)
    # the root's low length + 1 bits, and one more for each square root
    # below, which loses one
    candidate = a & ((1 << (length + 1 + e)) - 1)
    if j > 1:
        candidate = _two_adic_root(a, j, length + 1 + e)
    for i in range(e, 0, -1):
        # an odd square is 1 mod 8
        if candidate & 7 != 1:
            return None
        candidate = _two_adic_square_root(candidate, length + i)
    if e:
        # the root is c or -c modulo 2^(length + 1), and only one of them
        # lies below 2^length
        candidate = min(candidate, (1 << (length + 1)) - candidate)
    if candidate.bit_length() != length or (
        bits > _DIRECT_BITS and _leading_bits_differ(candidate, k, a)
    ):
        return None
    return candidate << (v // k) if candidate**k == a else None


def _sizes_overlap(x: int, p: int, y: int, q: int) -> bool:
    """False when x**p and y**q, for x, y >= 1 and p, q >= 1, cannot be equal
    by size: x**p has between p*(bit_length(x) - 1) + 1 and p*bit_length(x)
    bits, and the two windows must meet."""
    blx, bly = x.bit_length(), y.bit_length()
    return p * (blx - 1) < q * bly and q * (bly - 1) < p * blx


def powers_equal(x: int, p: int, y: int, q: int) -> bool:
    """Exact test x**p == y**q for x, y >= 1 and p, q >= 0, never forming
    either power in full.

    The exponents are reduced by their gcd; the coprime-exponent equation then
    forces a common base lam with x = lam**q and y = lam**p, which is checked
    through a single integer root extraction.
    """
    if x < 1 or y < 1 or p < 0 or q < 0:
        raise DomainError("powers_equal requires x, y >= 1 and p, q >= 0")
    if p == 0 or x == 1:
        return q == 0 or y == 1
    if q == 0 or y == 1:
        return False
    g = gcd(p, q)
    q //= g
    # x = lam**q with lam >= 2 has more than q bits
    if x.bit_length() <= q:
        return False
    p //= g
    lam = integer_kth_root(x, q)
    return lam is not None and _sizes_overlap(lam, p, y, 1) and lam**p == y


def lambda_decompose(x: int, y: int, a: int, b: int) -> int:
    """Common base of x^a = y^b: the unique lam with lam**b = x and lam**a = y.

    Requires x, y, a, b >= 1 with gcd(a, b) = 1.  The hypothesis x^a = y^b
    holds exactly when lam = x^(1/b) is an integer with lam**a = y; that one
    root is taken, and a failure is reported as a precondition violation.
    """
    if min(x, y, a, b) < 1:
        raise DomainError("lambda_decompose requires positive integers")
    if gcd(a, b) != 1:
        raise DomainError(
            f"exponents must be coprime, got gcd({number_text(a)}, {number_text(b)}) != 1"
        )
    lam = integer_kth_root(x, b)
    if lam is None or not (_sizes_overlap(lam, a, y, 1) and lam**a == y):
        raise PreconditionError(
            f"{number_text(x)}^{number_text(a)} != {number_text(y)}^{number_text(b)}"
        )
    return lam


# ---------------------------------------------------------------------------
# rigorous fixed-point logarithms
# ---------------------------------------------------------------------------
#
# log2_interval(n, prec) returns integers (lo, hi) with
#     lo <= 2**prec * log2(n) <= hi,
# and ln_interval(n, prec) the same for ln(n).  With n = 2^k * x, x in [1, 2),
# both rest on one enclosure of ln x at w fractional bits (Brent, "Fast
# multiple-precision evaluation of elementary functions", J. ACM 23, 1976;
# Brent & Zimmermann, Modern Computer Arithmetic, 2010, sections 4.2-4.4):
#
#   1. r square roots take x to y = x^(2^-r) < 1 + 2^-r, and ln x = 2^r ln y;
#   2. ln y = 2 atanh(z) = 2 sum_{j>=0} z^(2j+1) / (2j+1), z = (y-1)/(y+1),
#      and z < 2^-(r+1), so each term is 2r + 2 bits below the last and
#      J ~ w / (2r + 2) terms reach 2^-w;
#   3. ln 2 is ln x at x = 2 by the same chain and series, and
#      log2 x = ln x / ln 2.
#
# Every quantity is a fixed-point integer in units of 2^-w, and only the
# lower end is computed: one chain of floored square roots and one series of
# floored terms.  Each step is monotone in its inputs, so the lower end never
# exceeds the exact value, whatever w is.  The upper end is the lower end
# plus a proven bound on what the floors and the dropped tail can lose:
#
#   y. Start from y_0 = floor(2^w x), one unit below 2^w x at most.  A chain
#      started at y_0 + 1 and ceiled at every step stays above the exact
#      roots.  A square root has slope <= 1/2 above 1 and each rounding moves
#      an end by less than 1, so that chain stays g' < g/2 + 2 above the
#      floored one, from g_0 = 1: less than 4 after any r.  y_lo + 4
#      therefore bounds y from above.
#   z. z = (y - 1)/(y + 1) has slope <= 1/2 for y >= 1: z_lo is floored at
#      y_lo and z_hi ceiled at y_lo + 4, so z_hi - z_lo <= 3.
#   atanh. With z2 = floor(z_lo^2 / 2^w) and z_lo/2^w <= 1/2, the floored
#      power z_lo^(2j+1) errs by d' < z^(2j+1) + d/4 + 1 < 2 units, and its
#      term floor(P / (2j + 1)) by less than 3.  The sum stops at the first
#      power that floors to 0; that power is below 2 units, so the dropped
#      tail is below 2 * 4/3 < 4.  atanh's slope 1/(1 - z^2) is at most 4/3
#      on [0, 1/2], which covers z_hi - z_lo.  After J terms the exact sum at
#      any z in [z_lo, z_hi] lies below lo + 3J + 4 + ceil(4 (z_hi - z_lo) / 3).
#
# w decides only the width.  z < 2^-(r+1) after r >= 1 roots, so each power
# is 2r + 2 bits below the last and J <= w / (2r + 2) + 1/2.  The series ends
# differ by at most 3J + 8, and ln x's ends by 2^(r+1) (3J + 8).  Dividing by
# ln 2 > 0.69 and by ln 2's own enclosure, 2 units wide, leaves 2^prec
# log2 x enclosed in an interval of width at most 2^(prec + r - w) (9J + 25).
# With r = isqrt(prec) // 4 + 1 square roots and
# w = prec + r + _LOG_GUARD_BITS + prec.bit_length(), J is about
# 2 sqrt(prec) and the width stays under 2^-6 ulp at every prec from 1 to
# 2^16 (at prec = 1, J <= 4 and the width is below 61 / 2^13): hi - lo is 1,
# or 2 where 2^prec log2(n) lies that close to an integer.
#
# ln 2's enclosure at prec bits is this one at x = 2, where y_0 = 2^(w+1) is
# exact and 2^(2^-r) < 1 + 2^-r still gives z < 2^-(r+1), with the same r and
# w = prec + shift, shift = r + _LOG_GUARD_BITS + prec.bit_length().  Its
# ends differ by at most 2^(r+1) (3J + 8) units of 2^-w, and
# 3J + 8 <= 3 w / 4 + 10 < 2^(_LOG_GUARD_BITS - 1) (prec + 1) at every
# prec >= 1, so by less than one unit of 2^-prec; rounding lo down and hi up
# to units of 2^-prec leaves hi - lo <= 2.  It costs one ln x at w bits,
# O(sqrt(prec)) multiplications instead of the ~prec / 3 that the series
# 2 atanh(1/3) needs on integers of the full width.
_LOG_GUARD_BITS = 12


def _atanh_sums(z_lo: int, z_hi: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w atanh(z) <= hi for every z with
    z_lo <= 2^w z <= z_hi, where 0 <= z_lo and z_hi <= 2^(w-1)."""
    lo = 0
    z2 = z_lo * z_lo >> w
    power, j = z_lo, 1
    while power:
        lo += power // j
        power = power * z2 >> w
        j += 2
    # j = 2J + 1 after J terms
    return lo, lo + 3 * (j // 2) + 4 - (-4 * (z_hi - z_lo) // 3)


def _root_count(prec: int) -> int:
    return isqrt(prec) // 4 + 1


def _ln_mantissa(n: int, k: int, r: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w ln(n / 2^k) <= hi, for 2^k <= n <= 2^(k+1),
    through r >= 1 square roots."""
    y = n >> (k - w) if k >= w else n << (w - k)
    for _ in range(r):
        y = isqrt(y << w)
    one = 1 << w
    z_lo = ((y - one) << w) // (y + one)
    z_hi = -((-(y + 4 - one) << w) // (y + 4 + one))
    lo, hi = _atanh_sums(z_lo, z_hi, w)
    return lo << (r + 1), hi << (r + 1)


def log2_interval(n: int, prec: int) -> tuple[int, int]:
    """Integer enclosure (lo, hi) of 2**prec * log2(n) for n >= 1."""
    if n < 1:
        raise DomainError("log2 of a non-positive integer")
    return _log2_interval(n, prec)


# A certificate's cell search compares every probe against the same q, so the
# enclosures of q's numerator and denominator repeat at each rung of the
# ladder; the cache computes them once.  Its keys can be long integers, hence
# the bound.
@lru_cache(maxsize=256)
def _log2_interval(n: int, prec: int) -> tuple[int, int]:
    k = n.bit_length() - 1
    if n == 1 << k:
        return k << prec, k << prec
    r = _root_count(prec)
    w = prec + r + _LOG_GUARD_BITS + prec.bit_length()
    ln_lo, ln_hi = _ln_mantissa(n, k, r, w)
    ln2_lo, ln2_hi = _ln2_interval(w)
    lo = (k << prec) + (ln_lo << prec) // ln2_hi
    hi = (k << prec) - ((-ln_hi << prec) // ln2_lo)
    return lo, hi


@lru_cache(maxsize=None)
def _ln2_interval(prec: int) -> tuple[int, int]:
    # ln 2 is ln x at x = 2, by the same chain and series; the bound is
    # stated above _LOG_GUARD_BITS
    r = _root_count(prec)
    shift = r + _LOG_GUARD_BITS + prec.bit_length()
    lo, hi = _ln_mantissa(2, 0, r, prec + shift)
    return lo >> shift, -(-hi >> shift)


def ln_interval(n: int, prec: int) -> tuple[int, int]:
    """Integer enclosure of 2**prec * ln(n) for n >= 1."""
    if n < 1:
        raise DomainError("ln of a non-positive integer")
    # ln n = k ln 2 + ln x; k.bit_length() more bits absorb k times the
    # width of ln 2's enclosure
    k = n.bit_length() - 1
    r = _root_count(prec)
    shift = r + _LOG_GUARD_BITS + prec.bit_length() + k.bit_length()
    w = prec + shift
    ln_lo, ln_hi = (0, 0) if n == 1 << k else _ln_mantissa(n, k, r, w)
    ln2_lo, ln2_hi = _ln2_interval(w)
    return (k * ln2_lo + ln_lo) >> shift, -((-(k * ln2_hi + ln_hi)) >> shift)


_MAX_LOG_PRECISION = 1 << 16
#: Bottom rung of the ladder _LOG_START_PRECISION * 2^j, up to
#: _MAX_LOG_PRECISION, on which compare_power_products takes every log2
#: enclosure.  A comparison starts here unless its caller asks for more (a
#: certificate probe asks for what its bracket needs); a start precision is
#: rounded up to the ladder, so the enclosure caches see eleven precisions.
_LOG_START_PRECISION = 64
#: Products up to this many bits are materialised before any enclosure.  On
#: certificate-shaped operands (2 cores, Python 3.11, 100 cases, best of 7,
#: enclosures computed, not cached) multiplying out takes 20-37 us at 5120
#: bits, as long as the 64-bit log2 order (21-37 us), and 72-113 us at 10240
#: bits against 29-35 us, so the two cross near 5120 bits.  The value stays:
#: on certify (seed 2026) 18 of the first 12,347 comparisons fall between
#: 5120 and 10240 bits, too few for any workload to show a retune.
_DIRECT_BITS = 10240


# ---------------------------------------------------------------------------
# exact comparison of power products
# ---------------------------------------------------------------------------


def _materialised_order(left, right) -> Ordering:
    lprod = rprod = 1
    for b, e in left:
        lprod *= b**e
    for b, e in right:
        rprod *= b**e
    return Ordering.of_sign((lprod > rprod) - (lprod < rprod))


def _log2_order(left, right, prec: int) -> Ordering | None:
    """The order the log2 enclosures at prec prove, or None when they overlap."""
    diff_lo = diff_hi = 0
    for b, e in left:
        lo, hi = log2_interval(b, prec)
        diff_lo += e * lo
        diff_hi += e * hi
    for b, e in right:
        lo, hi = log2_interval(b, prec)
        diff_lo -= e * hi
        diff_hi -= e * lo
    if diff_lo > 0:
        return Ordering.GREATER
    if diff_hi < 0:
        return Ordering.LESS
    return None


def compare_power_products(
    lhs: Iterable[tuple[int, int]],
    rhs: Iterable[tuple[int, int]],
    *,
    prec: int = _LOG_START_PRECISION,
) -> Ordering:
    """Exact order of two products of powers, given as (base, exponent) pairs.

    Bases must be >= 1 and exponents >= 0.  Products of at most _DIRECT_BITS
    bits are compared directly.  Larger ones go to log2 enclosures at the
    first rung of the ladder 64 * 2^j at or above prec, clamped at
    _MAX_LOG_PRECISION; any rung that separates them proves the same order,
    so prec changes no answer.  When that rung cannot separate them and both
    fit under BIT_CAP, they are materialised, so equal products under the
    cap compare EQUAL.  Past
    BIT_CAP the precision doubles until the enclosures separate: there exact
    equality must have been ruled out by the caller (structurally, as the
    self-power comparators do), and inputs that stay indistinguishable at the
    maximum precision raise ResourceError.
    """
    left = [(b, e) for b, e in lhs if b != 1 and e != 0]
    right = [(b, e) for b, e in rhs if b != 1 and e != 0]
    for b, e in left + right:
        if b < 1 or e < 0:
            raise DomainError("power products need bases >= 1 and exponents >= 0")
    bits = max(
        sum(e * b.bit_length() for b, e in left),
        sum(e * b.bit_length() for b, e in right),
    )
    if bits <= min(_DIRECT_BITS, BIT_CAP):
        return _materialised_order(left, right)
    rung = _LOG_START_PRECISION
    while rung < min(prec, _MAX_LOG_PRECISION):
        rung <<= 1
    while rung <= _MAX_LOG_PRECISION:
        order = _log2_order(left, right, rung)
        if order is not None:
            return order
        if bits <= BIT_CAP:
            return _materialised_order(left, right)
        rung <<= 1
    raise ResourceError(
        f"comparison unresolved at the log2 precision cap of "
        f"{number_text(_MAX_LOG_PRECISION)} bits; operands may be equal"
    )


def _require_positive(q: Fraction, name: str) -> None:
    if q <= 0:
        raise DomainError(f"{name} must be positive, got {number_text(q)}")


def compare_self_power_to_root(
    t: Fraction, d: int, r: int, s: int, *, prec: int = _LOG_START_PRECISION
) -> Ordering:
    """Exact order of t**t versus the positive real d-th root of r/s.

    Requires t > 0, d >= 1, r, s >= 1 with gcd(r, s) = 1.  Raising both sides
    to the b*d-th power turns the question into the integer comparison
    a^(a*d) * s^b vs b^(a*d) * r^b; equality splits into a^(a*d) = r^b and
    b^(a*d) = s^b, each tested exactly only where its two sides can have the
    same bit length.  prec is the start precision compare_power_products
    takes.
    """
    _require_positive(t, "t")
    if d < 1 or r < 1 or s < 1:
        raise DomainError("root comparison needs d, r, s >= 1")
    if gcd(r, s) != 1:
        raise DomainError(
            f"r and s must be coprime, got gcd({number_text(r)}, {number_text(s)}) != 1"
        )
    a, b = t.numerator, t.denominator
    e = a * d
    # sides that differ in size need no root extraction; a certificate probe
    # t = a/2^j almost never has a^a and m^b of one size
    if (
        _sizes_overlap(a, e, r, b)
        and _sizes_overlap(b, e, s, b)
        and powers_equal(a, e, r, b)
        and powers_equal(b, e, s, b)
    ):
        return Ordering.EQUAL
    return compare_power_products([(a, e), (s, b)], [(b, e), (r, b)], prec=prec)


def compare_self_power_to_rational(
    t: Fraction, q: Fraction, *, prec: int = _LOG_START_PRECISION
) -> Ordering:
    """Exact order of t**t versus the rational q, both positive.

    The d = 1 case of compare_self_power_to_root, with the same start
    precision prec: writing t = a/b and q = m/n in lowest terms, t^t vs q is
    the integer comparison a^a * n^b vs b^a * m^b, and equality splits into
    a^a = m^b and b^a = n^b.
    """
    _require_positive(q, "q")
    return compare_self_power_to_root(t, 1, q.numerator, q.denominator, prec=prec)
