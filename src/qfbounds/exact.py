"""Exact integer and rational arithmetic primitives.

Deterministic building blocks used everywhere else in the package:
trial-division factoring, a deterministic Miller-Rabin primality test,
Legendre/Kronecker symbols, CRT lifting, prime searches in arithmetic
progressions, and square-class utilities on Fractions.

All functions are pure.  Sizes are desk scale: factoring is trial
division over a cached sieve plus a deterministic Pollard-Brent split
of the cofactor, which covers every integer this package produces.  One memo holds every
number and every cofactor piece factored, so a split, or a failed one,
is not repeated while the memo holds it.  Nothing here is meant for
cryptographic-size inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

# Deterministic Miller-Rabin witnesses, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SIEVE_LIMIT = 1 << 16
_sieve_cache: list[int] = []


class BudgetExhausted(RuntimeError):
    """A cofactor resisted the Pollard-Brent splitting budget."""


def _small_primes() -> list[int]:
    if not _sieve_cache:
        flags = bytearray([1]) * _SIEVE_LIMIT
        flags[0] = flags[1] = 0
        for i in range(2, math.isqrt(_SIEVE_LIMIT) + 1):
            if flags[i]:
                flags[i * i :: i] = bytes(len(flags[i * i :: i]))
        _sieve_cache.extend(i for i in range(_SIEVE_LIMIT) if flags[i])
    return _sieve_cache


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes():
    """Yield 2, 3, 5, 7, ... indefinitely."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2:
        return n
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# per-attempt iteration budgets: quick passes first, deeper retries after
_DEEP_CAPS = (1 << 21, 1 << 22, 1 << 23, 1 << 24, 1 << 24, 1 << 24)


def _brent_split(n: int) -> int:
    """Nontrivial factor of an odd composite n (deterministic Brent cycle)."""
    for c, cap in enumerate(_DEEP_CAPS, start=1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        count = 0
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
                g = math.gcd(q, n)
                k += m
            r *= 2
            count += r
            if count > cap:
                break
        if g == n:
            g = 1
            for _ in range(m + 1):
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                if g > 1:
                    break
        if 1 < g < n:
            return g
    raise BudgetExhausted("cannot factor cofactor %d" % n)


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into a sorted list of (prime, exponent) pairs.

    Trial division over a cached prime sieve, then a deterministic
    Pollard-Brent split of whatever cofactor remains (with perfect-power
    detection).  BudgetExhausted is raised if the cofactor resists the
    splitting budget, which does not occur at the sizes this package
    produces.  Results are memoized, and so is every hard cofactor and
    Pollard-Brent piece, so a composite met inside many numbers costs
    one split; an exhausted budget is remembered as well.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1, got %r" % (n,))
    res = _factorize_cached(n)
    if res is None:
        raise BudgetExhausted("cannot factor a cofactor of %d" % n)
    return list(res)


@functools.lru_cache(maxsize=1 << 15)
def _factorize_cached(n: int) -> tuple | None:
    out: dict[int, int] = {}
    rest = n
    for p in _small_primes():
        if p * p > rest:
            break
        if rest % p:
            continue
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        out[p] = e
    if rest < _SIEVE_LIMIT * _SIEVE_LIMIT or is_prime(rest):
        # rest is 1, prime, or below the sieve squared (then prime)
        if rest > 1:
            out[rest] = 1
        return tuple(sorted(out.items()))
    if rest < n:
        pieces = [(rest, 1)]
    else:
        for k in (2, 3, 5, 7):
            r = _iroot(n, k)
            if r ** k == n:
                pieces = [(r, k)]
                break
        else:
            try:
                d = _brent_split(n)
            except BudgetExhausted:
                return None
            pieces = [(d, 1), (n // d, 1)]
    for m, k in pieces:
        res = _factorize_cached(m)
        if res is None:
            return None
        for p, e in res:
            out[p] = out.get(p, 0) + e * k
    return tuple(sorted(out.items()))


def squarefree_part(r) -> tuple[int, Fraction]:
    """Write a nonzero rational r as s * t**2 with s a squarefree integer.

    Returns (s, t) with t a positive rational and sign(s) = sign(r).
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("squarefree_part of zero is undefined")
    sign = -1 if r < 0 else 1
    s = sign
    t = Fraction(1)
    for p, e in factorize(r.numerator * sign):
        if e % 2:
            s *= p
        t *= Fraction(p) ** (e // 2)
    for p, e in factorize(r.denominator):
        # exponent of p in r is -e
        if e % 2:
            s *= p
            t /= Fraction(p) ** ((e + 1) // 2)
        else:
            t /= Fraction(p) ** (e // 2)
    if s * t * t != r:
        raise RuntimeError("squarefree split %d * (%s)^2 is not %s" % (s, t, r))
    return s, t


def rational_sqrt(r) -> Fraction | None:
    """Exact square root of a rational, or None when r is not a square."""
    r = Fraction(r)
    if r < 0:
        return None
    if r == 0:
        return Fraction(0)
    a, b = r.numerator, r.denominator
    ra, rb = math.isqrt(a), math.isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; 0 when p | a."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers with n != 0."""
    if n == 0:
        raise ValueError("kronecker symbol undefined for n = 0")
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker_symbol(a, -n)
    if n % 2 == 0 and a % 2 == 0:
        return 0
    result = 1
    # pull out factors of 2 from n: (a/2) = (-1)^((a^2-1)/8) for odd a
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    # remaining n odd: Jacobi via reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def crt_solve(congruences: list[tuple[int, int]]) -> int:
    """Smallest non-negative x with x = r_i (mod m_i) for all i.

    Moduli must be pairwise coprime.
    """
    if not congruences:
        raise ValueError("need at least one congruence")
    for (r1, m1), (r2, m2) in itertools.combinations(congruences, 2):
        if math.gcd(m1, m2) != 1:
            raise ValueError("moduli %d, %d are not coprime" % (m1, m2))
    x, m = 0, 1
    for r, mi in congruences:
        if mi < 1:
            raise ValueError("modulus must be positive")
        inv = pow(m % mi, -1, mi) if mi > 1 else 0
        x = x + m * (((r - x) * inv) % mi)
        m *= mi
    return x % m


def smallest_nonresidue_prime(p: int) -> int:
    """Smallest prime q that is a quadratic non-residue mod the odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError("expected an odd prime, got %r" % (p,))
    for q in primes():
        if legendre_symbol(q, p) == -1:
            return q
        if q >= p:
            raise RuntimeError("no prime non-residue below %d" % p)


def primes_in_ap(a: int, m: int):
    """Yield primes = a (mod m) in increasing order; gcd(a, m) = 1 required.

    The first one is the least prime in the progression (Dirichlet).
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(a, m) != 1:
        raise ValueError("gcd(a, m) must be 1")
    if m == 1:
        yield from primes()
        return
    n = a % m
    if n == 0:
        n = m
    while True:
        if n >= 2 and is_prime(n):
            yield n
        n += m


def rat_str(r) -> str:
    """Serialize a rational as "num/den", or "num" when the denominator is 1."""
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def parse_rat(s: str) -> Fraction:
    """A rational from text such as '3', '-5/2' or '0.75'; ValueError if malformed."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None
