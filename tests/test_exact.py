"""Integer and rational primitives: factorization, square parts,
residue symbols, CRT, prime search."""

import random
from fractions import Fraction

import pytest

from qfbounds import exact
from qfbounds.exact import (
    BudgetExhausted,
    crt_solve,
    factorize,
    is_prime,
    kronecker_symbol,
    parse_rat,
    primes_in_ap,
    rat_str,
    rational_sqrt,
    smallest_nonresidue_prime,
    squarefree_part,
)

from conftest import brute_is_square_mod, brute_primes, run_python


def test_factorize_fixed_values():
    assert factorize(1) == []
    assert factorize(100) == [(2, 2), (5, 2)]
    assert factorize(777600) == [(2, 7), (3, 5), (5, 2)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_reconstructs_random_inputs():
    rng = random.Random(101)
    for _ in range(400):
        n = rng.randint(1, 10 ** 6)
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p) and e >= 1
            prod *= p ** e
        assert prod == n
        assert fac == sorted(fac)


def _primes_above(n, k):
    out = []
    while len(out) < k:
        n += 1
        if is_prime(n):
            out.append(n)
    return out


@pytest.fixture
def empty_memo():
    exact._factorize_cached.cache_clear()
    yield
    exact._factorize_cached.cache_clear()


@pytest.fixture
def brent_calls(monkeypatch, empty_memo):
    """Count the Pollard-Brent splits made from an empty factorize memo."""
    calls = []
    split = exact._brent_split

    def counting(n):
        calls.append(n)
        return split(n)

    monkeypatch.setattr(exact, "_brent_split", counting)
    return calls


def test_factorize_budget_exhausted(monkeypatch, empty_memo):
    def exhausted(n):
        raise BudgetExhausted("no budget for %d" % n)

    p1, p2 = _primes_above(1 << 32, 2)
    monkeypatch.setattr(exact, "_brent_split", exhausted)
    with pytest.raises(BudgetExhausted):
        factorize(p1 * p2)
    # an internal limit, not bad input: the CLI maps RuntimeError to exit 3
    assert issubclass(BudgetExhausted, RuntimeError)
    assert not issubclass(BudgetExhausted, ValueError)


def test_failed_cofactor_split_is_remembered(monkeypatch, empty_memo):
    calls = []

    def exhausted(n):
        calls.append(n)
        raise BudgetExhausted("no budget for %d" % n)

    p1, p2 = _primes_above(1 << 32, 2)
    monkeypatch.setattr(exact, "_brent_split", exhausted)
    for k in (3, 5):
        with pytest.raises(BudgetExhausted):
            factorize(k * p1 * p2)
    # the memo saves the second attempt
    assert calls == [p1 * p2]


def test_cofactor_split_is_reused(brent_calls):
    p1, p2 = _primes_above(1 << 32, 2)
    assert factorize(3 * p1 * p2) == [(3, 1), (p1, 1), (p2, 1)]
    assert factorize(5 * p1 * p2) == [(5, 1), (p1, 1), (p2, 1)]
    assert factorize(7 * (p1 * p2) ** 2) == [(7, 1), (p1, 2), (p2, 2)]
    assert brent_calls == [p1 * p2]


def test_factorize_outside_scope_splits_every_new_number(brent_calls):
    p1, p2, p3 = _primes_above(1 << 33, 3)
    assert factorize(p1 * p2) == [(p1, 1), (p2, 1)]
    assert factorize(p1 * p3) == [(p1, 1), (p3, 1)]
    assert len(brent_calls) == 2


def test_squarefree_part_fixed_values():
    assert squarefree_part(1) == (1, Fraction(1))
    assert squarefree_part(-100) == (-1, Fraction(10))
    assert squarefree_part(Fraction(50, 9)) == (2, Fraction(5, 3))


def test_squarefree_part_random_rationals():
    rng = random.Random(102)
    for _ in range(1000):
        num = rng.randint(-10 ** 6, 10 ** 6)
        den = rng.randint(1, 10 ** 6)
        if num == 0:
            continue
        r = Fraction(num, den)
        s, t = squarefree_part(r)
        assert s * t * t == r
        # s squarefree: no prime square divides it
        for p, e in factorize(abs(s)):
            assert e == 1


_WRONG_FACTORIZATION = """
import qfbounds.exact as exact

exact.factorize = lambda n, caps=None: [(2, 1)] if n > 1 else []
try:
    exact.squarefree_part(12)
except RuntimeError as exc:
    print("RuntimeError:", exc)
"""


def test_squarefree_check_survives_optimize_flag():
    # under python -O an assert would vanish; the check must not
    proc = run_python(["-c", _WRONG_FACTORIZATION], "-O")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"RuntimeError: squarefree split 2 * (1)^2 is not 12\n"


def test_kronecker_fixed_values():
    assert kronecker_symbol(1, 3) == 1
    assert kronecker_symbol(-7, 3) == -1
    assert kronecker_symbol(-4, 5) == 1


def test_kronecker_rejects_zero_modulus():
    with pytest.raises(ValueError):
        kronecker_symbol(5, 0)


def test_kronecker_matches_quadratic_residues_at_primes():
    for p in brute_primes(200):
        for a in range(p):
            sym = kronecker_symbol(a, p)
            if a % p == 0:
                assert sym == 0
            elif brute_is_square_mod(a, p):
                assert sym == 1
            else:
                assert sym == -1


def test_kronecker_multiplicative_in_top_argument():
    rng = random.Random(103)
    for _ in range(300):
        n = rng.choice([t for t in range(3, 300, 2)])
        a, b = rng.randint(1, 500), rng.randint(1, 500)
        assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


def test_crt_fixed_values():
    assert crt_solve([(0, 1)]) == 0
    assert crt_solve([(3, 8), (1, 3)]) == 19
    assert crt_solve([(2, 5), (3, 7)]) == 17


def test_crt_random_systems():
    rng = random.Random(104)
    moduli = [3, 8, 5, 7, 11]
    for _ in range(200):
        chosen = rng.sample(moduli, rng.randint(1, 4))
        rem = [(rng.randrange(m), m) for m in chosen]
        x = crt_solve(rem)
        for r, m in rem:
            assert x % m == r
        prod = 1
        for m in chosen:
            prod *= m
        assert 0 <= x < prod


def test_smallest_nonresidue_prime():
    assert smallest_nonresidue_prime(5) == 2
    assert smallest_nonresidue_prime(7) == 3
    assert smallest_nonresidue_prime(3) == 2
    for p in brute_primes(200)[1:]:
        q = smallest_nonresidue_prime(p)
        assert is_prime(q)
        assert not brute_is_square_mod(q, p)
        for smaller in brute_primes(q - 1):
            assert brute_is_square_mod(smaller, p)


def test_least_prime_in_ap_fixed_values():
    assert next(primes_in_ap(1, 1)) == 2
    assert next(primes_in_ap(1, 4)) == 5
    assert next(primes_in_ap(3, 10)) == 3
    with pytest.raises(ValueError):
        next(primes_in_ap(1, 0))
    with pytest.raises(ValueError):
        next(primes_in_ap(2, 4))


def test_least_prime_in_ap_against_scan():
    primes = brute_primes(20000)
    import math

    for m in range(1, 51):
        for a in range(1, m + 1):
            if math.gcd(a, m) != 1:
                continue
            expected = next(p for p in primes if p % m == a % m)
            assert next(primes_in_ap(a, m)) == expected


def test_rational_sqrt():
    assert rational_sqrt(0) == 0
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)
    assert rational_sqrt(2) is None
    assert rational_sqrt(-9) is None
    rng = random.Random(105)
    for _ in range(200):
        r = Fraction(rng.randint(1, 3000), rng.randint(1, 3000))
        s = rational_sqrt(r * r)
        assert s == r


def test_rat_str_parse_round_trip():
    rng = random.Random(106)
    for _ in range(100):
        r = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rat(rat_str(r)) == r
    assert rat_str(Fraction(3, 1)) == "3"
    assert rat_str(Fraction(-3, 7)) == "-3/7"


@pytest.mark.parametrize("text", ["1/0", "-3/0", "abc"])
def test_parse_rat_rejects_bad_text(text):
    with pytest.raises(ValueError):
        parse_rat(text)
