"""Diagonal form invariants: Hilbert symbols, Hasse-Witt, the
local-global isometry and isotropy decisions, and the LDL^t kernel."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qfbounds.forms import (
    INF,
    DiagForm,
    hasse_witt,
    hilbert_symbol,
    invariant_profile,
    is_isometric_Q,
    is_local_square,
    is_isotropic_Q,
    ldl,
    relevant_places,
    standard_lorentzian,
    unit_lower_inverse,
)
from qfbounds.isometry import verify_isometry

from conftest import (
    brute_is_square_mod,
    congruent_diagonalization,
    det_oracle,
    explicit_isometry_rank2,
    explicit_isometry_rank3,
    hilbert_oracle_odd,
    isotropy_oracle,
    no_primitive_zero_mod_2k,
    random_nonzero,
    random_unimodular,
)

Q61 = standard_lorentzian(6)


# ---------------------------------------------------------------------------
# DiagForm basics

def test_diagform_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        DiagForm((1, 0, 3))


def test_diagform_parse_round_trip():
    q = DiagForm.parse("1,2,5,-10")
    assert q.coeffs == (1, 2, 5, -10)
    assert DiagForm.parse(str(q)) == q
    assert q.to_json_list() == ["1", "2", "5", "-10"]


def test_diagform_signature_disc():
    q = DiagForm((1, 2, 5, -10))
    assert q.rank == 4
    assert q.signature == (3, 1)
    assert q.disc == -100


# ---------------------------------------------------------------------------
# Hilbert symbol

def test_hilbert_trivial_first_argument():
    for b in (2, 5, -10, Fraction(3, 7)):
        for v in (2, 3, 5, 7, INF):
            assert hilbert_symbol(1, b, v) == 1


def test_hilbert_fixed_values():
    assert hilbert_symbol(2, 5, 5) == -1
    assert hilbert_symbol(7, 7, 7) == -1
    assert hilbert_symbol(7, 7, INF) == 1
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 5)


def test_hilbert_against_residue_search_oracle():
    assert hilbert_oracle_odd(2, 5, 5) == -1
    assert hilbert_oracle_odd(7, 7, 7) == -1
    rng = random.Random(201)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        a = random_nonzero(rng, -30, 30)
        b = random_nonzero(rng, -30, 30)
        assert hilbert_symbol(a, b, p) == hilbert_oracle_odd(a, b, p)


def test_hilbert_reciprocity_500_pairs():
    rng = random.Random(202)
    for _ in range(500):
        a = random_nonzero(rng, -50, 50)
        b = random_nonzero(rng, -50, 50)
        places = relevant_places(DiagForm((a, b)))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1
        # and the symbol really is +1 off the relevant set
        for p in (101, 103, 211):
            assert hilbert_symbol(a, b, p) == 1 or p in places


def test_hilbert_bimultiplicative():
    rng = random.Random(203)
    for _ in range(200):
        a = random_nonzero(rng, -30, 30)
        a2 = random_nonzero(rng, -30, 30)
        b = random_nonzero(rng, -30, 30)
        v = rng.choice([2, 3, 5, 7, 11, INF])
        assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)


def test_hilbert_symmetry_and_square_stability():
    rng = random.Random(204)
    for _ in range(200):
        a = random_nonzero(rng, -30, 30)
        b = random_nonzero(rng, -30, 30)
        v = rng.choice([2, 3, 5, 7, INF])
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * 9, b, v) == hilbert_symbol(a, b, v)
        assert hilbert_symbol(a, a, v) == hilbert_symbol(a, -1, v)


def _random_rational(rng):
    return Fraction(random_nonzero(rng, -30, 30), rng.randint(2, 12))


def _cleared(r):
    # r times the square of its denominator: an integer in r's square class
    return int(r * r.denominator ** 2)


def test_hilbert_non_integral_arguments_odd_primes():
    rng = random.Random(205)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        a, b = _random_rational(rng), _random_rational(rng)
        assert hilbert_symbol(a, b, p) == hilbert_oracle_odd(_cleared(a), _cleared(b), p)


def test_hilbert_at_two_against_anisotropy_certificate():
    rng = random.Random(206)
    certified = 0
    for _ in range(200):
        a, b = _random_rational(rng), _random_rational(rng)
        if rng.random() < 0.5:
            a = a.numerator
        # no primitive zero of a x^2 + b y^2 - z^2 mod 2^6 proves (a, b)_2 = -1
        if no_primitive_zero_mod_2k([_cleared(Fraction(a)), _cleared(b), -1], 6):
            certified += 1
            assert hilbert_symbol(a, b, 2) == -1
    assert certified >= 40


# (u, v)_2 for u, v in _CLASSES_AT_2, worked out by hand from
# (u, v)_2 = (-1)^(e(u')e(v') + a w(v') + b w(u')) for u = 2^a u', v = 2^b v',
# e(x) = (x - 1)/2 and w(x) = (x^2 - 1)/8 mod 2; every -1 is also certified
# by no_primitive_zero_mod_2k on <u, v, -1> with k = 5
_CLASSES_AT_2 = (-1, 2, -2, 3, -3, 6, -6)
_HILBERT_AT_2 = (
    (-1, 1, -1, -1, 1, -1, 1),
    (1, 1, 1, -1, -1, -1, -1),
    (-1, 1, -1, 1, -1, 1, -1),
    (-1, -1, 1, -1, 1, 1, -1),
    (1, -1, -1, 1, 1, -1, -1),
    (-1, -1, 1, 1, -1, -1, 1),
    (1, -1, -1, -1, -1, 1, 1),
)


def test_hilbert_at_two_table():
    for u, row in zip(_CLASSES_AT_2, _HILBERT_AT_2):
        for v, want in zip(_CLASSES_AT_2, row):
            assert hilbert_symbol(u, v, 2) == want
            # non-integral representatives of the same square classes
            assert hilbert_symbol(Fraction(u, 4), Fraction(9, v), 2) == want
            assert hilbert_symbol(Fraction(25 * u, 49), v, 2) == want
            assert (want == -1) == no_primitive_zero_mod_2k([u, v, -1], 5)


def test_is_local_square_non_integral_against_residue_search():
    rng = random.Random(207)
    for _ in range(300):
        r = _random_rational(rng)
        assert is_local_square(r, INF) == (r > 0)
        for p in (2, 3, 5, 7):
            m, val = _cleared(r), 0
            while m % p == 0:
                m //= p
                val += 1
            # a p-adic unit is a square iff it is one mod p (mod 8 at p = 2)
            want = val % 2 == 0 and brute_is_square_mod(m, 8 if p == 2 else p)
            assert is_local_square(r, p) == want


# ---------------------------------------------------------------------------
# Hasse-Witt and profiles

def test_hasse_witt_fixed_values():
    q1 = DiagForm((1, 1, 1, -7))
    for p in (2, 3, 5, 7, INF):
        assert hasse_witt(q1, p) == 1
    q2 = DiagForm((1, 2, 5, -10))
    assert hasse_witt(q2, 5) == -1
    assert hasse_witt(q2, 2) == -1
    assert hasse_witt(q2, 3) == 1


def test_relevant_places():
    assert set(relevant_places(DiagForm((1, 1)))) == {2, INF}
    assert set(relevant_places(DiagForm((1, 2, 5, -10)))) == {2, 5, INF}
    assert set(relevant_places(DiagForm((1, 1, 1, -7)))) == {2, 7, INF}


def test_invariant_profile_fixed_values():
    prof = invariant_profile(DiagForm((1, -1)))
    assert prof.rank == 2 and prof.signature == (1, 1)
    assert prof.disc_class == -1
    assert all(v == 1 for v in prof.hasse_witt.values())

    prof = invariant_profile(DiagForm((1, 2, 5, -10)))
    assert prof.signature == (3, 1)
    assert prof.disc_class == -1
    assert sorted(p for p, v in prof.hasse_witt.items() if v == -1) == [2, 5]

    prof = invariant_profile(DiagForm((1, 1, 1, -7)))
    assert prof.signature == (3, 1)
    assert prof.disc_class == -7
    assert all(v == 1 for v in prof.hasse_witt.values())


def test_profile_product_formula():
    rng = random.Random(205)
    for _ in range(100):
        n = rng.randint(1, 5)
        q = DiagForm(tuple(random_nonzero(rng, -20, 20) for _ in range(n)))
        prof = invariant_profile(q)
        prod = 1
        for v in prof.hasse_witt.values():
            prod *= v
        assert prod == 1


# ---------------------------------------------------------------------------
# isometry decision

def test_is_isometric_reflexive_and_fixed():
    q = DiagForm((1, 2, 5, -10))
    assert is_isometric_Q(q, q)
    qc = DiagForm((2, 5, 10))
    assert is_isometric_Q(qc.direct_sum(q), Q61)
    assert not is_isometric_Q(DiagForm((1, 1, 1, -7)), DiagForm((1, 1, 1, -1)))


def test_congruence_invariance_of_profiles():
    rng = random.Random(206)
    for _ in range(200):
        n = rng.randint(2, 5)
        coeffs = tuple(random_nonzero(rng, -20, 20) for _ in range(n))
        q = DiagForm(coeffs)
        u = random_unimodular(rng, n)
        diag = congruent_diagonalization(coeffs, u)
        if any(d == 0 for d in diag):
            # unimodular congruence cannot degenerate; surface it
            raise AssertionError("degenerate diagonalization of a unimodular congruence")
        q2 = DiagForm(tuple(diag))
        assert is_isometric_Q(q, q2)
        p1, p2 = invariant_profile(q), invariant_profile(q2)
        assert p1.rank == p2.rank and p1.signature == p2.signature
        assert p1.disc_class == p2.disc_class
        places = set(p1.hasse_witt) | set(p2.hasse_witt)
        for v in places:
            assert p1.hasse_witt.get(v, 1) == p2.hasse_witt.get(v, 1)


def _congruent_partner(rng, coeffs):
    """A form isometric to coeffs by construction, square-reduced."""
    n = len(coeffs)
    while True:
        u = random_unimodular(rng, n)
        diag = congruent_diagonalization(coeffs, u)
        if all(d != 0 for d in diag):
            return DiagForm(tuple(diag)).squarefree_normalized()


def test_isometry_decision_agrees_with_explicit_search_rank2():
    rng = random.Random(208)
    successes = 0
    for k in range(60):
        q1 = tuple(random_nonzero(rng, -10, 10) for _ in range(2))
        if k % 2 == 0:
            q2 = tuple(int(c) for c in _congruent_partner(rng, q1).coeffs)
        else:
            q2 = tuple(random_nonzero(rng, -10, 10) for _ in range(2))
        p = explicit_isometry_rank2(q1, q2)
        if p is None:
            continue
        successes += 1
        assert verify_isometry(p, DiagForm(q1), DiagForm(q2))
        assert is_isometric_Q(DiagForm(q1), DiagForm(q2))
    assert successes >= 10  # the search is not vacuous at this seed


def test_isometry_decision_agrees_with_explicit_search_rank3():
    rng = random.Random(209)
    successes = 0
    for k in range(24):
        q1 = tuple(random_nonzero(rng, -6, 6) for _ in range(3))
        if k % 2 == 0:
            q2 = tuple(int(c) for c in _congruent_partner(rng, q1).coeffs)
        else:
            q2 = tuple(random_nonzero(rng, -6, 6) for _ in range(3))
        p = explicit_isometry_rank3(q1, q2)
        if p is None:
            continue
        successes += 1
        assert verify_isometry(p, DiagForm(q1), DiagForm(q2))
        assert is_isometric_Q(DiagForm(q1), DiagForm(q2))
    assert successes >= 3


# ---------------------------------------------------------------------------
# isotropy

def test_isotropy_fixed_values():
    assert is_isotropic_Q(DiagForm((1, -1)))
    assert not is_isotropic_Q(DiagForm((1, 2, 5, -10)))
    assert is_isotropic_Q(DiagForm((1, 1, 1, -2)))
    assert not is_isotropic_Q(DiagForm((1, 1, 1, -7)))


def test_isotropy_rejects_rank_one():
    with pytest.raises(ValueError):
        is_isotropic_Q(DiagForm((5,)))


def test_isotropy_agrees_with_search_oracle():
    rng = random.Random(211)
    open_cases = 0
    for _ in range(80):
        n = rng.randint(2, 4)
        q = DiagForm(tuple(random_nonzero(rng, -15, 15) for _ in range(n)))
        verdict = is_isotropic_Q(q)
        oracle = isotropy_oracle(q.coeffs)
        if oracle is None:
            open_cases += 1
            continue
        assert verdict == oracle, "disagreement on %s" % q
    assert open_cases <= 2


# ---------------------------------------------------------------------------
# LDL^t


def _ldl_product(mu, d):
    n = len(d)
    return [
        [sum(mu[i][k] * d[k] * mu[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _random_symmetric(rng, n, den=1):
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, den))
    return g


def test_ldl_reproduces_random_rational_matrices():
    rng = random.Random(601)
    full = stopped = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        g = _random_symmetric(rng, n, den=rng.choice((1, 4)))
        mu, d = ldl(g)
        k = len(d)
        assert all(type(x) is Fraction for x in d)
        assert all(mu[i][i] == 1 and not any(mu[i][i + 1 :]) for i in range(k))
        # mu diag(d) mu^t is the leading k x k block of g
        assert _ldl_product(mu, d) == [row[:k] for row in g[:k]]
        # the pivots are ratios of leading minors, so the product of the
        # first j is the j-th minor (oracle: Gaussian elimination)
        prod = Fraction(1)
        for j in range(k):
            prod *= d[j]
            assert prod == det_oracle([row[: j + 1] for row in g[: j + 1]])
        # it stops after the first zero pivot, and only there
        assert all(d[:-1]) and (k == n or d[-1] == 0)
        if d[-1] == 0:
            stopped += 1
        else:
            full += 1
            # the rows of mu^{-1} diagonalize g by congruence
            inv = unit_lower_inverse(mu)
            assert [
                [sum(inv[i][a] * g[a][b] * inv[j][b] for a in range(n) for b in range(n))
                 for j in range(n)]
                for i in range(n)
            ] == [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert full > 100 and stopped > 10


def test_ldl_stops_at_first_zero_pivot():
    # the 2nd leading minor of this matrix vanishes, the 3rd does not
    g = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    mu, d = ldl(g)
    assert d == [1, 0] and mu == [[1, 0], [1, 1]]
    assert det_oracle(g) != 0


def test_ldl_int_input_is_exact():
    mu, d = ldl([[3, 1], [1, 2]])
    assert d == [Fraction(3), Fraction(5, 3)] and mu[1][0] == Fraction(1, 3)
    assert all(type(x) is Fraction for x in d + [mu[1][0]])


def test_ldl_mpf_input():
    with mp.workdps(40):
        g = [[mpf(2), mpf(1) / 3, mpf(-1)], [mpf(1) / 3, mpf(5), mpf(2)], [mpf(-1), mpf(2), mpf(-7)]]
        mu, d = ldl(g)
        assert len(d) == 3 and d[0] > 0 and d[1] > 0 and d[2] < 0
        prod = _ldl_product(mu, d)
        assert max(abs(prod[i][j] - g[i][j]) for i in range(3) for j in range(3)) < mpf(10) ** -35
        exact = ldl([[Fraction(2), Fraction(1, 3), Fraction(-1)],
                     [Fraction(1, 3), Fraction(5), Fraction(2)],
                     [Fraction(-1), Fraction(2), Fraction(-7)]])[1]
        assert max(abs(x - mpf(y.numerator) / y.denominator) for x, y in zip(d, exact)) < mpf(10) ** -35
