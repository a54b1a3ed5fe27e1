"""Imaginary quadratic fields, quaternion ramification data, the sharp
level-support enumeration, and the index-bound constants built on top
of them.

Class numbers are cross-checked against the finite character sum of the
analytic class number formula, zeta values against closed forms, a
truncated character sum and an ideal sum, and the V-mode level-support
packing against thresholds computed at 50 digits.
"""

import itertools
import json
import math
import random

import mpmath as mp
import pytest

from qfbounds.arithmetic import (
    THEOREM_PREFACTOR,
    BoundValue,
    ImagQuadField,
    c2_bound,
    c_eps_bound,
    c_prime_eps,
    class_number_of_disc,
    field_from_form,
    generic_S_rf_bound,
    prime_norms,
    quaternion_algebra,
    quaternion_from_form,
    ram_norms,
    sharp_S_enumeration,
    splitting_type,
    total_index_bound,
    zeta_k_2,
    _zeta_k_2_of_disc,
)
from qfbounds.forms import DiagForm, hilbert_symbol
from qfbounds.pipeline import to_json
from conftest import (
    brute_is_square_mod,
    brute_primes,
    chi_table,
    random_nonzero,
    zeta_k_2_char_sum,
    zeta_k_2_ideal_sum,
)


def is_squarefree(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# fields and class numbers


def test_field_construction_fixed():
    K = ImagQuadField.from_d(1)
    assert (K.disc, K.d_k, K.h_k, K.omega_dk) == (-4, 4, 1, 1)
    K = ImagQuadField.from_d(7)
    assert (K.disc, K.d_k, K.h_k, K.omega_dk) == (-7, 7, 1, 1)
    K = ImagQuadField.from_d(5)
    assert (K.disc, K.d_k, K.h_k, K.omega_dk) == (-20, 20, 2, 2)
    # textbook values
    assert ImagQuadField.from_d(163).h_k == 1
    assert ImagQuadField.from_d(23).h_k == 3
    assert ImagQuadField.from_d(47).h_k == 5


def test_field_construction_validation():
    with pytest.raises(ValueError):
        ImagQuadField.from_d(0)
    with pytest.raises(ValueError):
        ImagQuadField.from_d(-3)
    with pytest.raises(ValueError):
        ImagQuadField.from_d(12)


def test_class_number_disc_validation():
    with pytest.raises(ValueError):
        class_number_of_disc(-6)
    with pytest.raises(ValueError):
        class_number_of_disc(5)
    with pytest.raises(ValueError):
        class_number_of_disc(0)


def test_class_numbers_vs_dirichlet_sum():
    """h(disc) = sum_{0 < a < |disc|/2} chi(a) / (2 - chi(2)) for disc < -4.

    The discriminants produced by from_d are fundamental (d squarefree),
    which is exactly the validity range of the finite character sum.
    """
    checked = 0
    for d in range(1, 201):
        if not is_squarefree(d):
            continue
        K = ImagQuadField.from_d(d)
        if K.disc >= -4:
            assert K.h_k == 1
            continue
        chi = chi_table(K.disc)
        s = sum(chi[a] for a in range(1, (K.d_k + 1) // 2))
        denom = 2 - chi[2 % K.d_k]
        assert s % denom == 0
        assert K.h_k == s // denom
        checked += 1
    assert checked > 100


def test_splitting_partition():
    for d in (1, 2, 5, 7, 11, 30):
        K = ImagQuadField.from_d(d)
        for p in brute_primes(100)[:25]:
            t = splitting_type(K, p)
            if K.d_k % p == 0:
                want = "ramified"
            elif p == 2:
                want = "split" if K.disc % 8 == 1 else "inert"
            else:
                want = "split" if brute_is_square_mod(K.disc, p) else "inert"
            assert t == want
    with pytest.raises(ValueError):
        splitting_type(ImagQuadField.from_d(1), 6)


def test_h_k_upper_bound_dominates():
    # the documented bound h_k <= 242 * d_k^{3/4}
    for d in range(1, 201):
        if is_squarefree(d):
            K = ImagQuadField.from_d(d)
            assert 242 * K.d_k ** 0.75 >= K.h_k


# ---------------------------------------------------------------------------
# zeta_k(2)


def test_zeta2_gaussian_closed_form():
    K = ImagQuadField.from_d(1)
    with mp.workdps(40):
        ref = float(mp.pi ** 2 / 6 * mp.catalan)
    assert abs(zeta_k_2(K) - ref) < 1e-12


def test_zeta2_d7_vs_hurwitz():
    K = ImagQuadField.from_d(7)
    chi = chi_table(-7)
    with mp.workdps(40):
        l2 = mp.fsum(chi[a] * mp.zeta(2, mp.mpf(a) / 7) for a in range(1, 7)) / 49
        ref = float(mp.zeta(2) * l2)
    assert abs(zeta_k_2(K) - ref) < 1e-12


def test_zeta2_ideal_sum_crosscheck():
    for d in (1, 7):
        K = ImagQuadField.from_d(d)
        direct = zeta_k_2(K)
        assert abs(zeta_k_2_ideal_sum(K, 20_000) - direct) < 2e-4
    K = ImagQuadField.from_d(1)
    d20 = abs(zeta_k_2_ideal_sum(K, 20_000) - zeta_k_2(K))
    d50 = abs(zeta_k_2_ideal_sum(K, 50_000) - zeta_k_2(K))
    assert d50 < d20


@pytest.mark.parametrize("d", [3, 1, 7, 2, 77])  # d_k = 3, 4, 7, 8, 308
def test_zeta2_vs_character_sum(d):
    K = ImagQuadField.from_d(d)
    assert abs(zeta_k_2(K) - zeta_k_2_char_sum(K)) < 1e-12


def test_zeta2_independent_of_caller_precision():
    K = ImagQuadField.from_d(7)
    values = []
    for dps in (15, 60):
        _zeta_k_2_of_disc.cache_clear()
        with mp.workdps(dps):
            values.append(zeta_k_2(K))
    assert values[0] == values[1]


def test_zeta2_memoized_per_discriminant():
    K = ImagQuadField.from_d(7)
    first = zeta_k_2(K)
    hits = _zeta_k_2_of_disc.cache_info().hits
    assert zeta_k_2(ImagQuadField.from_d(7)) == first
    assert _zeta_k_2_of_disc.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# quaternion algebras from rank-4 forms


def test_field_from_form_fixed():
    d_raw, K = field_from_form(DiagForm((1, 2, 5, -10)))
    assert d_raw == 100 and K.d == 1
    d_raw, K = field_from_form(DiagForm((1, 1, 1, -7)))
    assert d_raw == 7 and K.d == 7
    with pytest.raises(ValueError):
        field_from_form(DiagForm((1, 1, -1, -7)))
    with pytest.raises(ValueError):
        field_from_form(DiagForm((1, 1, -7)))


def test_quaternion_from_form_fixed():
    A = quaternion_from_form(DiagForm((1, 2, 5, -10)))
    assert (A.a, A.b) == (2, 5)
    assert A.field.d == 1
    assert A.ram_f == ((5, 2, 5),)
    assert A.r_f == 2
    assert ram_norms(A) == [5, 5]

    A = quaternion_from_form(DiagForm((1, 1, 1, -7)))
    assert (A.a, A.b) == (7, 7)
    assert A.field.d == 7
    assert A.ram_f == ((2, 2, 2),)
    assert A.r_f == 2
    assert ram_norms(A) == [2, 2]


def test_quaternion_entries_reduced_and_validated():
    K = ImagQuadField.from_d(1)
    A = quaternion_algebra(8, 18, K)
    assert (A.a, A.b) == (2, 2)
    with pytest.raises(ValueError):
        quaternion_algebra(0, 3, K)
    with pytest.raises(ValueError):
        quaternion_algebra(3, 0, K)


def test_ramification_structure_random_forms():
    """Every ramified prime of the base-changed algebra is split in K,
    contributes both primes above it, and carries Hilbert symbol -1."""
    rng = random.Random(501)
    for _ in range(80):
        zs = [abs(random_nonzero(rng, -20, 20)) for _ in range(4)]
        g = math.gcd(math.gcd(zs[0], zs[1]), math.gcd(zs[2], zs[3]))
        zs = [z // g for z in zs]
        q = DiagForm((zs[0], zs[1], zs[2], -zs[3]))
        A = quaternion_from_form(q)
        assert A.r_f % 2 == 0
        assert A.r_f == 2 * len(A.ram_f)
        assert ram_norms(A) == sorted(ram_norms(A))
        for p, count, norm in A.ram_f:
            assert count == 2 and norm == p
            assert splitting_type(A.field, p) == "split"
            assert hilbert_symbol(A.a, A.b, p) == -1
            assert A.field.d_k % p != 0


# ---------------------------------------------------------------------------
# effective constants


def test_c_prime_eps_values():
    assert c_prime_eps(1.0) == 270.5
    assert c_prime_eps(0.5) == 526.5
    with pytest.raises(ValueError):
        c_prime_eps(0.0)
    with pytest.raises(ValueError):
        c_prime_eps(-1.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_c_prime_eps_rejects_non_finite(eps):
    with pytest.raises(ValueError, match="finite and positive"):
        c_prime_eps(eps)


def test_c_prime_eps_rejects_overflow():
    for eps in (0.0009, 5e-324):
        with pytest.raises(ValueError, match="overflows"):
            c_prime_eps(eps)
    assert math.isfinite(c_prime_eps(0.001))


def test_c1_and_c_eps_bounds():
    K = ImagQuadField.from_d(1)
    # A1 = 0 removes the omega(d_k) factor and leaves
    # C1 = 2^(C'_1 + 2) * 121 * 4^(3/2) = 2^272.5 * 968
    c1 = c_eps_bound(K, 1.0, A1=0.0)
    assert abs(c1.log10 - (272.5 * math.log10(2) + math.log10(968))) < 1e-10
    ce = c_eps_bound(K, 1.0)
    assert ce.parameterized_by == ("A1",)
    assert ce.log10 > c1.log10
    with pytest.raises(ValueError):
        c_eps_bound(K, 1.0, A1=-0.5)


def test_c2_bound():
    K = ImagQuadField.from_d(7)
    assert c2_bound(K, type_number_one=True).log10 == 0.0
    b = c2_bound(K)
    assert abs(b.log10 - math.log10(7)) < 1e-12
    assert b.parameterized_by == ("A1",)


def test_generic_S_rf_bound_values():
    assert abs(generic_S_rf_bound(1.0, 1.0) - 270.5) < 1e-12
    assert abs(generic_S_rf_bound(1.0, 2.0) - 271.5) < 1e-12
    assert abs(generic_S_rf_bound(0.5, 4.0) - 264.25) < 1e-12
    with pytest.raises(ValueError):
        generic_S_rf_bound(1.0, 0.0)


def test_bound_value_human_format():
    K = ImagQuadField.from_d(1)
    assert c_eps_bound(K, 1.0, A1=0.0).human.startswith("<= 10^85.016549")
    assert c_eps_bound(K, 1.0).human.endswith("(parameterized by A1)")


# ---------------------------------------------------------------------------
# sharp level-support enumeration


def test_prime_norms_ascending_fixed():
    def first(K, count, exclude_norms=()):
        return list(itertools.islice(prime_norms(K, exclude_norms), count))

    Qi = ImagQuadField.from_d(1)
    assert first(Qi, 8) == [2, 5, 5, 9, 13, 13, 17, 17]
    Q7 = ImagQuadField.from_d(7)
    assert first(Q7, 6) == [2, 2, 7, 9, 11, 11]
    assert first(Qi, 5, exclude_norms=[5, 5]) == [2, 9, 13, 13, 17]


def test_sharp_enumeration_v_mode_small_volume():
    Qi = ImagQuadField.from_d(1)
    with mp.workdps(30):
        V = float(4 * mp.catalan)
    sh = sharp_S_enumeration(Qi, [5, 5], V=V)
    assert sh.mode == "V"
    assert sh.max_S_size == 1
    assert sh.norms_considered == (2,)
    assert sh.r_f == 2
    assert sh.coefficient == 16.0
    # feasibility recheck: base * 3/2 <= V but base * 3/2 * 5 > V
    base = Qi.d_k ** 1.5 * zeta_k_2(Qi) / (8 * math.pi ** 2) * 2 * 2
    assert base * 1.5 <= V < base * 1.5 * 5


def test_sharp_enumeration_v_mode_greedy_packing():
    Qi = ImagQuadField.from_d(1)
    sh = sharp_S_enumeration(Qi, [], V=3.0)
    assert sh.max_S_size == 3
    assert sh.norms_considered == (2, 5, 5)
    assert sh.coefficient == 16.0
    base = Qi.d_k ** 1.5 * zeta_k_2(Qi) / (8 * math.pi ** 2)
    acc = base * 1.5 * 3 * 3
    assert acc <= 3.0 < acc * 5


def test_sharp_enumeration_eps_mode():
    Q7 = ImagQuadField.from_d(7)
    sh = sharp_S_enumeration(Q7, [], eps=0.5)
    assert sh.mode == "eps"
    assert sh.max_S_size is None
    assert sh.coefficient == 8.0
    assert sh.norms_considered == (2, 2, 7)
    assert sh.eps_validity_threshold == 0.5
    with pytest.raises(ValueError):
        sharp_S_enumeration(Q7, [], eps=0.49)


def test_sharp_enumeration_argument_validation():
    Qi = ImagQuadField.from_d(1)
    with pytest.raises(ValueError):
        sharp_S_enumeration(Qi, [])
    with pytest.raises(ValueError):
        sharp_S_enumeration(Qi, [], V=1.0, eps=1.0)
    with pytest.raises(ValueError):
        sharp_S_enumeration(Qi, [], V=0.0)


@pytest.mark.parametrize("deg", [0, -1])
@pytest.mark.parametrize("mode", [{"V": 4.0}, {"eps": 1.0}])
def test_sharp_enumeration_rejects_degree_below_one(deg, mode):
    # deg 0 would divide by zero and a negative one would make the
    # V-mode packing run forever
    Qi = ImagQuadField.from_d(1)
    with pytest.raises(ValueError, match="deg_kA must be at least 1, got %d" % deg):
        sharp_S_enumeration(Qi, [5, 5], deg_kA=deg, **mode)


@pytest.mark.parametrize("mode", [{"V": 4.0}, {"eps": 1.0}])
def test_sharp_enumeration_rejects_degree_above_class_number(mode):
    # k_A lies in the Hilbert class field, so [k_A:k] <= h_k
    Qi = ImagQuadField.from_d(1)
    with pytest.raises(ValueError, match="deg_kA must be at most the class number h_k = 1, got 2"):
        sharp_S_enumeration(Qi, [5, 5], deg_kA=2, **mode)
    K = ImagQuadField.from_d(5)
    assert K.h_k == 2
    assert sharp_S_enumeration(K, [], deg_kA=2, **mode).deg_kA == 2
    with pytest.raises(ValueError, match="h_k = 2, got 3"):
        sharp_S_enumeration(K, [], deg_kA=3, **mode)


def test_sharp_enumeration_v_mode_huge_volume():
    # the packing follows the prime norms as far as V needs, past the
    # 64 norms a fixed guard used to allow
    Qi = ImagQuadField.from_d(1)
    sh = sharp_S_enumeration(Qi, [5, 5], V=1e200)
    norms = list(sh.norms_considered)
    assert sh.max_S_size == len(norms) > 64
    assert norms == list(itertools.islice(prime_norms(Qi, [5, 5]), len(norms)))
    base = Qi.d_k ** 1.5 * zeta_k_2(Qi) / (8 * math.pi ** 2) * 2 * 2
    acc = base * math.prod((n + 1) / 2 for n in norms)
    nxt = next(itertools.islice(prime_norms(Qi, [5, 5]), len(norms), None))
    assert acc <= 1e200 < acc * (nxt + 1) / 2


def _packing_thresholds(d, count):
    """The first `count` V-mode thresholds t_k = base * prod_{j<=k} (n_j+1)/2
    of Q(sqrt(-d)) with no ramified norms and deg 1, at 50 digits: |S| is
    the largest k with t_k <= V.  zeta_k(2) = zeta(2) L(2, chi) with L from
    mpmath's periodic Dirichlet series and chi from the residue oracle."""
    disc = -d if d % 4 == 3 else -4 * d
    d_k = -disc
    chi = chi_table(disc)
    norms = []
    for p in brute_primes(400):
        c = chi[p % d_k]
        norms += [p, p] if c == 1 else [p * p] if c == -1 else [p]
    norms = sorted(norms)[:count]
    assert norms[-1] < 400
    with mp.workdps(50):
        acc = mp.mpf(d_k) ** 1.5 * mp.zeta(2) * mp.dirichlet(2, chi) / (8 * mp.pi ** 2)
        out = []
        for n in norms:
            acc *= mp.mpf(n + 1) / 2
            out.append(+acc)
    return out


def test_sharp_enumeration_v_mode_never_under_counts_at_thresholds():
    # a float comparison at a threshold can drop the last norm, which
    # halves 2**(|S|+r_f+1) and leaves total_sharp below the true bound;
    # d = 2 at V = 87816.01097228802 once gave |S| = 7 for an exact 8
    under = []
    for d in (1, 2, 3, 5, 7, 11, 19, 43):
        K = ImagQuadField.from_d(d)
        ts = _packing_thresholds(d, 12)
        for t in ts:
            V0 = float(t)
            for V in (math.nextafter(V0, 0), V0, math.nextafter(V0, math.inf)):
                # a float converts to mpf exactly, at any precision
                exact = sum(1 for s in ts if s <= mp.mpf(V))
                got = sharp_S_enumeration(K, [], V=V).max_S_size
                assert got <= exact + 1
                if got < exact:
                    under.append((d, V, got, exact))
    assert under == []


# ---------------------------------------------------------------------------
# assembled index bounds


def test_total_index_bound_sharp_v_mode():
    Qi = ImagQuadField.from_d(1)
    with mp.workdps(30):
        V = float(4 * mp.catalan)
    sh = sharp_S_enumeration(Qi, [5, 5], V=V)
    log10_D = 42 * math.log10(1600)
    tot = total_index_bound(BoundValue(0.0, ("A1",)), log10_D, 0.5, V, sharp=sh)
    assert abs(tot.log10 - 135.77715925420478) < 1e-10
    # the sharp coefficient replaces C_eps, and with it its parameters
    assert tot.parameterized_by == ()
    # a V-mode coefficient already absorbs the V**eps factor
    assert abs(tot.log10 - (math.log10(16) + log10_D)) < 1e-12


def test_total_index_bound_sharp_eps_mode():
    Q7 = ImagQuadField.from_d(7)
    sh = sharp_S_enumeration(Q7, [], eps=0.5)
    tot = total_index_bound(BoundValue(0.0), 10.0, 0.5, 4.0, sharp=sh)
    assert abs(tot.log10 - (math.log10(8) + 10.0 + 0.5 * math.log10(4.0))) < 1e-12


def test_total_index_bound_generic():
    assert THEOREM_PREFACTOR == 51840
    tot = total_index_bound(BoundValue(1.0, ("A1",)), 2.0, 1.0, 10.0)
    assert abs(tot.log10 - (math.log10(51840) + 1.0 + 2.0 + 1.0)) < 1e-12
    # the generic total multiplies C_eps, so it keeps C_eps's parameters
    assert tot.parameterized_by == ("A1",)
    assert tot.human.endswith("(parameterized by A1)")


def test_json_round_trips():
    Qi = ImagQuadField.from_d(1)
    A = quaternion_from_form(DiagForm((1, 2, 5, -10)))
    sh = sharp_S_enumeration(Qi, [5, 5], V=4.0)
    bv = c_eps_bound(Qi, 1.0)
    for obj in (to_json(Qi), to_json(A), to_json(sh), to_json(bv)):
        assert json.loads(json.dumps(obj, sort_keys=True)) == obj
    assert to_json(A)["ram_f"] == [[5, 2, 5]]
    assert to_json(bv)["human"] == bv.human
