"""Explicit rational isometries: the unimodular lattice of step 1, the
unit-vector splits of step 2, and the assembled rank-7 witnesses."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qfbounds.complement import complementary_form
from qfbounds.forms import DiagForm, standard_lorentzian
from qfbounds.isometry import (
    IsometryWitness,
    full_isometry_to_standard,
    mat_denominator_lcm,
    verify_isometry,
    _lagrangian,
    _lll_columns,
    _orthonormal_basis,
    _unimodular_lattice,
    gram_matrix,
)
from qfbounds.pipeline import to_json

from conftest import (
    det_oracle,
    lll_columns_rebuild,
    random_nonzero,
    run_python,
    weighted_gso,
)

Q61 = standard_lorentzian(6)


# ---------------------------------------------------------------------------
# step 1: the unimodular lattice


def test_lagrangian_is_totally_isotropic_and_independent():
    rng = random.Random(811)
    for _ in range(150):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 3)
        units = [rng.randint(1, p - 1) for _ in range(2 * k)]
        disc = (-1) ** k * math.prod(units)
        if pow(disc % p, (p - 1) // 2, p) != 1:
            # not split: only the last pair can tell, and it must refuse
            with pytest.raises(RuntimeError, match="not split"):
                _lagrangian(units, p)
            continue
        vecs = _lagrangian(units, p)
        assert len(vecs) == k
        for u in vecs:
            assert all(2 * abs(t) <= p for t in u)
            for v in vecs:
                assert sum(c * x * y for c, x, y in zip(units, u, v)) % p == 0
        # rank k over F_p: some k x k minor is a unit mod p
        minors = (
            det_oracle([[v[i] for i in cols] for v in vecs])
            for cols in itertools.combinations(range(2 * k), k)
        )
        assert any(m.numerator % p for m in minors)


@pytest.mark.parametrize(
    "s, primes",
    [
        ((2, 5, 10, 1, 2, 5, -10), [(2, 2), (5, 2)]),
        ((15, 35, 39, 6, 3, 14, -13), [(2, 1), (3, 2), (5, 1), (7, 1), (13, 1)]),
        ((1, 1, 1000003, 1, 1, 1, -1000003), [(1000003, 1)]),
    ],
)
def test_unimodular_lattice_is_integral_with_det_minus_one(s, primes):
    steps = []
    N, ints, G = _unimodular_lattice(list(s), steps)
    assert N == math.prod(p for p, _ in primes)
    assert steps == [{"prime": p, "vectors": k} for p, k in primes]
    cols = [[Fraction(x, N) for x in col] for col in ints]
    g = gram_matrix(s, cols)
    assert g == G and all(Fraction(x).denominator == 1 for row in g for x in row)
    assert det_oracle(g) == -1
    # Z^7 lies in L (Cramer coordinates of each e_i are integral), and
    # L in (1/rad) Z^7
    basis = [list(r) for r in zip(*cols)]
    det = det_oracle(basis)
    for e in range(7):
        for j in range(7):
            replaced = [row[:j] + [int(i == e)] + row[j + 1:] for i, row in enumerate(basis)]
            assert (det_oracle(replaced) / det).denominator == 1
    assert mat_denominator_lcm(basis) == math.prod(p for p, _ in primes)


# ---------------------------------------------------------------------------
# step 2: unit vectors of a unimodular lattice

J = (1, 1, 1, 1, 1, 1, -1)


def _scrambled_identity(rng):
    """Columns of U for a random unimodular U: 5 to 60 moves b_i += c b_j
    with c in [-3, 3], starting from the identity."""
    cols = [[int(i == j) for i in range(7)] for j in range(7)]
    for _ in range(rng.randint(5, 60)):
        i, j = rng.sample(range(7), 2)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        cols[i] = [a + c * b for a, b in zip(cols[i], cols[j])]
    return cols


def test_step_two_splits_scrambled_bases_of_I61():
    # U^t J U is I_{6,1} in a random basis; step 2 must return an
    # integral T with T^t (U^t J U) T = diag(1,...,1,-1)
    rng = random.Random(11)
    kinds = set()
    for _ in range(200):
        u = _scrambled_identity(rng)
        steps = []
        t = _orthonormal_basis(gram_matrix(J, u), steps)
        assert all(isinstance(x, int) for col in t for x in col)
        ut = [[sum(col[r] * x for col, x in zip(u, tcol)) for r in range(7)] for tcol in t]
        assert gram_matrix(J, ut) == [[(J[i] if i == j else 0) for j in range(7)] for i in range(7)]
        kinds.update(step["split"] for step in steps)
    # every route of step 2 is exercised
    assert kinds == {"basis", "lll", "isotropic", "hyperbolic"}


def test_lll_reports_isotropic_vector_at_zero_pivot():
    # e_1 + e_7 is isotropic in I_{6,1}; put it first
    cols = [[1, 0, 0, 0, 0, 0, 1]] + [[int(i == j) for i in range(7)] for j in range(1, 7)]
    b, y = _lll_columns(_diag(J), cols)
    assert b == cols and y[0] == 1 and not any(y[1:])
    v = [sum(c * col[r] for c, col in zip(y, b)) for r in range(7)]
    assert sum(w * x * x for w, x in zip(J, v)) == 0


def _diag(weights):
    return [[w if i == j else 0 for j in range(len(weights))] for i, w in enumerate(weights)]


def _lll_cases():
    """400 seeded bases: (weights, columns) with a nonzero determinant."""
    rng = random.Random(816)
    for _ in range(400):
        n = rng.randint(2, 5)
        weights = [rng.randint(1, 30) for _ in range(n)]
        cols = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        det = det_oracle([list(r) for r in zip(*cols)])
        if det != 0:
            yield weights, cols, det


def test_lll_columns_size_reduced_lovasz_same_lattice():
    for weights, cols, det in _lll_cases():
        n = len(cols)
        out, zero = _lll_columns(_diag(weights), cols)
        assert zero is None
        # same lattice: the output lies in it (integral Cramer coordinates)
        # and has the same covolume
        assert abs(det_oracle([list(r) for r in zip(*out)])) == abs(det)
        for col in out:
            for i in range(n):
                swapped = cols[:i] + [col] + cols[i + 1:]
                assert (det_oracle([list(r) for r in zip(*swapped)]) / det).denominator == 1
        mu, norms = weighted_gso(weights, out)
        assert all(abs(m) <= Fraction(1, 2) for row in mu for m in row)
        for k in range(1, n):
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]


def test_lll_columns_in_place_updates_match_rebuild():
    # the swap updates mu and the norms in place; exact arithmetic makes
    # every decision, and so every output, equal to a full recomputation
    for weights, cols, _ in _lll_cases():
        assert _lll_columns(_diag(weights), cols) == (lll_columns_rebuild(weights, cols), None)


# ---------------------------------------------------------------------------
# full witnesses

def test_full_isometry_identity():
    w = full_isometry_to_standard(Q61)
    assert w.S == 1
    assert w.P == [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert verify_isometry(w.P, Q61, Q61)


def test_full_isometry_bianchi_like_form():
    g = DiagForm((1, 1, 7, 1, 1, 1, -7))
    w = full_isometry_to_standard(g)
    assert w.source == g and w.target == Q61
    assert verify_isometry(w.P, g, Q61)
    assert mat_denominator_lcm(w.P) == w.S


def test_full_isometry_m306_like_form():
    g = DiagForm((2, 5, 10, 1, 2, 5, -10))
    w = full_isometry_to_standard(g)
    assert verify_isometry(w.P, g, Q61)


def test_full_isometry_rejects_non_isometric_input():
    with pytest.raises(ValueError):
        full_isometry_to_standard(DiagForm((1, 1, 1, 1, 1, 1, -7)))


_FAILED_FINAL_CHECK = """
import qfbounds.isometry as iso
from qfbounds.forms import DiagForm

iso.verify_isometry = lambda *args: False
try:
    iso.full_isometry_to_standard(DiagForm((2, 5, 10, 1, 2, 5, -10)))
except RuntimeError as exc:
    print("RuntimeError:", exc)
"""


def test_final_check_survives_optimize_flag():
    # under python -O an assert would vanish; the final check must not
    proc = run_python(["-c", _FAILED_FINAL_CHECK], "-O")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"RuntimeError: final congruence check failed\n"


def test_full_isometry_checks_S_against_lower_bound(monkeypatch):
    # rad(det g7) divides S for every isometry; the check must raise, not assert
    from qfbounds import isometry

    monkeypatch.setattr(isometry, "det_radical", lambda g: 1_000_000_007)
    with pytest.raises(RuntimeError, match="is not a multiple of rad"):
        full_isometry_to_standard(DiagForm((1, 1, 7, 1, 1, 1, -7)))


def test_full_isometry_checks_S_equals_lower_bound_when_squarefree(monkeypatch):
    # S = 7 is a multiple of 1, but a squarefree g7 must reach rad exactly
    from qfbounds import isometry

    monkeypatch.setattr(isometry, "det_radical", lambda g: 1)
    with pytest.raises(RuntimeError, match="is not rad"):
        full_isometry_to_standard(DiagForm((1, 1, 7, 1, 1, 1, -7)))


def test_full_isometry_checks_the_lattice_of_step_one(monkeypatch):
    # a vector that is not isotropic mod 7 leaves the Gram matrix non-integral
    from qfbounds import isometry

    monkeypatch.setattr(isometry, "_lagrangian", lambda units, p: [[1, 0]])
    with pytest.raises(RuntimeError, match="not integral with det -1"):
        full_isometry_to_standard(DiagForm((1, 1, 7, 1, 1, 1, -7)))


def test_verify_isometry_basics():
    ident = [[Fraction(1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert verify_isometry(ident, Q61, Q61)
    wrong = [row[:] for row in ident]
    wrong[0][0] = Fraction(2)
    assert not verify_isometry(wrong, Q61, Q61)
    assert not verify_isometry(ident, Q61, standard_lorentzian(5))


def test_witness_json_and_index_bounds():
    g = DiagForm((1, 1, 7, 1, 1, 1, -7))
    w = full_isometry_to_standard(g)
    js = to_json(w)
    assert js["S"] == w.S
    assert js["log10_D_S42"] == pytest.approx(42 * math.log10(w.S))
    assert js["log10_D_level42"] == pytest.approx(84 * math.log10(w.S))

    def with_S(S):
        return IsometryWitness(P=w.P, source=g, target=Q61, S=S, steps=[])

    d = with_S(1)
    assert d.log10_D_S42 == 0.0 and d.log10_D_level42 == 0.0
    d = with_S(7)
    assert d.log10_D_S42 == pytest.approx(42 * math.log10(7))
    assert d.log10_D_level42 == pytest.approx(42 * math.log10(49))
    d = with_S(40)
    assert d.log10_D_level42 == pytest.approx(134.573, abs=5e-3)


def test_round_trip_random_forms():
    rng = random.Random(405)
    for _ in range(40):
        zs = [abs(random_nonzero(rng, -20, 20)) for _ in range(4)]
        g = math.gcd(math.gcd(zs[0], zs[1]), math.gcd(zs[2], zs[3]))
        zs = [z // g for z in zs]
        q = DiagForm((zs[0], zs[1], zs[2], -zs[3]))
        witness = complementary_form(q)
        g7 = witness.qc.direct_sum(q)
        w = full_isometry_to_standard(g7)
        assert verify_isometry(w.P, g7, Q61)
        assert mat_denominator_lcm(w.P) == w.S