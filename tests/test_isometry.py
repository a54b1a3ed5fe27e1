"""Explicit rational isometries: isotropic vectors, representing one,
the reduction rounds, and the assembled rank-7 witnesses."""

import math
import random
from fractions import Fraction

import pytest

from qfbounds.complement import complementary_form
from qfbounds.forms import DiagForm, is_isometric_Q, standard_lorentzian
from qfbounds.isometry import (
    IsometryWitness,
    bound_E,
    cassels_bound,
    cassels_isotropic_vector,
    full_isometry_to_standard,
    mat_denominator_lcm,
    reduce_once,
    represent_one,
    verify_isometry,
    _lll_columns,
    _perp_basis,
    _repair_basis,
    gram_matrix,
)
from qfbounds.pipeline import to_json

from conftest import (
    cassels_box_bound,
    det_oracle,
    lll_columns_rebuild,
    random_nonzero,
    run_python,
    weighted_gso,
)

Q61 = standard_lorentzian(6)


# ---------------------------------------------------------------------------
# bound functions

def test_bound_E_fixed_values():
    assert bound_E(DiagForm((1, -1))) == 18
    assert bound_E(DiagForm((2, -7))) == 420
    assert bound_E(DiagForm((1, 1, 1, -1))) == 450


# ---------------------------------------------------------------------------
# isotropic vectors

def test_cassels_vector_fixed_values():
    assert cassels_isotropic_vector(DiagForm((1, -1))) == (1, 1)
    assert cassels_isotropic_vector(DiagForm((1, 1, -2))) == (1, 1, 1)
    y = cassels_isotropic_vector(DiagForm((1, 1, 1, -7, -1)))
    q = DiagForm((1, 1, 1, -7, -1))
    assert q.evaluate(y) == 0 and any(y)
    assert max(abs(t) for t in y) <= cassels_bound(q)


def test_cassels_vector_anisotropic_raises():
    with pytest.raises(ValueError):
        cassels_isotropic_vector(DiagForm((1, 1)))
    with pytest.raises(ValueError):
        cassels_isotropic_vector(DiagForm((1, -7)))


def test_cassels_bound_matches_oracle():
    rng = random.Random(401)
    for _ in range(50):
        n = rng.randint(2, 5)
        q = DiagForm(tuple(random_nonzero(rng, -15, 15) for _ in range(n)))
        assert cassels_bound(q) == cassels_box_bound(q.int_coeffs())


def test_cassels_vectors_satisfy_bound_on_random_isotropic_forms():
    rng = random.Random(402)
    found = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        q = DiagForm(tuple(random_nonzero(rng, -12, 12) for _ in range(n)))
        from qfbounds.forms import is_isotropic_Q

        if not is_isotropic_Q(q):
            continue
        y = cassels_isotropic_vector(q)
        found += 1
        assert q.evaluate(y) == 0 and any(y)
        assert max(abs(t) for t in y) <= cassels_bound(q)
    assert found >= 40


# ---------------------------------------------------------------------------
# representing one

def test_represent_one_fixed_values():
    assert represent_one(DiagForm((1, 1, 1, -7))) == (1, 0, 0, 0)
    assert represent_one(DiagForm((2, -7))) == (2, 1)
    assert represent_one(DiagForm((2, -2))) == (Fraction(3, 4), Fraction(-1, 4))


def test_represent_one_random_lorentzian_forms():
    rng = random.Random(403)
    count = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        coeffs = tuple(random_nonzero(rng, -10, 10) for _ in range(n))
        g = DiagForm(coeffs)
        if not is_isometric_Q(g, standard_lorentzian(n - 1)):
            continue
        x = represent_one(g)
        count += 1
        assert g.evaluate(x) == 1
    assert count >= 10


# ---------------------------------------------------------------------------
# one reduction round

def test_reduce_once_identity_case():
    p, g2, _ = reduce_once(DiagForm((1, -1)))
    assert g2 == DiagForm((1, -1))
    assert p == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_reduce_once_2_minus7():
    g = DiagForm((2, -7))
    p, g2, _ = reduce_once(g)
    assert g2 == DiagForm((1, -14))
    assert [p[0][0], p[1][0]] == [Fraction(2), Fraction(1)]
    assert [p[0][1], p[1][1]] == [Fraction(7), Fraction(4)]
    assert verify_isometry(p, g, g2)


def test_reduce_once_rank7():
    g = DiagForm((1, 1, 7, 1, 1, 1, -7))
    p, g2, _ = reduce_once(g)
    assert g2.coeffs[0] == 1
    assert verify_isometry(p, g, g2)
    assert mat_denominator_lcm(p) <= bound_E(g)


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
        out = _lll_columns(weights, cols)
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
        assert _lll_columns(weights, cols) == lll_columns_rebuild(weights, cols)


def _leading_minor(diag, cols, k):
    return det_oracle([row[:k] for row in gram_matrix(diag, cols)[:k]])


def test_repair_basis_swap_branch():
    # the second column is isotropic, so the 2nd leading minor vanishes;
    # swapping in the third column fixes it
    diag = [1, 1, 1, -1]
    cols = [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    assert _leading_minor(diag, cols, 2) == 0
    log = []
    out = _repair_basis(diag, cols, 2, log)
    assert log == [{"repair": "swap", "k": 2, "j": 2}]
    assert out[0] == cols[0] and _leading_minor(diag, out, 2) != 0


def test_repair_basis_add_swap_branch():
    # a hyperbolic block: both later columns are isotropic, so no
    # transposition helps and a sum of the two is swapped in
    diag = [1, 1, -1]
    cols = [[1, 0, 0], [0, 1, 1], [0, 1, -1]]
    assert _leading_minor(diag, cols, 2) == 0
    log = []
    out = _repair_basis(diag, cols, 2, log)
    assert log == [{"repair": "add-swap", "k": 2, "i": 1, "j": 2}]
    assert out[0] == cols[0] and _leading_minor(diag, out, 2) != 0


def _random_lorentzian_congruent(rng, n, entry_cap=30):
    """Integral form with entries <= entry_cap, isometric to the
    standard <1,...,1,-1> by a unimodular change of basis."""
    from conftest import congruent_diagonalization, random_unimodular

    std = [1] * (n - 1) + [-1]
    while True:
        u = random_unimodular(rng, n, steps=rng.randint(2, 5))
        diag = congruent_diagonalization(std, u)
        if any(d == 0 for d in diag):
            continue
        # per-coordinate square scaling keeps the isometry class
        ints = [d.numerator * d.denominator for d in diag]
        if all(abs(d) <= entry_cap for d in ints):
            return DiagForm(tuple(ints))


def test_reduce_once_bound_compliance():
    rng = random.Random(404)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        g = _random_lorentzian_congruent(rng, n)
        coeffs = g.coeffs
        assert is_isometric_Q(g, standard_lorentzian(n - 1))
        p, g2, log = reduce_once(g)
        checked += 1
        assert verify_isometry(p, g, g2)
        assert g2.coeffs[0] == 1 and g2.is_integral()
        e = bound_E(g)
        assert mat_denominator_lcm(p) <= e
        # the first-stage matrix [x | perp basis] has controlled determinant
        x = [Fraction(t) for t in log["x"]]
        cols = [x] + _perp_basis([int(c) for c in coeffs], x)
        p1 = [[cols[j][i] for j in range(n)] for i in range(n)]
        det1 = det_oracle(p1)
        assert det1 != 0
        assert det1 ** 2 <= Fraction(e) ** (4 * n) * n ** n
    assert checked == 40


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