"""Top-level acceptance checks.

Every published reference value is either reproduced within a pinned
tolerance or, where the printed value cannot be reconciled with the
construction it summarizes, asserted as a strict expected failure with
the reconciliation recorded next to the green check that replaces it.
The whole test suite is budgeted to finish well under ten minutes; the
time-sensitive checks below also pin their own wall-clock limits.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from conftest import (
    congruent_diagonalization,
    isotropy_oracle,
    random_nonzero,
    random_unimodular,
)
from qfbounds import geometry
from qfbounds.arithmetic import ImagQuadField, zeta_k_2
from qfbounds.complement import complementary_form, verify_complement
from qfbounds.exact import factorize
from qfbounds.forms import (
    INF,
    DiagForm,
    det_radical,
    hasse_witt,
    hilbert_symbol,
    invariant_profile,
    is_isotropic_Q,
    standard_lorentzian,
)
from qfbounds.isometry import full_isometry_to_standard, mat_denominator_lcm, verify_isometry
from qfbounds.pipeline import PRESETS, run_preset

Q61 = standard_lorentzian(6)

CATALAN = 0.915965594177219015054603514932384110774


@pytest.fixture(scope="module")
def m306_run():
    t0 = time.monotonic()
    rep = run_preset("m306")
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def b7_run():
    t0 = time.monotonic()
    rep = run_preset("bianchi7")
    return rep, time.monotonic() - t0


# ---------------------------------------------------------------------------
# 1. the two published isometries verify exactly


def test_published_isometries_verify_exactly():
    for name in ("bianchi7", "m306"):
        preset = PRESETS[name]
        src = preset.published_source
        t0 = time.monotonic()
        assert verify_isometry(preset.published_P, src, Q61) is True
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. the cocompact worked example end to end


def test_m306_pipeline(m306_run):
    rep, elapsed = m306_run
    assert elapsed < 60.0

    inv = rep.invariants
    assert inv["is_isotropic"] is False
    assert {k for k, v in inv["hasse_witt"].items() if v == -1} == {"2", "5"}
    assert rep.field["d"] == 1
    assert rep.quaternion["ram_f"] == [[5, 2, 5]]
    assert rep.quaternion["r_f"] == 2

    assert rep.bounds["sharp"]["coefficient"] == pytest.approx(16.0)
    total = rep.preset["published_total_log10"]
    assert total == pytest.approx(135.77, abs=0.01)
    assert total == pytest.approx(math.log10(16.0) + 42.0 * math.log10(1600.0), rel=1e-12)

    assert rep.complement["verified"] is True
    qc = DiagForm(tuple(int(Fraction(s)) for s in rep.complement["qc"]))
    assert verify_complement(DiagForm.parse("1,2,5,-10"), qc) is True

    # the reported witness re-verifies exactly from its serialized form
    P = tuple(tuple(Fraction(s) for s in row) for row in rep.isometry["P"])
    g7 = qc.direct_sum(DiagForm.parse("1,2,5,-10"))
    assert verify_isometry(P, g7, Q61) is True


# ---------------------------------------------------------------------------
# 3. the noncocompact worked example end to end


def test_bianchi7_pipeline(b7_run):
    rep, elapsed = b7_run
    assert elapsed < 60.0

    assert all(v == 1 for v in rep.invariants["hasse_witt"].values())
    assert verify_complement(DiagForm.parse("1,1,1,-7"), DiagForm((1, 1, 7))) is True
    assert rep.bounds["sharp"]["coefficient"] == pytest.approx(8.0)
    assert rep.bounds["r_f_used"] == 0

    # the computed values disagree with the configured ones and stay visible
    assert rep.invariants["is_isotropic"] is False
    assert rep.quaternion["ram_f"] == [[2, 2, 2]]
    codes = {w["code"]: w for w in rep.warnings}
    assert codes["ramification-override"]["computed"] == 2
    assert codes["ramification-override"]["configured"] == 0
    assert codes["isotropy-paper-discrepancy"]["computed"] is False


# ---------------------------------------------------------------------------
# 4. the Dedekind zeta identity behind the reference volume


def test_zeta_identity():
    t0 = time.monotonic()
    K = ImagQuadField.from_d(1)
    z = zeta_k_2(K)
    val = math.pi ** 2 * (4.0 * CATALAN) / (4.0 * z)
    assert abs(val - 6.0) < 1e-9
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 5. the right-angled polyhedron data


def _printed_triangular():
    # the upper-triangular matrix exactly as printed in the source table
    s = mpmath.sqrt
    return [
        [1, mpf(-1) / 2, 0, 0, 0, 0, 0],
        [0, s(3) / 2, 0, -1 / s(3), 0, 0, 0],
        [0, 0, 1, mpf(-1) / 2, 0, 0, 0],
        [0, 0, 0, s(mpf(5) / 3) / 2, -s(mpf(3) / 5), 0, 0],
        [0, 0, 0, 0, s(mpf(2) / 5), -s(mpf(5) / 2) / 2, 0],
        [0, 0, 0, 0, 0, s(mpf(3) / 2) / 2, -2 / s(3)],
        [0, 0, 0, 0, 0, 0, 1 / s(3)],
    ]


def _printed_vertices():
    s = mpmath.sqrt
    return [
        [-1, -1 / s(3), 0, -2 / s(15), -s(mpf(2) / 5), -s(mpf(2) / 3), 2 * s(mpf(2) / 3)],
        [0, -1 / s(3), 0, -2 / s(15), -s(mpf(2) / 5), -s(mpf(2) / 3), 2 * s(mpf(2) / 3)],
        [0, 0, -1 / s(2), -s(mpf(3) / 10), -3 / (2 * s(5)), -s(3) / 2, s(3)],
        [0, 0, 0, -1 / s(5), -s(mpf(3) / 10), -1 / s(2), s(2)],
        [0, 0, 0, 0, mpf(-1) / 2, -s(mpf(5) / 3) / 2, s(mpf(5) / 3)],
        [0, 0, 0, 0, 0, -1 / s(3), 2 / s(3)],
        [0, 0, 0, 0, 0, 0, 1],
    ]


def _factor_residual(sx):
    mc, ma = mpmath.matrix(sx.factor), mpmath.matrix(sx.gram)
    res = mc.T * ma * mc - mpmath.diag([1] * 6 + [-1])
    return max(abs(res[i, j]) for i in range(7) for j in range(7))


@pytest.mark.xfail(
    strict=True,
    reason="the printed triangular matrix is the inverse factor (its columns are the"
    " unit normals), so no C can both reproduce it entrywise and satisfy C^t A C = J",
)
def test_printed_matrix_as_gram_factor():
    sx = geometry.CoxeterSimplex.p6()
    disp = _printed_triangular()
    match = max(abs(sx.factor[i][j] - disp[i][j]) for i in range(7) for j in range(7))
    assert _factor_residual(sx) < mpf("1e-12") and match < mpf("1e-12")


def test_gram_factor_and_printed_normal_matrix():
    t0 = time.monotonic()
    sx = geometry.CoxeterSimplex.p6()
    assert _factor_residual(sx) < mpf("1e-12")
    disp = _printed_triangular()
    err = max(abs(sx.normal_matrix[i][j] - disp[i][j]) for i in range(7) for j in range(7))
    assert err < mpf("1e-12")
    assert time.monotonic() - t0 < 5.0


def test_vertices_match_printed_list():
    t0 = time.monotonic()
    sx = geometry.CoxeterSimplex.p6()
    exp = _printed_vertices()
    err = max(abs(sx.vertices[i][j] - exp[i][j]) for i in range(7) for j in range(7))
    assert err < mpf("1e-12")
    assert time.monotonic() - t0 < 5.0


def test_vertex_products_and_horoball_slice():
    t0 = time.monotonic()
    sx = geometry.CoxeterSimplex.p6()
    x1, x2, x3, x7 = sx.vertices[0], sx.vertices[1], sx.vertices[2], sx.vertices[6]
    assert abs(geometry.lorentz_product(x2, x3) + mpmath.sqrt(2)) < mpf("1e-12")
    assert abs(geometry.lorentz_product(x7, x3) + mpmath.sqrt(3)) < mpf("1e-12")
    x3p = geometry.project_to_horosphere(x3, x1)
    d = geometry.hyp_distance(x2, x3p)
    assert abs(mpmath.cosh(d) - mpf(5) / 4) < mpf("1e-12")
    assert abs(2 * mpmath.sinh(d / 2) - 1 / mpmath.sqrt(2)) < mpf("1e-12")
    assert time.monotonic() - t0 < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="the published decimal 1.1120 is a misprint of the closed form, which"
    " evaluates to 1.11249...; the rounding check below replaces this window",
)
def test_core_volume_published_window():
    v0 = float(geometry.p6_constants().V0)
    assert abs(v0 - 1.1120) <= 1e-4


def test_core_volume_assembly():
    t0 = time.monotonic()
    consts = geometry.p6_constants()
    assert abs(consts.V0 - geometry.p6_V0_closed_form()) < mpf("1e-12")
    assert float(consts.V0) == pytest.approx(1.1124909574181490, rel=1e-12)
    assert abs(consts.V0 - mpf("1.112")) < mpf("5e-4")
    sigma = consts.sigma_volume
    assert abs(sigma - mpf(mpmath.pi) ** 3 / 777600) < mpf("1e-12")
    cross = geometry.cusp_cross_section_volume()
    assert abs(consts.V0 - 51840 * (sigma - cross / 5)) < mpf("1e-12")
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 6. the growth constant against an independent evaluation


def _independent_log10_K(vol: float, log10_CD: float):
    """Arbitrary-precision re-evaluation coded from the displayed formula
    alone: own root finder, own stable log-sinh."""
    with mp.workdps(70):
        v = mpf(vol)

        def poly(x):
            return x ** 5 / 5 - 2 * x ** 3 / 3 + x - mpf(8) / 15

        lo, hi = mpf(1), mpf(2)
        while poly(hi) < v:
            hi *= 2
        for _ in range(260):
            mid = (lo + hi) / 2
            if poly(mid) < v:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2

        r_big = mp.log(mp.sqrt(6) + mp.sqrt(7))
        d_max = mp.acosh(mp.sqrt(3))
        arg = 2 * (2 * r_big + d_max + mp.log(x))
        log_sinh = arg + mp.log(1 - mp.exp(-2 * arg)) - mp.log(2)
        v5 = 8 * mp.pi ** 2 / 15
        v0 = (2 ** mpf("2.5") * mp.pi ** 3 - 81) / (2 ** mpf("2.5") * 15)
        return (
            mp.log10(mpf(51840))
            + mpf(log10_CD)
            + mp.log10(v)
            + mp.log10(v5 / v0)
            + 5 * log_sinh / mp.log(10)
        )


def test_growth_constant_vs_independent_evaluation(m306_run):
    t0 = time.monotonic()
    vol = float(4 * mpf(CATALAN))
    total = 135.77715925420478
    got = geometry.effective_K(vol, 1.0, 0.0, total)["log10_K"]
    want = _independent_log10_K(vol, total)
    assert abs(float(got) - float(want)) / float(want) < 1e-9
    assert float(got) == pytest.approx(162.5871384612832, rel=1e-9)

    # the published magnitude is quoted next to the computed one, with the
    # discrepancy flagged; numerical agreement is not required
    rep, _ = m306_run
    w = next(x for x in rep.warnings if x["code"] == "k-magnitude-paper-discrepancy")
    assert "7*10^150" in w["message"]
    assert w["paper"] == pytest.approx(150.8450980400143, abs=1e-6)
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 7. randomized property suites


def test_hilbert_reciprocity():
    rng = random.Random(7101)
    for _ in range(500):
        a = random_nonzero(rng, -50, 50)
        b = random_nonzero(rng, -50, 50)
        places = {2, INF} | {p for p, _ in factorize(abs(a * b))}
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_hasse_witt_congruence_invariance():
    rng = random.Random(7102)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5])
        cs = [random_nonzero(rng, -9, 9) for _ in range(n)]
        u = random_unimodular(rng, n)
        diag = congruent_diagonalization(cs, u)
        q1, q2 = DiagForm(tuple(cs)), DiagForm(tuple(diag))
        p1, p2 = invariant_profile(q1), invariant_profile(q2)
        assert p1.disc_class == p2.disc_class
        for v in set(p1.hasse_witt) | set(p2.hasse_witt):
            assert hasse_witt(q1, v) == hasse_witt(q2, v)


def test_low_rank_isotropy_vs_bounded_search():
    rng = random.Random(7103)
    decisive = 0
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        cs = [random_nonzero(rng, -15, 15) for _ in range(n)]
        got = is_isotropic_Q(DiagForm(tuple(cs)))
        want = isotropy_oracle(cs)
        if want is not None:
            assert got == want
            decisive += 1
    assert decisive >= 150


# S of each construction-path descent below under the coefficient-growing
# descent this one replaced, in draw order
_CONSTRUCTION_S_BEFORE = (
    1218, 84, 12, 168, 24, 3146552304, 6, 660, 6, 660, 520080, 660, 1218, 140,
    168, 28120, 194443602773420, 60, 1320, 20738130, 84, 1260, 84,
    618222979105505826360, 508860, 2436, 4,
    126708981536208416656785357997546442776863500048158039878876974864376652570367367522818231146350951685701160212613115357788076934918469752,
    2, 508860, 28120, 194443602773420, 37729890, 660, 12, 20738130, 168, 42, 12,
    420, 6, 12, 2, 12, 4954520130, 60, 42, 12, 6293104608, 6, 7751912280, 330,
    84, 84, 12, 2436, 120, 24, 330, 132, 30, 660, 42, 660, 30, 6, 24, 1885884,
    132, 1492920, 22610, 60, 2436, 10, 60, 1218, 14060, 118935960, 14060, 12, 6,
    6, 140, 840, 168, 41124423806649614760, 420, 210, 996324, 60, 1885884, 660,
    1110, 6, 132, 9744, 3756270, 7751912280, 41124423806649614760, 1320,
)


def test_random_pipelines_end_to_end():
    rng = random.Random(7104)
    for before in _CONSTRUCTION_S_BEFORE:
        zs = [random_nonzero(rng, 1, 8) for _ in range(4)]
        g = math.gcd(math.gcd(zs[0], zs[1]), math.gcd(zs[2], zs[3]))
        zs = [z // g for z in zs]
        q = DiagForm((zs[0], zs[1], zs[2], -zs[3]))
        w = complementary_form(q)
        assert verify_complement(q, w.qc) is True
        g7 = w.qc.direct_sum(q)
        wit = full_isometry_to_standard(g7)
        assert verify_isometry(wit.P, g7, Q61) is True
        assert wit.S == mat_denominator_lcm(wit.P) >= 1
        assert wit.S % det_radical(g7) == 0
        assert wit.S <= before
