"""Hyperboloid-model geometry: the right-angled 6-dimensional polyhedron,
its horoball packing, and the growth-constant assembly.

Radical identities are certified numerically at well beyond the working
precision; volume formulas are cross-checked against direct quadrature
and against independent derivations in other models of hyperbolic
space.
"""

import json
import math

import mpmath
import pytest
from mpmath import mp, mpf, sqrt

from qfbounds.geometry import (
    P6_GROUP_ORDER,
    CoxeterSimplex,
    ball_poly_p,
    cusp_cross_section_volume,
    effective_K,
    gram_from_diagram,
    hyp_distance,
    lorentz_gram_factor,
    lorentz_product,
    p6_V0_closed_form,
    p6_constants,
    p6_diagram,
    p6_sigma_volume,
    project_to_horosphere,
    rmax_bound_from_volume,
    unit_ball_volume,
    vertices_from_normals,
)

TIGHT = mpf(10) ** -45


def _simplex():
    if not hasattr(_simplex, "cached"):
        _simplex.cached = CoxeterSimplex.p6()
    return _simplex.cached


# ---------------------------------------------------------------------------
# Gram matrix and triangular factor


def test_gram_matrix_entries():
    n, labels = p6_diagram()
    assert n == 7
    with mp.workdps(60):
        A = gram_from_diagram(n, labels)
        half = mpf(1) / 2
        inv_sqrt2 = 1 / sqrt(2)
        for i in range(7):
            assert A[i][i] == 1
        for (i, j), m in labels.items():
            want = -half if m == 3 else -inv_sqrt2
            assert abs(A[i][j] - want) < TIGHT
            assert A[i][j] == A[j][i]
        labeled = set(labels) | {(j, i) for i, j in labels}
        for i in range(7):
            for j in range(7):
                if i != j and (i, j) not in labeled:
                    assert A[i][j] == 0


def test_gram_from_diagram_validation():
    with pytest.raises(ValueError):
        gram_from_diagram(3, {(0, 0): 3})
    with pytest.raises(ValueError):
        gram_from_diagram(3, {(0, 5): 3})
    with pytest.raises(ValueError):
        gram_from_diagram(3, {(0, 1): 5})
    with pytest.raises(ValueError):
        gram_from_diagram(3, {(0, 1): 3, (1, 0): 4})


def test_factor_conjugates_gram_to_lorentz():
    S = _simplex()
    A, C = S.gram, S.factor
    with mp.workdps(60):
        for i in range(7):
            for j in range(7):
                got = mpmath.fsum(
                    C[k][i] * A[k][l] * C[l][j] for k in range(7) for l in range(7)
                )
                want = (1 if i < 6 else -1) if i == j else 0
                assert abs(got - want) < TIGHT
        # upper triangular with positive diagonal
        for i in range(7):
            assert C[i][i] > 0
            for j in range(i):
                assert C[i][j] == 0


def test_normal_matrix_gram_is_A():
    S = _simplex()
    # the columns of N are the unit inward normals
    normals = list(zip(*S.normal_matrix))
    with mp.workdps(60):
        for i in range(7):
            vi = normals[i]
            assert abs(lorentz_product(vi, vi) - 1) < TIGHT
            for j in range(7):
                assert abs(lorentz_product(vi, normals[j]) - S.gram[i][j]) < TIGHT


def test_normal_matrix_radical_entries():
    """The unit inward normals in closed form: the non-zero entries of
    N = C^{-1} are simple quadratic radicals."""
    S = _simplex()
    with mp.workdps(60):
        disp = [
            [1, mpf(-1) / 2, 0, 0, 0, 0, 0],
            [0, sqrt(3) / 2, 0, -1 / sqrt(3), 0, 0, 0],
            [0, 0, 1, mpf(-1) / 2, 0, 0, 0],
            [0, 0, 0, sqrt(mpf(5) / 3) / 2, -sqrt(mpf(3) / 5), 0, 0],
            [0, 0, 0, 0, sqrt(mpf(2) / 5), -sqrt(mpf(5) / 2) / 2, 0],
            [0, 0, 0, 0, 0, sqrt(mpf(3) / 2) / 2, -2 / sqrt(3)],
            [0, 0, 0, 0, 0, 0, 1 / sqrt(3)],
        ]
        err = max(
            abs(S.normal_matrix[i][j] - disp[i][j]) for i in range(7) for j in range(7)
        )
        assert err < TIGHT
        # the factor C is its inverse, not the same matrix
        assert abs(S.factor[1][3] - disp[1][3]) > mpf(1) / 10


def test_lorentz_gram_factor_validation():
    I2 = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        lorentz_gram_factor(I2)
    with pytest.raises(ValueError):
        lorentz_gram_factor([[-1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# vertices


def test_vertex_radical_closed_forms():
    S = _simplex()
    with mp.workdps(60):
        s310 = sqrt(mpf(3) / 10)
        want = [
            [-1, -1 / sqrt(3), 0, -2 / sqrt(15), -sqrt(mpf(2) / 5), -sqrt(mpf(2) / 3), 2 * sqrt(mpf(2) / 3)],
            [0, -1 / sqrt(3), 0, -2 / sqrt(15), -sqrt(mpf(2) / 5), -sqrt(mpf(2) / 3), 2 * sqrt(mpf(2) / 3)],
            [0, 0, -1 / sqrt(2), -s310, -3 / (2 * sqrt(5)), -sqrt(3) / 2, sqrt(3)],
            [0, 0, 0, -1 / sqrt(5), -s310, -1 / sqrt(2), sqrt(2)],
            [0, 0, 0, 0, mpf(-1) / 2, -sqrt(mpf(5) / 3) / 2, sqrt(mpf(5) / 3)],
            [0, 0, 0, 0, 0, -1 / sqrt(3), 2 / sqrt(3)],
            [0, 0, 0, 0, 0, 0, 1],
        ]
        for i in range(7):
            err = max(abs(S.vertices[i][j] - want[i][j]) for j in range(7))
            assert err < TIGHT, "vertex %d" % (i + 1)


def test_vertex_normalization_and_incidence():
    S = _simplex()
    normals = list(zip(*S.normal_matrix))
    with mp.workdps(60):
        x1 = S.vertices[0]
        assert abs(lorentz_product(x1, x1)) < TIGHT
        for i in range(1, 7):
            xi = S.vertices[i]
            assert abs(lorentz_product(xi, xi) + 1) < TIGHT
            assert xi[-1] > 0
        # vertex i is orthogonal to every normal but the ith; the
        # off-wall products all carry the same sign
        for i in range(7):
            for j in range(7):
                p = lorentz_product(S.vertices[i], normals[j])
                if i == j:
                    assert p < -mpf(1) / 10
                else:
                    assert abs(p) < TIGHT
        # the ideal vertex is scaled so the deepest finite vertex touches
        # the unit horoball: max_j x_j . x_1 = -1, attained at j = 2
        prods = [lorentz_product(S.vertices[j], x1) for j in range(1, 7)]
        assert abs(max(prods) + 1) < TIGHT
        assert abs(prods[0] + 1) < TIGHT


def test_vertex_products_and_horoball_chord():
    S = _simplex()
    with mp.workdps(60):
        x = S.vertices
        assert abs(lorentz_product(x[1], x[2]) + sqrt(2)) < TIGHT
        assert abs(lorentz_product(x[6], x[2]) + sqrt(3)) < TIGHT
        assert abs(lorentz_product(x[2], x[0]) + sqrt(2)) < TIGHT
        x3p = project_to_horosphere(x[2], x[0])
        # closed form of the projection: x3/sqrt(2) + x1/4
        ref = tuple(x[2][j] / sqrt(2) + x[0][j] / 4 for j in range(7))
        assert max(abs(a - b) for a, b in zip(x3p, ref)) < TIGHT
        assert abs(lorentz_product(x3p, x[0]) + 1) < TIGHT
        assert abs(lorentz_product(x3p, x3p) + 1) < TIGHT
        d = hyp_distance(x[1], x3p)
        assert abs(mpmath.cosh(d) - mpf(5) / 4) < TIGHT
        assert abs(2 * mpmath.sinh(d / 2) - 1 / sqrt(2)) < TIGHT


def test_vertices_reject_ultra_ideal_rows():
    # a factor row of positive Lorentz norm has no vertex over it
    bad = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        vertices_from_normals(bad)


# ---------------------------------------------------------------------------
# horoballs, projection, distances


def test_horoball_membership():
    S = _simplex()
    x = S.vertices
    # the horoball at x1 is {y : y.x1 >= -1}
    with mp.workdps(60):
        assert abs(lorentz_product(x[1], x[0]) + 1) < TIGHT  # x2 is on its boundary
        assert lorentz_product(x[6], x[0]) < -1  # x7 is d_max away from the cusp


def test_project_rejects_interior_points():
    S = _simplex()
    with mp.workdps(60):
        x1, x2 = S.vertices[0], S.vertices[1]
        t = mpf(1) / 2  # flow x2 deeper into the cusp
        deep = tuple(
            mpmath.exp(-t) * a + mpmath.sinh(t) * b for a, b in zip(x2, x1)
        )
        assert abs(lorentz_product(deep, deep) + 1) < TIGHT
        assert lorentz_product(deep, x1) > -1
        with pytest.raises(ValueError):
            project_to_horosphere(deep, x1)


def test_lorentz_product_basics():
    assert lorentz_product((1, 2, 3), (4, 5, 6)) == 4 + 10 - 18
    with pytest.raises(ValueError):
        lorentz_product((1, 2), (1, 2, 3))


def test_hyp_distance_validation():
    S = _simplex()
    assert float(hyp_distance(S.vertices[1], S.vertices[1])) == 0.0
    with pytest.raises(ValueError):
        hyp_distance(S.vertices[6], (0, 0, 0, 0, 0, 0, 0.5))


# ---------------------------------------------------------------------------
# balls


def test_unit_ball_volumes():
    with mp.workdps(60):
        pi = mpf(mpmath.pi)
        assert abs(unit_ball_volume(0) - 1) < TIGHT
        assert abs(unit_ball_volume(1) - 2) < TIGHT
        assert abs(unit_ball_volume(2) - pi) < TIGHT
        assert abs(unit_ball_volume(3) - 4 * pi / 3) < TIGHT
        assert abs(unit_ball_volume(5) - 8 * pi ** 2 / 15) < TIGHT
    with pytest.raises(ValueError):
        unit_ball_volume(-1)


# ---------------------------------------------------------------------------
# polyhedron constants


def test_cusp_cross_section_volume():
    with mp.workdps(60):
        want = mpf(2) ** mpf("-9.5") / 15
        assert abs(cusp_cross_section_volume() - want) < TIGHT


def test_core_volume_assembly():
    with mp.workdps(60):
        sigma = p6_sigma_volume()
        assert abs(sigma - mpf(mpmath.pi) ** 3 / 777600) < TIGHT
        c = p6_constants()
        assert c.group_order == P6_GROUP_ORDER == 51840
        assembled = 51840 * (sigma - cusp_cross_section_volume() / 5)
        assert abs(c.V0 - assembled) < TIGHT
        assert abs(c.V0 - p6_V0_closed_form()) < TIGHT
    assert abs(float(c.V0) - 1.1124909574181490) < 1e-12
    assert abs(float(c.V0) - 1.112) < 5e-4


def test_p6_constants_values():
    c = p6_constants()
    with mp.workdps(60):
        assert abs(c.R - mpmath.log(sqrt(7) + sqrt(6))) < TIGHT
        assert abs(c.d_max - mpmath.acosh(sqrt(3))) < TIGHT
        assert abs(c.v_n1 - unit_ball_volume(5)) < TIGHT
    assert abs(float(c.R) - 1.6283069774000263) < 1e-12
    assert abs(float(c.d_max) - 1.1462158347805889) < 1e-12
    blob = c.to_json()
    assert json.loads(json.dumps(blob, sort_keys=True)) == blob
    assert blob["group_order"] == 51840
    assert blob["precision_digits"] == 50 and isinstance(blob["R"], str)


def test_p6_constants_json_keeps_its_digits():
    # printed at the constants' own precision, not rounded to a double first
    blob = p6_constants(50).to_json()
    with mp.workdps(60):
        assert blob["R"] == mpmath.nstr(mpmath.log(sqrt(7) + sqrt(6)), 40)
        assert blob["d_max"] == mpmath.nstr(mpmath.acosh(sqrt(3)), 40)


# ---------------------------------------------------------------------------
# ball volumes and the growth constant


def test_ball_poly_root_and_quadrature():
    with mp.workdps(60):
        assert abs(ball_poly_p(1)) < TIGHT
        pi3 = mpf(mpmath.pi) ** 3
        for r in (mpf(1) / 2, mpf("1.7"), mpf(3)):
            direct = pi3 * mpmath.quad(lambda t: mpmath.sinh(t) ** 5, [0, r])
            assert abs(pi3 * ball_poly_p(mpmath.cosh(r)) - direct) < mpf(10) ** -40


def test_rmax_bound_inverts_ball_volume():
    with mp.workdps(60):
        for vol in (mpf(1) / 10, mpf(1), mpf(100)):
            x = rmax_bound_from_volume(vol)
            assert abs(ball_poly_p(x) - vol) < mpf(10) ** -40
        G4 = 4 * mpmath.catalan
        assert abs(rmax_bound_from_volume(G4) - mpf("2.1087622746449366")) < 1e-12
    with pytest.raises(ValueError):
        rmax_bound_from_volume(0)
    with pytest.raises(ValueError):
        rmax_bound_from_volume(1.0, mode="dim7")


def test_rmax_bound_dim3():
    with mp.workdps(60):
        G4 = 4 * mpmath.catalan
        out = rmax_bound_from_volume(G4, mode="dim3")
        r = mpmath.acosh(out)
        assert abs(mpf(mpmath.pi) * (mpmath.sinh(2 * r) - 2 * r) - G4) < mpf(10) ** -40
        assert abs(out - mpf("1.4389251270378418")) < 1e-12


def test_effective_K_reference_volume():
    with mp.workdps(40):
        vol = float(4 * mpmath.catalan)
    out = effective_K(vol, 1.0, 0.0, 135.77715925420478)
    assert abs(float(out["log10_K"]) - 162.5871384612832) < 1e-9
    assert abs(float(out["h_max"]) - 0.7461011756767191) < 1e-9
    assert abs(float(out["cosh_r_max"]) - 2.1087622746449366) < 1e-9
    assert abs(float(out["sinh_argument"]) - 10.29786193051472) < 1e-9
    assert out["mode"] == "paper_h6"
    assert abs(float(out["log10_K"] - out["log10_K_without_vol_eps"]) - math.log10(vol)) < 1e-12
    # h_max is ln(cosh r_max) and the argument is 2(2R + d_max + h_max)
    c = p6_constants()
    with mp.workdps(60):
        assert abs(out["h_max"] - mpmath.log(out["cosh_r_max"])) < 1e-25
        arg = 2 * (2 * c.R + c.d_max + out["h_max"])
        assert abs(out["sinh_argument"] - arg) < 1e-25


def test_effective_K_volume_factor_toggle():
    with mp.workdps(40):
        vol = float(4 * mpmath.catalan)
    a = effective_K(vol, 1.0, 0.0, 100.0)
    b = a["log10_K_without_vol_eps"]
    assert abs(float(a["log10_K"] - b) - math.log10(vol)) < 1e-12
    half = effective_K(vol, 0.5, 0.0, 100.0)
    assert abs(float(half["log10_K"] - b) - 0.5 * math.log10(vol)) < 1e-12
    # eps enters only through vol^eps
    assert half["log10_K_without_vol_eps"] == b


def test_effective_K_modes_and_validation():
    out = effective_K(4.0, 1.0, 0.0, 0.0, mode="dim3")
    assert out["mode"] == "dim3"
    assert float(out["cosh_r_max"]) < 2.0  # dim3 inversion gives a smaller ball
    with pytest.raises(ValueError):
        effective_K(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        effective_K(4.0, 1.0, 0.0, 0.0, mode="bogus")
