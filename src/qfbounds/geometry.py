"""Hyperboloid-model geometry of the right-angled 6-dimensional
polyhedron P6 and the horoball and ball-volume formulas feeding the
geodesic residual-finiteness growth constant K.

All computations run in high-precision floating point (mpmath).  The
entry points p6_constants, CoxeterSimplex.p6 and effective_K take the
target precision as `digits` (decimal digits, 50 by default) and work
at digits + 10; every other function computes at the caller's mpmath
precision.  No precision is kept in module state.  Exact radical
identities are certified through squared relations in tests, not
symbolic algebra.

Matrix conventions.  For a Coxeter simplex with Gram matrix A of
signature (n,1) there are two natural triangular matrices, both read
off the one factorization A = mu diag(d) mu^t of forms.ldl:

  * the factor C = mu^{-t} |d|^{-1/2}, upper-triangular with positive
    diagonal, with C^t A C = J = diag(1,...,1,-1) (Gram-Schmidt on the
    standard basis); its rows produce the simplex vertices via
    x_i ~ J * row_i;
  * the normal matrix N = |d|^{1/2} mu^t = C^{-1}, whose columns are
    the unit inward facet normals v_i (so N^t J N = A).

These are inverse to each other, not equal, and source material that
prints one while naming the property of the other is reconciled here
by exposing both.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .forms import ldl, unit_lower_inverse

P6_GROUP_ORDER = 2 ** 7 * 3 ** 4 * 5  # order of the vertex stabilizer group


# ---------------------------------------------------------------------------
# Lorentzian linear algebra


def lorentz_product(x, y):
    """sum(x_i y_i, i <= n) - x_{n+1} y_{n+1} for (n+1)-vectors."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch: %d vs %d" % (len(x), len(y)))
    s = mpmath.fsum(mpf(a) * mpf(b) for a, b in zip(x[:-1], y[:-1]))
    return s - mpf(x[-1]) * mpf(y[-1])


def gram_from_diagram(n: int, labels: dict) -> list:
    """Gram matrix of a Coxeter diagram on n nodes.

    labels maps node pairs (i, j), 0-indexed, to the edge label m in
    {3, 4}; absent pairs commute (entry 0).  Entries are -cos(pi/m):
    -1/2 for 3, -1/sqrt(2) for 4, diagonal 1.
    """
    A = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
    for (i, j), m in labels.items():
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError("bad node pair (%d, %d)" % (i, j))
        if m == 3:
            val = mpf(-1) / 2
        elif m == 4:
            val = -1 / mpmath.sqrt(2)
        else:
            raise ValueError("unsupported edge label %r" % (m,))
        if A[i][j] != 0 and A[i][j] != val:
            raise ValueError("conflicting labels for pair (%d, %d)" % (i, j))
        A[i][j] = A[j][i] = val
    return A


def p6_diagram() -> tuple:
    """The 7-node diagram of the simplex sigma tiling P6.

    Chain 1-2, 2-4, 3-4, 4-5, 5-6 with label 3 and tail 6-7 with
    label 4 (0-indexed pairs below).
    """
    labels = {(0, 1): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 4}
    return 7, labels


def lorentz_gram_factor(A) -> tuple:
    """The factor C and the normal matrix N = C^{-1} of A, as (C, N).

    From A = mu diag(d) mu^t (forms.ldl, Gram-Schmidt on the standard
    basis under A): C = mu^{-t} |d|^{-1/2} is upper-triangular with
    positive diagonal and C^t A C = J, and N = |d|^{1/2} mu^t.  The
    pivots must be positive through n and negative last, that is, A
    has signature (n,1) with positive leading principal minors through
    n; then C is unique.
    """
    n1 = len(A)
    mu, d = ldl([[mpf(x) for x in row] for row in A])
    if len(d) < n1 or any(x <= 0 for x in d[:-1]) or d[-1] >= 0:
        raise ValueError(
            "expected signature (%d,1) with positive leading principal minors "
            "through %d; ldl pivot signs %s"
            % (n1 - 1, n1 - 1, "".join("+" if x > 0 else "-" if x < 0 else "0" for x in d))
        )
    scale = [mpmath.sqrt(abs(x)) for x in d]
    m_inv = unit_lower_inverse(mu)
    C = [[m_inv[j][i] / scale[j] for j in range(n1)] for i in range(n1)]
    N = [[scale[i] * mu[j][i] for j in range(n1)] for i in range(n1)]
    return C, N


def vertices_from_normals(C) -> tuple:
    """Vertices x_1..x_{n+1} from the factor C (C^t A C = J).

    Row i of C, flipped by J, is Lorentz-orthogonal to every normal
    v_j with j != i, hence lies over vertex i.  Finite vertices are
    normalized to x.x = -1 and future-pointing; light-like (ideal)
    vertices are scaled so that max over finite j of x_j . x_ideal
    equals -1 (the deepest adjacent vertex touches the horoball
    boundary).
    """
    n1 = len(C)
    raw = []
    for i in range(n1):
        row = list(C[i])
        row[-1] = -row[-1]
        raw.append(row)
    tol = mpf(10) ** (-(mp.dps - 10))
    finite, ideal = {}, []
    for i, v in enumerate(raw):
        nrm = lorentz_product(v, v)
        if abs(nrm) < tol:
            ideal.append(i)
        elif nrm < 0:
            s = mpmath.sqrt(-nrm)
            x = [c / s for c in v]
            if x[-1] < 0:
                x = [-c for c in x]
            finite[i] = x
        else:
            raise ValueError("vertex %d is ultra-ideal (positive norm)" % (i + 1))
    out = [None] * n1
    for i, x in finite.items():
        out[i] = tuple(x)
    for i in ideal:
        v = raw[i]
        if v[-1] < 0:
            v = [-c for c in v]
        m = max(lorentz_product(v, x) for x in finite.values())
        lam = -1 / m
        out[i] = tuple(lam * c for c in v)
    return tuple(out)


@dataclass(frozen=True)
class CoxeterSimplex:
    """Gram matrix, its triangular factor, facet normals, and vertices."""

    gram: tuple
    factor: tuple  # C with C^t A C = J
    normal_matrix: tuple  # N = C^{-1}, columns are unit inward normals
    vertices: tuple

    @classmethod
    def from_diagram(cls, n: int, labels: dict) -> "CoxeterSimplex":
        A = gram_from_diagram(n, labels)
        C, N = lorentz_gram_factor(A)
        xs = vertices_from_normals(C)
        freeze = lambda M: tuple(tuple(row) for row in M)
        return cls(gram=freeze(A), factor=freeze(C), normal_matrix=freeze(N), vertices=xs)

    @classmethod
    def p6(cls, digits: int = 50) -> "CoxeterSimplex":
        with mp.workdps(digits + 10):
            return cls.from_diagram(*p6_diagram())


# ---------------------------------------------------------------------------
# horoballs and distances


def project_to_horosphere(x, b) -> tuple:
    """Flow x along the geodesic toward the ideal class of b onto the
    horosphere {y : y.b = -1}.

    gamma(t) = exp(-t) x - (sinh t / (x.b)) b reaches the horosphere at
    t* = ln(-x.b).  x strictly inside the horoball is rejected.
    """
    s = lorentz_product(x, b)
    if s > -1 + mpf(10) ** (-(mp.dps - 10)):
        raise ValueError("point lies inside the horoball; no outward projection")
    t = mpmath.log(-s)
    e = mpmath.exp(-t)
    coef = mpmath.sinh(t) / s
    return tuple(e * xi - coef * bi for xi, bi in zip(x, b))


def hyp_distance(x, y):
    """acosh(-x.y) for hyperboloid points."""
    c = -lorentz_product(x, y)
    if c < 1 - mpf(10) ** (-9):
        raise ValueError("points are not at real distance (product %s)" % mpmath.nstr(c))
    return mpmath.acosh(max(c, mpf(1)))


# ---------------------------------------------------------------------------
# balls


def unit_ball_volume(n: int):
    """Euclidean unit n-ball volume pi^{n/2} / Gamma(n/2 + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return mpf(mpmath.pi) ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2 + 1)


# ---------------------------------------------------------------------------
# P6 constants


def cusp_cross_section_volume():
    """Euclidean volume of the cusp cross-section piece: a 5-cube flag
    simplex pair of edge 1/sqrt(2), i.e. edge^5 * 2 / (2^5 * 5!)."""
    edge = 1 / mpmath.sqrt(2)
    return edge ** 5 * 2 / (2 ** 5 * mpmath.factorial(5))


def p6_sigma_volume():
    """Hyperbolic volume pi^3 / 777600 of the Coxeter simplex sigma."""
    return mpf(mpmath.pi) ** 3 / 777600


def p6_V0_closed_form():
    """(2^{5/2} pi^3 - 3^4) / (2^{5/2} * 5 * 3)."""
    c = mpmath.sqrt(2) * 4  # 2^{5/2}
    return (c * mpf(mpmath.pi) ** 3 - 81) / (c * 15)


@dataclass(frozen=True)
class GeometryConstants:
    R: object
    d_max: object
    V0: object
    v_n1: object
    sigma_volume: object
    group_order: int
    digits: int  # the target precision they were computed at

    def to_json(self) -> dict:
        def s(v):
            # nstr reads v's own mantissa; mpf(v) would round it to mp.dps first
            return mpmath.nstr(v, self.digits - 10)

        return {
            "precision_digits": self.digits,
            "R": s(self.R),
            "d_max": s(self.d_max),
            "V0": s(self.V0),
            "v_n1": s(self.v_n1),
            "sigma_volume": s(self.sigma_volume),
            "group_order": self.group_order,
        }


def p6_constants(digits: int = 50) -> GeometryConstants:
    """Static constants of the P6 horoball packing, to `digits` decimal
    digits (computed with 10 guard digits).

    R = ln(sqrt(7)+sqrt(6)); d_max = acosh(sqrt(3)); V0 is the volume
    of the cusp-free core piece: group_order * (sigma volume minus one
    fifth of the cusp cross-section volume), with closed form
    (2^{5/2} pi^3 - 3^4) / (2^{5/2} * 15).
    """
    with mp.workdps(digits + 10):
        R = mpmath.log(mpmath.sqrt(7) + mpmath.sqrt(6))
        d_max = mpmath.acosh(mpmath.sqrt(3))
        V0 = P6_GROUP_ORDER * (p6_sigma_volume() - cusp_cross_section_volume() / 5)
        return GeometryConstants(
            R=R,
            d_max=d_max,
            V0=V0,
            v_n1=unit_ball_volume(5),
            sigma_volume=p6_sigma_volume(),
            group_order=P6_GROUP_ORDER,
            digits=digits,
        )


# ---------------------------------------------------------------------------
# ball volumes and the growth constant


def ball_poly_p(x):
    """p(x) = x^5/5 - 2x^3/3 + x - 8/15; V6(r) = pi^3 p(cosh r)."""
    x = mpf(x)
    return x ** 5 / 5 - 2 * x ** 3 / 3 + x - mpf(8) / 15


def _invert_volume(f, vol, lo):
    """x > lo with f(x) = vol, for f increasing on [lo, oo) with f(lo) = 0.

    Doubles an upper end until it brackets the root, then bisects to the
    working precision.  vol must be finite and positive: otherwise no
    upper end brackets it and the doubling would not stop.
    """
    if not (mpmath.isfinite(vol) and vol > 0):
        raise ValueError("volume must be finite and positive, got %s" % mpmath.nstr(vol))
    hi = lo + 1
    while f(hi) - vol < 0:
        hi *= 2
    for _ in range(mp.prec + 20):
        mid = (lo + hi) / 2
        if f(mid) - vol < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


RMAX_MODES = ("paper_h6", "dim3")


def rmax_bound_from_volume(vol, mode: str = "paper_h6"):
    """cosh(r_max) for the largest embedded ball the volume allows.

    paper_h6 mode inverts the H^6 polynomial directly at vol (the
    source's reproduction convention): cosh r_max = p^{-1}(vol), found
    by bisection (p is strictly increasing on [1, oo), p(1) = 0).
    dim3 mode solves the 3-dimensional relation
    pi (sinh 2r - 2r) = vol and returns cosh(r).
    """
    vol = mpf(vol)
    if mode == "paper_h6":
        return _invert_volume(ball_poly_p, vol, mpf(1))
    if mode == "dim3":
        f = lambda r: mpf(mpmath.pi) * (mpmath.sinh(2 * r) - 2 * r)
        return mpmath.cosh(_invert_volume(f, vol, mpf(0)))
    raise ValueError("mode must be 'paper_h6' or 'dim3'")


def _log_sinh(x):
    """ln sinh x, stable for large x: x + ln(1 - e^{-2x}) - ln 2."""
    if x <= 0:
        raise ValueError("argument must be positive")
    return x + mpmath.log(1 - mpmath.exp(-2 * x)) - mpmath.log(2)


def effective_K(
    vol_M,
    eps,
    log10_C_eps,
    log10_D,
    mode: str = "paper_h6",
    digits: int = 50,
) -> dict:
    """log10 of K = 2^7 3^4 5 * C_eps * D * vol^eps * (v_5(1)/V0)
    * sinh^5(2(2R + d_max + ln p^{-1}(vol))), to `digits` decimal digits.

    Everything is assembled in log space; the sinh term uses the
    large-argument expansion of ln sinh.  Returns the log10 value, the
    same value without the vol^eps factor (log10_K_without_vol_eps, a
    display variant seen in worked summaries of the same bound), and
    the per-manifold constants (h_max, cosh r_max) they used.  vol_M
    and eps must be finite and positive, log10_C_eps and log10_D finite,
    and both results must be finite floats (ValueError otherwise).
    """
    if not (mpmath.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % eps)
    for name, value in (("log10_C_eps", log10_C_eps), ("log10_D", log10_D)):
        if not mpmath.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    with mp.workdps(digits + 10):
        vol = mpf(vol_M)
        consts = p6_constants(digits)
        cosh_rmax = rmax_bound_from_volume(vol, mode)
        h_max = mpmath.log(cosh_rmax)
        arg = 2 * (2 * consts.R + consts.d_max + h_max)
        ln10 = mpmath.log(10)
        base = mpmath.log(P6_GROUP_ORDER) / ln10 + mpf(log10_C_eps) + mpf(log10_D)
        ball = mpmath.log(consts.v_n1 / consts.V0) / ln10
        sinh_term = 5 * _log_sinh(arg) / ln10
        log10_K = base + mpf(eps) * mpmath.log(vol) / ln10 + ball + sinh_term
        log10_K_without_vol_eps = base + ball + sinh_term
    for value in (log10_K, log10_K_without_vol_eps):
        if not mpmath.isfinite(float(value)):
            raise ValueError("log10 K = %s is not a finite float" % mpmath.nstr(value, 6))
    return {
        "log10_K": log10_K,
        "log10_K_without_vol_eps": log10_K_without_vol_eps,
        "h_max": h_max,
        "cosh_r_max": cosh_rmax,
        "sinh_argument": arg,
        "mode": mode,
    }
