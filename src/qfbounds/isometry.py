"""Explicit rational isometries onto the standard Lorentzian form.

The driver takes an integral diagonal form of signature (6, 1) that is
rationally isometric to <1,1,1,1,1,1,-1> and produces an exact rational
change of basis P with P^t A P = diag(1,...,1,-1), together with the
lcm S of the denominators of P and the index bounds S**42 and
(S**2)**42 derived from it (both conventions are reported).

One reduction round works on an integral diagonal form g:

  step 0  find x with g(x) = 1.  If some coefficient equals 1 take a
          standard basis vector, otherwise search g (+) <-1> for an
          isotropic vector y within the Cassels bound
          (3 * sum|a_i|)**((m-1)/2) and convert:
            y_{n+1} != 0:  x = (y_1, ..., y_n) / y_{n+1}
            y_{n+1} == 0:  x = e_i + y * (1 - a_i) / (2 a_i y_i)
  step 1  extend x by a primitive integral basis of x-perp into P1;
          Z = P1^t A P1 then has first row and column (1, 0, ..., 0)
          and integral remainder.
  step 2  diagonalize Z by its LDL^t factorization Z = mu diag(d) mu^t
          (forms.ldl): w_k = (row k of mu^{-1}) / d_k solves
          Z_kk w_k = (0,...,0,1)^t; clearing denominators columnwise and
          fixing signs gives an integral upper-triangular P2P3 and an
          integral diagonal form with leading coefficient 1.

When a leading principal minor of Z vanishes (a zero ldl pivot) the
basis of x-perp is repaired by the smallest transposition, or failing
that by adding one basis vector to another (a vanishing minor can be
unfixable by transpositions alone, e.g. a hyperbolic 2 x 2 block).

The full driver interleaves reduction rounds with two normalizations:
coefficients are reduced by square factors (a column scaling), and
coefficients equal to +1 / -1 are moved out of the active block (Witt
cancellation against the target).  Both keep every intermediate step
exactly verified; the final matrix is checked against the target form
before a witness is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    BudgetExhausted,
    crt_solve,
    factorize,
    is_perfect_square,
    known_primes,
    kronecker_symbol,
    partial_squarefree,
    primes_in_ap,
    smallest_nonresidue_prime,
    squarefree_part,
)
from .forms import (
    DiagForm,
    _isotropic_at,
    det_radical,
    is_isometric_Q,
    is_isotropic_Q,
    ldl,
    standard_lorentzian,
    unit_lower_inverse,
)


# ---------------------------------------------------------------------------
# exact matrix helpers (lists of lists of Fractions)


def gram_matrix(diag_coeffs, cols):
    """(P^t A P) for A = diag(diag_coeffs), P given by columns.

    The one Gram builder of the package: the descent, its lattice
    reductions and the exact checks all call it.  It computes the upper
    triangle and mirrors it.  Sums start from the int 0, so int input
    gives int entries, which ldl reads as Fractions.
    """
    n = len(cols)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = sum(d * u * v for d, u, v in zip(diag_coeffs, cols[i], cols[j]))
    return g


def mat_denominator_lcm(p) -> int:
    s = 1
    for row in p:
        for x in row:
            s = math.lcm(s, Fraction(x).denominator)
    return s


# ---------------------------------------------------------------------------
# explicit growth bounds


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def bound_E(g: DiagForm) -> int:
    """Denominator bound 2 max|a_i| (3 sum|a_i| + 3)**(n/2) for one round.

    Half-integer powers are rounded up, so the result is always a valid
    integer upper bound.
    """
    cs = g.int_coeffs()
    n = len(cs)
    sigma = sum(abs(c) for c in cs)
    base = 3 * sigma + 3
    if n % 2 == 0:
        pw = base ** (n // 2)
    else:
        pw = _ceil_sqrt(base ** n)
    return 2 * max(abs(c) for c in cs) * pw


def cassels_bound(g: DiagForm) -> int:
    """Integer ceiling of (3 sum|a_i|)**((m-1)/2)."""
    cs = g.int_coeffs()
    m = len(cs)
    base = 3 * sum(abs(c) for c in cs)
    if (m - 1) % 2 == 0:
        return base ** ((m - 1) // 2)
    return _ceil_sqrt(base ** (m - 1))


# ---------------------------------------------------------------------------
# isotropic vectors


def _pair_shortcut(cs):
    """Isotropic vector supported on two coordinates, when one exists.

    For a_i > 0 > a_j with a_i/g and |a_j|/g both perfect squares
    (g = gcd), (..., sqrt(|a_j|/g), ..., sqrt(a_i/g), ...) is a zero of
    max-norm at most sqrt(sum|a|), well inside the Cassels bound.
    """
    m = len(cs)
    for i in range(m):
        for j in range(i + 1, m):
            if cs[i] * cs[j] >= 0:
                continue
            g = math.gcd(abs(cs[i]), abs(cs[j]))
            u, v = abs(cs[j]) // g, abs(cs[i]) // g
            if is_perfect_square(u) and is_perfect_square(v):
                y = [0] * m
                y[i], y[j] = math.isqrt(u), math.isqrt(v)
                return tuple(y)
    return None


def _shell_first_zero(cs, n_norm):
    """First zero with max-norm exactly n_norm, coordinates ordered 0,1,-1,2,-2,...

    A sign flip of any coordinate maps zeros to zeros and k comes before
    -k, so that first zero is nonnegative: only 0, 1, ..., n_norm are tried.
    """
    m = len(cs)
    nn = n_norm * n_norm
    pos_suf = [0] * (m + 1)
    neg_suf = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        c = cs[i]
        pos_suf[i] = pos_suf[i + 1] + (c if c > 0 else 0) * nn
        neg_suf[i] = neg_suf[i + 1] + (-c if c < 0 else 0) * nn
    vec = [0] * m

    def rec(i, val, hit):
        if val - neg_suf[i] > 0 or val + pos_suf[i] < 0:
            return False
        if i == m - 1:
            c = cs[i]
            t = -val
            if t % c:
                return False
            q = t // c
            if q < 0 or not is_perfect_square(q):
                return False
            r = math.isqrt(q)
            if r > n_norm or (not hit and r != n_norm):
                return False
            if r == 0 and not hit:
                return False
            vec[i] = r
            return True
        c = cs[i]
        for y in range(n_norm + 1):
            vec[i] = y
            if rec(i + 1, val + c * y * y, hit or y == n_norm):
                return True
        return False

    return tuple(vec) if rec(0, 0, False) else None


# ---------------------------------------------------------------------------
# descent solver: isotropic vectors beyond the bounded search
#
# Residual forms produced by the reduction rounds carry coefficients far
# too large for shell enumeration.  For those the isotropic vector is
# built exactly: a ternary form is solved by the classical congruence
# lattice for the Legendre equation (a zero exists within the Holzer
# radius 3|abc|), and higher ranks split off a mixed-sign pair against a
# common represented value assembled from local square-class targets,
# one auxiliary prime in a prescribed progression, and a sign.  Hilbert
# reciprocity makes the auxiliary place come out right on its own.


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Square root of a mod p (p prime, a a residue), smallest of the pair."""
    a %= p
    if p == 2 or a == 0:
        return a
    if kronecker_symbol(a, p) != 1:
        raise ValueError("%d is not a square mod %d" % (a, p))
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        c = pow(smallest_nonresidue_prime(p), q, p)
        m, t, r = s, pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t = t * c % p
            r = r * b % p
    return min(r, p - r)


def _ternary_reduce(a: int, b: int, c: int):
    """Equivalent squarefree pairwise-coprime triple plus coordinate scales.

    Returns (triple, scales) with scales rational: a solution (X, Y, Z)
    of the reduced triple pulls back to (s_1 X, s_2 Y, s_3 Z).
    """
    cs = [a, b, c]
    sc = [Fraction(1)] * 3
    g = math.gcd(*(abs(x) for x in cs))
    cs = [x // g for x in cs]
    while True:
        for i in range(3):
            s, t = squarefree_part(cs[i])
            if t != 1:
                cs[i] = s
                sc[i] /= t
        peeled = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            g = math.gcd(abs(cs[i]), abs(cs[j]))
            if g > 1:
                k = 3 - i - j
                cs[i] //= g
                cs[j] //= g
                cs[k] *= g
                sc[k] *= g
                peeled = True
                break
        if not peeled:
            return tuple(cs), sc


def _impose_congruence(basis, l, p):
    """Shrink a column basis of Z^3 to the sublattice with l.v = 0 mod p."""
    vals = [sum(li * bi for li, bi in zip(l, col)) % p for col in basis]
    piv = next((k for k, v in enumerate(vals) if v), None)
    if piv is None:
        return
    inv = pow(vals[piv], -1, p)
    for k in range(3):
        if k != piv and vals[k]:
            f = vals[k] * inv % p
            basis[k] = [x - f * y for x, y in zip(basis[k], basis[piv])]
    basis[piv] = [p * x for x in basis[piv]]


def _short_vectors3(w, basis, radius):
    """All nonzero lattice vectors v (up to sign) with sum w_i v_i^2 <= radius."""
    mu, d = ldl(gram_matrix(w, basis))

    def bounds(limit, center, weight):
        # integer m with weight*(m+center)^2 <= limit
        if limit < 0:
            return range(0)
        r = limit / weight
        s = math.isqrt(r.numerator * r.denominator) // r.denominator
        while (s + 1) ** 2 <= r:
            s += 1
        lo = math.ceil(-center - s)
        hi = math.floor(-center + s)
        return range(lo, hi + 1)

    out = []
    for m2 in bounds(Fraction(radius), Fraction(0), d[2]):
        rem1 = Fraction(radius) - d[2] * m2 * m2
        c1 = mu[2][1] * m2
        for m1 in bounds(rem1, c1, d[1]):
            rem0 = rem1 - d[1] * (m1 + c1) ** 2
            c0 = mu[1][0] * m1 + mu[2][0] * m2
            for m0 in bounds(rem0, c0, d[0]):
                if m0 == m1 == m2 == 0:
                    continue
                if m2 < 0 or (m2 == 0 and (m1 < 0 or (m1 == 0 and m0 < 0))):
                    continue
                v = tuple(
                    m0 * basis[0][r] + m1 * basis[1][r] + m2 * basis[2][r]
                    for r in range(3)
                )
                out.append(v)
    return out


def _legendre_zero(cs):
    """Primitive zero of a squarefree pairwise-coprime mixed-sign ternary.

    Builds, per sign pattern of the modular square roots, the index
    |abc| sublattice of Z^3 on which the form vanishes mod abc,
    LLL-reduces it under diag(|a|, |b|, |c|) and enumerates it to the
    Holzer radius.  The first pattern that contains a zero wins; within
    a pattern the smallest zero is returned.
    """
    a, b, c = cs
    d = abs(a * b * c)
    w = tuple(abs(x) for x in cs)
    fixed, signed = [], []
    for pos, (coef, m1, m2) in enumerate(((a, b, c), (b, a, c), (c, a, b))):
        target = -m1 * m2
        for p, _ in factorize(abs(coef)):
            r = _sqrt_mod_prime(target % p, p)
            # condition rows: p|a: (0, b, -r); p|b: (a, 0, -r); p|c: (a, -r, 0)
            if pos == 0:
                plus, minus = [0, b % p, (-r) % p], [0, b % p, r % p]
            elif pos == 1:
                plus, minus = [a % p, 0, (-r) % p], [a % p, 0, r % p]
            else:
                plus, minus = [a % p, (-r) % p, 0], [a % p, r % p, 0]
            if p == 2 or r == 0:
                fixed.append((p, plus))
            else:
                signed.append((p, plus, minus))
    if len(signed) > 18:
        raise RuntimeError("too many sign patterns for the lattice search")
    radius = 3 * d
    n_free = max(len(signed) - 1, 0)
    for bits in itertools.product((0, 1), repeat=n_free):
        basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for p, row in fixed:
            _impose_congruence(basis, row, p)
        for k, (p, plus, minus) in enumerate(signed):
            pick = plus if k == 0 or bits[k - 1] == 0 else minus
            _impose_congruence(basis, pick, p)
        basis = _lll_columns(w, basis)
        zeros = [
            v
            for v in _short_vectors3(w, basis, radius)
            if a * v[0] ** 2 + b * v[1] ** 2 + c * v[2] ** 2 == 0
        ]
        if zeros:
            best = min(zeros, key=lambda v: (max(abs(x) for x in v), v))
            return best
    raise RuntimeError("lattice search found no zero of %s" % (cs,))


def _shrink_zero(cs, y):
    """Shrink a zero of the diagonal form by quadric reflections.

    For any u the vector Q(u) y - 2 B(y, u) u is again a zero; stepping
    greedily through u of support two drives the max-norm down from the
    large zeros the descent produces while keeping exactness.
    """
    n = len(cs)
    y = list(_normalize_zero(cs, y))
    pairs = [
        (i, j, s) for i in range(n) for j in range(i + 1, n) for s in (1, -1)
    ]
    for _ in range(3_000):
        cur = max(abs(t) for t in y)
        best = None
        for i, j, s in pairs:
            qu = cs[i] + cs[j]
            if qu == 0:
                continue
            by = cs[i] * y[i] + s * cs[j] * y[j]
            cand = [qu * t for t in y]
            cand[i] -= 2 * by
            cand[j] -= 2 * s * by
            if not any(cand):
                continue
            cand = _normalize_zero(cs, cand)
            m = max(abs(t) for t in cand)
            if m < cur and (best is None or (m, cand) < best):
                best = (m, cand)
        if best is None:
            break
        y = list(best[1])
    return tuple(y)


def _lll_columns(weights, cols):
    """LLL-reduce integral columns for the definite form sum w_i x_i^2.

    Keeps the spanned lattice and returns columns that are size-reduced
    (every |mu_ij| <= 1/2) and meet the Lovasz condition with 3/4.  The
    Gram-Schmidt data is the exact ldl of the gram_matrix, computed once
    and then updated in place: a size reduction b_k -= q b_j updates row
    k of mu (mu_kj -= q, mu_ki -= q mu_ji for i < j) and leaves the norms
    as they are, and a swap applies the exact LLL swap formulas.
    """
    b = [list(col) for col in cols]
    n = len(b)
    if n < 2:
        return b
    mu, norms = ldl(gram_matrix(weights, b))
    k = 1
    for _ in range(100_000):
        for j in range(k - 1, -1, -1):
            f = mu[k][j]
            q = (2 * f.numerator + f.denominator) // (2 * f.denominator)
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                # mu[j] is 1 at j and 0 past it
                mu[k] = [x - q * y for x, y in zip(mu[k], mu[j])]
        if norms[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            b[k], b[k - 1] = b[k - 1], b[k]
            _swap_gram_schmidt(mu, norms, k)
            k = max(k - 1, 1)
        else:
            k += 1
            if k == n:
                return b
    raise RuntimeError("lattice reduction did not terminate")


def _swap_gram_schmidt(mu, norms, k):
    """Gram-Schmidt data of the basis after swapping b_{k-1} and b_k."""
    m = mu[k][k - 1]
    new = norms[k] + m * m * norms[k - 1]
    mu[k][k - 1] = m * norms[k - 1] / new
    norms[k] = norms[k - 1] * norms[k] / new
    norms[k - 1] = new
    mu[k][: k - 1], mu[k - 1][: k - 1] = mu[k - 1][: k - 1], mu[k][: k - 1]
    for row in mu[k + 1 :]:
        t = row[k]
        row[k] = row[k - 1] - m * t
        row[k - 1] = t + mu[k][k - 1] * row[k]


def _normalize_zero(cs, num):
    """Clear rational coordinates to a primitive sign-normalized zero."""
    fr = [Fraction(x) for x in num]
    lc = math.lcm(*(f.denominator for f in fr))
    v = [int(f * lc) for f in fr]
    g = math.gcd(*(abs(x) for x in v))
    v = [x // g for x in v]
    lead = next(x for x in v if x)
    if lead < 0:
        v = [-x for x in v]
    if sum(c * x * x for c, x in zip(cs, v)) != 0:
        raise RuntimeError("not a zero of %s: %s" % (cs, v))
    return tuple(v)


def _ternary_zero(a, b, c):
    """Primitive zero of an isotropic integral ternary form."""
    cs = (a, b, c)
    y = _pair_shortcut(cs)
    if y is not None:
        return y
    for n_norm in range(1, 7):
        y = _shell_first_zero(cs, n_norm)
        if y is not None:
            return y
    red, scales = _ternary_reduce(a, b, c)
    z = _pair_shortcut(red) or _legendre_zero(red)
    return _shrink_zero(cs, [s * x for s, x in zip(scales, z)])


def _represents_locally(cs, t, v) -> bool:
    """Does the diagonal form represent the nonzero value t over Q_v?

    It does exactly when <cs, -t> is isotropic over Q_v.
    """
    return _isotropic_at(DiagForm(tuple(cs) + (-t,)), v)


def _represents_Q(cs, t) -> bool:
    """Does the integral diagonal form of rank >= 2 represent the nonzero t over Q?"""
    return is_isotropic_Q(DiagForm(tuple(cs) + (-t,)))


def _common_value(left, rest, scan=400):
    """Integer t represented by <left> with -t represented by <rest> over Q.

    Tries small candidates first; when none pass the exact tests over Q
    the value is assembled from local square-class targets at the places
    of 2 * prod(coefficients) and one auxiliary prime, which reciprocity
    exempts from explicit conditions.
    """
    for size in range(1, scan + 1):
        for t in (size, -size):
            if _represents_Q(list(left), t) and _represents_Q(list(rest), -t):
                return t
    places = {2}
    for x in left + tuple(rest):
        places.update(p for p, _ in factorize(abs(x)))
    places = sorted(places)
    targets = {}
    for p in places:
        reps = (1, 3, 5, 7, 2, 6, 10, 14) if p == 2 else (
            1,
            smallest_nonresidue_prime(p),
            p,
            p * smallest_nonresidue_prime(p),
        )
        tau = next(
            (
                r
                for r in reps
                if _represents_locally(left, r, p)
                and _represents_locally(rest, -r, p)
            ),
            None,
        )
        if tau is None:
            raise RuntimeError("no common local square class at %d" % p)
        targets[p] = tau
    sigma = 1 if any(x < 0 for x in rest) else -1
    m = 1
    for p in places:
        if targets[p] % p == 0:
            m *= p
    congs = []
    for p in places:
        if p == 2:
            continue
        mp = m // p if m % p == 0 else m
        unit_target = targets[p] // p if targets[p] % p == 0 else targets[p]
        want = kronecker_symbol(unit_target, p)
        base = sigma * mp % p
        rho = next(r for r in range(1, p) if kronecker_symbol(base * r, p) == want)
        congs.append((rho, p))
    m2 = m // 2 if m % 2 == 0 else m
    unit2 = (targets[2] // 2 if targets[2] % 2 == 0 else targets[2]) % 8
    rho8 = unit2 * pow(sigma * m2 % 8, -1, 8) % 8
    congs.append((rho8, 8))
    q = next(primes_in_ap(crt_solve(congs), 8 * math.prod(p for p in places if p != 2)))
    t = sigma * m * q
    if not (_represents_Q(list(left), t) and _represents_Q(list(rest), -t)):
        raise RuntimeError("assembled value %d is not represented as required" % t)
    return t


def _descent_zero(cs):
    """Primitive zero of an isotropic integral diagonal form, rank >= 3.

    Square-reduces the coefficients, then either solves an isotropic
    ternary subform directly or splits off a mixed-sign pair against a
    common represented value, recursing on the remainder.
    """
    n = len(cs)
    red, scales = [], []
    for x in cs:
        s, t = squarefree_part(x)
        red.append(s)
        scales.append(1 / Fraction(t))

    def pull_back(z):
        return _shrink_zero(cs, [s * x for s, x in zip(scales, z)])

    y = _pair_shortcut(red)
    if y is not None:
        return pull_back(y)
    if n == 3:
        return pull_back(_ternary_zero(*red))
    for i, j, k in itertools.combinations(range(n), 3):
        tri = (red[i], red[j], red[k])
        if len({x > 0 for x in tri}) == 2 and is_isotropic_Q(DiagForm(tri)):
            z3 = _ternary_zero(*tri)
            z = [0] * n
            z[i], z[j], z[k] = z3
            return pull_back(z)
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if red[i] * red[j] < 0
    ]
    i, j = min(pairs, key=lambda ij: (abs(red[ij[0]] * red[ij[1]]), ij))
    rest_idx = [k for k in range(n) if k not in (i, j)]
    rest = [red[k] for k in rest_idx]
    t = _common_value((red[i], red[j]), rest)
    alpha, beta, w = _ternary_zero(red[i], red[j], -t)
    if w == 0:
        raise RuntimeError("split-off pair does not represent %d" % t)
    if len(rest) == 2:
        rz = _ternary_zero(rest[0], rest[1], t)
        ry, u = rz[:2], rz[2]
        if u == 0:
            raise RuntimeError("remainder does not represent %d" % -t)
    else:
        rz = _descent_zero(rest + [t])
        ry, u = rz[:-1], rz[-1]
        if u == 0:
            z = [0] * n
            for k, val in zip(rest_idx, ry):
                z[k] = val
            return pull_back(z)
    z = [0] * n
    z[i], z[j] = alpha * u, beta * u
    for k, val in zip(rest_idx, ry):
        z[k] = val * w
    return pull_back(z)


def cassels_isotropic_vector(g: DiagForm) -> tuple:
    """Deterministic nonzero integral vector y with g(y) = 0.

    Tries two-coordinate solutions first, then enumerates shells of
    increasing max-norm (the first zero in the order 0, 1, -1, 2, -2, ...
    of each coordinate, which has no negative coordinate) within a
    rank-dependent budget; forms whose smallest zero lies past
    the budget are decided exactly over the local fields and handed to
    the descent solver.  Raises ValueError when the form is anisotropic.
    Vectors from the bounded search stay within the Cassels bound;
    descent vectors can exceed it.
    """
    cs = g.int_coeffs()
    if len(cs) < 2:
        raise ValueError("need rank >= 2")
    bound = cassels_bound(g)
    y = _pair_shortcut(cs)
    if y is None and len(cs) == 2:
        # the two-coordinate test is complete in rank 2
        raise ValueError("no isotropic vector within the Cassels bound: %s" % g)
    if y is None:
        for n_norm in range(1, min(bound, 4) + 1):
            y = _shell_first_zero(cs, n_norm)
            if y is not None:
                break
    if y is None:
        if not is_isotropic_Q(DiagForm(tuple(cs))):
            raise ValueError("no isotropic vector within the Cassels bound: %s" % g)
        cap = {3: 48, 4: 16, 5: 8}.get(len(cs), 3)
        for n_norm in range(5, min(bound, cap) + 1):
            y = _shell_first_zero(cs, n_norm)
            if y is not None:
                break
    if y is not None:
        if max(abs(t) for t in y) > bound:
            raise RuntimeError("bounded search left the Cassels bound: %s" % (y,))
    else:
        y = _descent_zero(list(cs))
    if g.evaluate(y) != 0 or not any(y):
        raise RuntimeError("not an isotropic vector of %s: %s" % (g, y))
    return y


def represent_one(g: DiagForm) -> tuple:
    """Rational x with g(x) = 1, for g representing 1 over Q."""
    cs = g.int_coeffs()
    n = len(cs)
    for i, c in enumerate(cs):
        if c == 1:
            return tuple(Fraction(1 if j == i else 0) for j in range(n))
    y = cassels_isotropic_vector(g.direct_sum(DiagForm((-1,))))
    if y[n] != 0:
        x = tuple(Fraction(y[j], y[n]) for j in range(n))
    else:
        i = next(j for j in range(n) if y[j])
        alpha = Fraction(1 - cs[i], 2 * cs[i] * y[i])
        x = tuple(Fraction(1 if j == i else 0) + alpha * y[j] for j in range(n))
    if g.evaluate(x) != 1:
        raise RuntimeError("%s does not take the value 1 at %s" % (g, x))
    return x


# ---------------------------------------------------------------------------
# one reduction round


def _perp_basis(cs, x):
    """Primitive integral basis of the orthogonal complement of x."""
    n = len(cs)
    r = [Fraction(c) * xi for c, xi in zip(cs, x)]
    pivot = next(i for i in range(n) if r[i] != 0)
    basis = []
    for i in range(n):
        if i == pivot:
            continue
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        v[pivot] = -r[i] / r[pivot]
        den = math.lcm(*(t.denominator for t in v))
        w = [int(t * den) for t in v]
        g = math.gcd(*(abs(t) for t in w))
        basis.append([t // g for t in w])
    return basis


def _repair_basis(diag, cols, k, log):
    """Make the k-th leading minor of the Gram matrix nonzero.

    The first k - 1 minors are nonzero, so the k-th is nonzero exactly
    when the Gram matrix of the first k columns has a nonzero last ldl
    pivot.  Tries transpositions with later columns first, then adds one
    later column to another; the first k - 1 columns, and so cols[0]
    (the vector representing 1), are never touched.
    """
    n = len(cols)
    for j in range(k, n):
        cand = cols[:]
        cand[k - 1], cand[j] = cand[j], cand[k - 1]
        if ldl(gram_matrix(diag, cand[:k]))[1][-1] != 0:
            log.append({"repair": "swap", "k": k, "j": j})
            return cand
    for i in range(k - 1, n):
        for j in range(max(i + 1, k), n):
            cand = cols[:]
            cand[i] = [a + b for a, b in zip(cand[i], cand[j])]
            cand[k - 1], cand[i] = cand[i], cand[k - 1]
            if ldl(gram_matrix(diag, cand[:k]))[1][-1] != 0:
                log.append({"repair": "add-swap", "k": k, "i": i, "j": j})
                return cand
    raise RuntimeError("cannot repair singular minor at k=%d" % k)


def reduce_once(g: DiagForm):
    """One reduction round: P with P^t A_g P = diag(1, b_2, ..., b_n).

    Requires g integral and rationally isometric to <1,...,1> or to
    <1,...,1,-1> (the precondition is not re-checked here; the driver
    validates its input once).  Returns (P, g', log) with g' integral,
    leading coefficient 1, and the congruence holds exactly.  When the
    round is resolved by the bounded vector search the lcm of the
    denominators of P stays within bound_E(g); rounds resolved by the
    descent solver can exceed it.
    """
    cs = [Fraction(c) for c in g.coeffs]
    n = len(cs)
    x = represent_one(g)
    log = {"x": list(x), "repairs": []}
    if n == 1:
        return [[Fraction(1)]], DiagForm((1,)), log

    perp = _perp_basis([int(c) for c in cs], x)
    cols = [list(x)] + _lll_columns([abs(int(c)) for c in cs], perp)
    z = gram_matrix(cs, cols)
    if z[0][0] != 1 or any(z[0][1:]):
        raise RuntimeError("basis of x-perp is not orthogonal to x")

    # Z = mu diag(d) mu^t; the first zero pivot is the first vanishing minor
    mu, d = ldl(z)
    while d[-1] == 0:
        cols = _repair_basis(cs, cols, len(d), log["repairs"])
        z = gram_matrix(cs, cols)
        mu, d = ldl(z)

    # w_k = (row k of mu^{-1}) / d_k solves Z_kk w_k = e_k; cleared to
    # integers it weights cols[0..k] into column k of P (the
    # upper-triangular P2P3), and b_k = w_k^t Z w_k * c_k^2 = c_k^2 / d_k
    pcols = []
    b = []
    for k, row in enumerate(unit_lower_inverse(mu)):
        w = [t / d[k] for t in row[: k + 1]]
        ck = math.lcm(*(t.denominator for t in w))
        col = [t * ck for t in w]
        if col[k] < 0:
            col = [-t for t in col]
        pcols.append(
            [sum((c * v[r] for c, v in zip(col, cols)), Fraction(0)) for r in range(n)]
        )
        bk = Fraction(ck * ck) / d[k]
        if bk.denominator != 1 or bk == 0:
            raise RuntimeError("diagonal entry %s is not a nonzero integer" % bk)
        b.append(int(bk))

    check = gram_matrix(cs, pcols)
    if b[0] != 1 or any(
        check[i][j] != (b[i] if i == j else 0) for i in range(n) for j in range(n)
    ):
        raise RuntimeError("reduction round lost exactness")
    log["b"] = b
    return [list(row) for row in zip(*pcols)], DiagForm(tuple(b)), log


# ---------------------------------------------------------------------------
# full reduction to the standard form


@dataclass(frozen=True)
class IsometryWitness:
    JSON_EXTRA = ("log10_D_S42", "log10_D_level42")

    P: list  # rows of Fractions
    source: DiagForm
    target: DiagForm
    S: int  # the lcm of the denominators of P
    steps: list

    @property
    def log10_D_S42(self) -> float:
        """log10 S**42: the index bound at congruence level S."""
        return 42.0 * math.log10(self.S)

    @property
    def log10_D_level42(self) -> float:
        """log10 (S**2)**42: the index bound at congruence level S**2."""
        return 84.0 * math.log10(self.S)


def verify_isometry(p, source: DiagForm, target: DiagForm) -> bool:
    """Exact check of P^t A_source P == A_target (diagonal forms)."""
    n = source.rank
    if target.rank != n or len(p) != n or any(len(row) != n for row in p):
        return False
    cols = [[Fraction(p[i][j]) for i in range(n)] for j in range(n)]
    gr = gram_matrix(source.coeffs, cols)
    return all(
        gr[i][j] == (target.coeffs[i] if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def full_isometry_to_standard(g7: DiagForm, max_coeff: int | None = None) -> IsometryWitness:
    """Exact rational isometry from g7 onto <1,1,1,1,1,1,-1>.

    g7 must be integral of rank 7 and rationally isometric to the
    target (checked up front, ValueError otherwise).  P is kept as its
    7 columns; every step below is a column operation on them.  The
    rounds run in one exact.known_primes() block: each round's
    coefficients tend to share the large primes of the last, and the
    block lets factorize split each such prime once per descent.

    With max_coeff set, a round that leaves a coefficient above it in
    absolute value ends the descent with BudgetExhausted.  S is checked
    to be a multiple of rad(det g7) (forms.det_radical), which divides
    the denominator of every isometry onto the target: P's columns span
    a unimodular lattice, which lies in Z_p^7 when p does not divide S,
    and an integral lattice containing a unimodular one equals it, so p
    does not divide det g7.
    """
    n = 7
    target = standard_lorentzian(6)
    if g7.rank != n or not g7.is_integral():
        raise ValueError("expected an integral rank-7 form")
    if not is_isometric_Q(g7, target):
        raise ValueError("form is not rationally isometric to the standard form")

    cur = list(g7.int_coeffs())
    cols = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    steps = []
    with known_primes():
        for _ in range(40):
            # square-reduce coefficients (column scalings)
            for i in range(n):
                s, t = partial_squarefree(cur[i])
                if t != 1:
                    cols[i] = [x / t for x in cols[i]]
                    cur[i] = s
            # stable reorder: +1 coefficients first, the -1 (if any) last
            perm = sorted(range(n), key=lambda i: (0 if cur[i] == 1 else (2 if cur[i] == -1 else 1), 0))
            cols = [cols[i] for i in perm]
            cur = [cur[i] for i in perm]
            if cur == [1, 1, 1, 1, 1, 1, -1]:
                break
            lead = 0
            while lead < n and cur[lead] == 1:
                lead += 1
            trail = 1 if cur[-1] == -1 else 0
            active = list(range(lead, n - trail))
            if not active:
                raise RuntimeError("no active block but form is not standard: %s" % cur)
            sub = DiagForm(tuple(cur[i] for i in active))
            if sub.rank == 1:
                raise RuntimeError("irreducible residual coefficient %s" % sub)
            p_sub, g_sub, log = reduce_once(sub)
            old = [cols[ia] for ia in active]
            for bcol, jb in enumerate(active):
                cols[jb] = [
                    sum((p_sub[a][bcol] * col[r] for a, col in enumerate(old)), Fraction(0))
                    for r in range(n)
                ]
            for a, ia in enumerate(active):
                cur[ia] = int(g_sub.coeffs[a])
            steps.append(log)
            if max_coeff is not None and any(abs(c) > max_coeff for c in cur):
                raise BudgetExhausted("a descent coefficient passed %d" % max_coeff)
        else:
            raise RuntimeError("reduction did not terminate")

    m = [list(row) for row in zip(*cols)]
    if not verify_isometry(m, g7, target):
        raise RuntimeError("final congruence check failed")
    S = mat_denominator_lcm(m)
    if S % det_radical(g7):
        raise RuntimeError("S = %d is not a multiple of rad(det g7) = %d" % (S, det_radical(g7)))
    return IsometryWitness(P=m, source=g7, target=target, S=S, steps=steps)
