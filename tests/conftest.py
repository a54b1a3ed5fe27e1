"""Shared independent oracles for the test suite.

Everything here is deliberately low-tech: brute-force searches, finite
residue checks, and direct vector arithmetic.  The oracles avoid the
library's own decision logic so that agreement is evidence, not
circularity.  numpy is used only to make exhaustive integer searches
fast enough; all verdicts are re-checked with exact Python integers.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# small number theory, reimplemented from scratch

def brute_is_square_mod(a: int, p: int) -> bool:
    a %= p
    return any(x * x % p == a for x in range(p))


def brute_primes(limit: int) -> list:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


def split_by_parity(cs, p: int):
    """Coefficients split into p-unit parts by valuation parity."""
    even, odd = [], []
    for c in cs:
        v, rest = 0, c
        while rest % p == 0:
            rest //= p
            v += 1
        (even if v % 2 == 0 else odd).append(rest)
    return even, odd


def local_isotropic_odd(cs, p: int) -> bool:
    """Exact isotropy of a diagonal integral form over the p-adics, odd p.

    Split the coefficients into unit forms u + p*w by valuation parity.
    A unit diagonal form of rank >= 3 always has a nonsingular zero mod p
    and lifts; a rank-2 unit form <u1,u2> is locally isotropic iff -u1*u2
    is a square mod p.  If both parts are locally anisotropic the two
    value groups have opposite valuation parity and cannot cancel.
    """
    assert p % 2 == 1
    for part in split_by_parity(cs, p):
        if len(part) >= 3:
            return True
        if len(part) == 2 and brute_is_square_mod(-part[0] * part[1], p):
            return True
    return False


def no_primitive_zero_mod_2k(cs, k: int) -> bool:
    """True when sum c_i x_i^2 = 0 mod 2^k has no primitive solution.

    A 2-adic zero would reduce to a primitive residue solution, so a
    clean sweep certifies anisotropy over the 2-adics (sound for any k;
    larger k only sharpens the converse, which is not relied on).
    """
    mod = 1 << k
    n = len(cs)
    grids = np.meshgrid(*[np.arange(mod, dtype=np.int64)] * (n - 1), indexing="ij", sparse=True)
    rest = sum((c * g * g) % mod for c, g in zip(cs[1:], grids))
    prim_rest = np.zeros((), dtype=bool)
    for g in grids:
        prim_rest = prim_rest | (g % 2 == 1)
    for x0 in range(mod):
        val = (cs[0] * x0 * x0 + rest) % mod
        prim = prim_rest | (x0 % 2 == 1)
        if np.any((val == 0) & prim):
            return False
    return True


# ---------------------------------------------------------------------------
# Kronecker character and zeta_k(2)

def chi_table(disc: int):
    """chi_disc(n) for 0 <= n < |disc|, built from scratch.

    Legendre values come from exhaustive residue search, chi(2) from the
    discriminant mod 8, and composites by multiplicativity.
    """
    legendre = {}
    for p in brute_primes(abs(disc)):
        if disc % p == 0:
            legendre[p] = 0
        elif p == 2:
            legendre[p] = 1 if disc % 8 == 1 else -1
        else:
            legendre[p] = 1 if brute_is_square_mod(disc, p) else -1
    out = [0] * abs(disc)
    out[1 % abs(disc)] = 1
    for n in range(2, abs(disc)):
        m, val = n, 1
        f = 2
        while f * f <= m:
            while m % f == 0:
                val *= legendre[f]
                m //= f
            f += 1
        if m > 1:
            val *= legendre[m]
        out[n] = val
    return out


def zeta_k_2_char_sum(K, tol: float = 1e-12) -> float:
    """zeta_k(2) = zeta(2) * L(2, chi_disc) by truncated character sum.

    The L-sum over n <= N has tail at most d_k/N**2 (partial sums of the
    character are bounded by d_k), so N is chosen as sqrt(d_k/tol).
    The terms stream into math.fsum, so memory stays constant.
    """
    chi = chi_table(K.disc)
    n_terms = math.isqrt(int(K.d_k / tol)) + 1
    l_value = math.fsum(
        chi[n % K.d_k] / (n * n) for n in range(1, n_terms + 1) if chi[n % K.d_k]
    )
    return (math.pi ** 2 / 6.0) * l_value


def zeta_k_2_ideal_sum(K, max_norm: int) -> float:
    """Independent route: sum over n of (ideal count of norm n)/n^2.

    The count of ideals of norm n is sum_{m | n} chi(m).  Slowly
    convergent; a cross-check, not a precise value.
    """
    chi = chi_table(K.disc)
    counts = [0] * (max_norm + 1)
    for m in range(1, max_norm + 1):
        c = chi[m % K.d_k]
        if c:
            for n in range(m, max_norm + 1, m):
                counts[n] += c
    return math.fsum(counts[n] / (n * n) for n in range(1, max_norm + 1))


# ---------------------------------------------------------------------------
# isotropy oracle

def cassels_box_bound(cs) -> int:
    """Integer B with B >= (3*sum|c_i|)^((m-1)/2), smallest such."""
    s = 3 * sum(abs(c) for c in cs)
    m = len(cs)
    if (m - 1) % 2 == 0:
        return s ** ((m - 1) // 2)
    powed = s ** (m - 1)
    b = int(powed ** 0.5)
    while b * b < powed:
        b += 1
    while (b - 1) * (b - 1) >= powed:
        b -= 1
    return b


def box_zero_search(cs, bound: int):
    """Any nonzero integer vector in [-bound, bound]^n with q = 0, or None.

    Chunks over the first coordinate; only one orthant sign of x0 is
    needed since q is even in each variable.
    """
    n = len(cs)
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*[side] * (n - 1), indexing="ij", sparse=True)
    rest = sum(c * g * g for c, g in zip(cs[1:], grids))
    for x0 in range(0, bound + 1):
        val = cs[0] * x0 * x0 + rest
        hits = np.argwhere(val == 0)
        for idx in hits:
            vec = (x0,) + tuple(int(side[i]) for i in idx)
            if any(vec):
                assert sum(c * t * t for c, t in zip(cs, vec)) == 0
                return vec
    return None


def isotropy_oracle(cs):
    """Independent isotropy decision: True, False, or None when open.

    Definite forms are anisotropic over the reals.  Rank <= 3 is settled
    by exhausting the full Cassels box.  Rank 4 combines a capped vector
    search (isotropy certificates) with exact odd-p local decisions and
    a dyadic residue sweep (anisotropy certificates).
    """
    cs = [int(c) for c in cs]
    if all(c > 0 for c in cs) or all(c < 0 for c in cs):
        return False
    small = box_zero_search(cs, 12)
    if small is not None:
        return True
    bound = cassels_box_bound(cs)
    if len(cs) <= 3:
        return box_zero_search(cs, bound) is not None
    vec = box_zero_search(cs, min(bound, 40))
    if vec is not None:
        return True
    prod = 1
    for c in cs:
        prod *= abs(c)
    for p in sorted({f for f in range(3, prod + 1, 2) if prod % f == 0 and all(f % d for d in range(3, int(f ** 0.5) + 1, 2))}):
        if not local_isotropic_odd(cs, p):
            return False
    if no_primitive_zero_mod_2k(cs, 6):
        return False
    return None


# ---------------------------------------------------------------------------
# Hilbert symbol oracle: exhaustive residue search, odd p

def squarefree_int(n: int) -> int:
    s, d = (1 if n > 0 else -1), abs(n)
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
        f += 1
    return s * d


def hilbert_oracle_odd(a: int, b: int, p: int) -> int:
    """(a, b)_p by exhaustive primitive-triple search mod p^3.

    Valid for odd p once a, b are squarefree; a nonsingular residue
    solution of a x^2 + b y^2 = z^2 lifts, and squarefree coefficients
    rule out singular primitive solutions mod p^3.
    """
    assert p % 2 == 1
    a, b = squarefree_int(a), squarefree_int(b)
    mod = p ** 3
    side = np.arange(mod, dtype=np.int64)
    x2 = (a * side * side) % mod
    y2 = (b * side * side) % mod
    z2 = (-(side * side)) % mod
    for x0 in range(mod):
        tot = (x2[x0] + y2[:, None] + z2[None, :]) % mod
        prim = (x0 % p != 0) | (side[:, None] % p != 0) | (side[None, :] % p != 0)
        if np.any((tot == 0) & prim):
            return 1
    return -1


# ---------------------------------------------------------------------------
# random generators

def random_nonzero(rng, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v != 0:
            return v


def random_unimodular(rng, n: int, steps: int = 6):
    """Integer matrix of determinant +-1 built from elementary row ops."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        m[i] = [-t for t in m[i]]
    return m


def det_oracle(m) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row pivoting."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def congruent_diagonalization(q_coeffs, u):
    """Exact diagonal of U^t A U for diagonal A, via the library-free
    symmetric elimination below."""
    n = len(q_coeffs)
    a = [
        [Fraction(sum(q_coeffs[k] * u[k][i] * u[k][j] for k in range(n))) for j in range(n)]
        for i in range(n)
    ]
    return symmetric_diag(a)


def weighted_gso(weights, cols):
    """Gram-Schmidt coefficients and squared norms under sum w_i x_i y_i,
    by the textbook recursion on the orthogonalized vectors."""

    def dot(u, v):
        return sum(Fraction(w) * x * y for w, x, y in zip(weights, u, v))

    star, mu, norms = [], [], []
    for b in cols:
        v = [Fraction(x) for x in b]
        row = [dot(b, s) / n for s, n in zip(star, norms)]
        for m, s in zip(row, star):
            v = [x - m * y for x, y in zip(v, s)]
        star.append(v)
        mu.append(row)
        norms.append(dot(v, v))
    return mu, norms


def lll_columns_rebuild(weights, cols):
    """LLL with the decisions of isometry._lll_columns for positive
    weights (size reduction from j = k-1 down, rounding half up, Lovasz
    constant 3/4), its
    Gram-Schmidt data recomputed by weighted_gso after every change."""
    b = [list(c) for c in cols]
    k = 1
    while k < len(b):
        mu, norms = weighted_gso(weights, b)
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + Fraction(1, 2))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = weighted_gso(weights, b)
        if norms[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            b[k - 1], b[k] = b[k], b[k - 1]
            k = max(k - 1, 1)
        else:
            k += 1
    return b


def symmetric_diag(a):
    """Diagonal entries of a congruent diagonal matrix (no pivot fails
    assumed beyond degenerate input)."""
    n = len(a)
    a = [row[:] for row in a]
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                for r in range(n):
                    a[r][k], a[r][piv] = a[r][piv], a[r][k]
                a[k], a[piv] = a[piv], a[k]
            else:
                j = next(j for j in range(k + 1, n) if a[k][j] != 0)
                for r in range(n):
                    a[r][k] += a[r][j]
                for c in range(n):
                    a[k][c] += a[j][c]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for c in range(n):
                a[i][c] -= f * a[k][c]
            for r in range(n):
                a[r][i] -= f * a[r][k]
    return [a[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# explicit small isometries, used to cross-check the local-global decision

def rational_sqrt_oracle(r: Fraction):
    if r < 0:
        return None
    num, den = r.numerator, r.denominator
    a = int(num ** 0.5)
    while a * a < num:
        a += 1
    while a * a > num:
        a -= 1
    b = int(den ** 0.5)
    while b * b < den:
        b += 1
    while b * b > den:
        b -= 1
    return Fraction(a, b) if a * a == num and b * b == den else None


def represent_search_rank2(a: int, b: int, target: int, zmax: int = 50):
    """Vector v with a v1^2 + b v2^2 = target, denominators <= zmax."""
    for z in range(1, zmax + 1):
        lim = int((abs(target) * z * z / abs(a)) ** 0.5) + 2 if a else 0
        for x in range(0, max(lim, 1) + 1):
            rem = target * z * z - a * x * x
            if rem % b:
                continue
            y2 = rem // b
            if y2 < 0:
                continue
            y = int(y2 ** 0.5)
            while y * y < y2:
                y += 1
            if y * y == y2:
                return (Fraction(x, z), Fraction(y, z))
    return None


def explicit_isometry_rank2(q1, q2, zmax: int = 50):
    """Explicit P with P^t diag(q1) P = diag(q2), by bounded search."""
    a, b = q1
    a2, b2 = q2
    v = represent_search_rank2(a, b, a2, zmax)
    if v is None:
        return None
    lam2 = Fraction(b2, a * b * a2)
    lam = rational_sqrt_oracle(lam2)
    if lam is None:
        return None
    w = (-b * v[1] * lam, a * v[0] * lam)
    return [[v[0], w[0]], [v[1], w[1]]]


def explicit_isometry_rank3(q1, q2, zmax: int = 14):
    """Rank-3 version: represent the first target coefficient, split off
    the orthogonal complement, recurse to rank 2."""
    a2 = q2[0]
    found = None
    for z in range(1, zmax + 1):
        for x1 in range(0, 3 * z + 1):
            for x2 in range(-3 * z, 3 * z + 1):
                for x3 in range(-3 * z, 3 * z + 1):
                    if x1 == x2 == x3 == 0:
                        continue
                    if q1[0] * x1 * x1 + q1[1] * x2 * x2 + q1[2] * x3 * x3 == a2 * z * z:
                        found = (Fraction(x1, z), Fraction(x2, z), Fraction(x3, z))
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    if found is None:
        return None
    v = found
    # integer basis of the orthogonal complement of v under diag(q1)
    w = [q1[i] * v[i] for i in range(3)]
    den = 1
    for t in w:
        den = den * t.denominator // math.gcd(den, t.denominator)
    w = [int(t * den) for t in w]
    i0 = next(i for i in range(3) if w[i])
    basis = []
    for j in range(3):
        if j == i0:
            continue
        vec = [0, 0, 0]
        vec[j], vec[i0] = w[i0], -w[j]
        g = 0
        for t in vec:
            g = math.gcd(g, abs(t))
        basis.append([t // g for t in vec])
    gram = [
        [sum(Fraction(q1[k]) * basis[i][k] * basis[j][k] for k in range(3)) for j in range(2)]
        for i in range(2)
    ]
    if gram[0][0] == 0:
        return None
    # one elimination step diagonalizes the 2x2 block
    f = -gram[0][1] / gram[0][0]
    cols = [list(basis[0]), [basis[1][k] + f * basis[0][k] for k in range(3)]]
    d1 = gram[0][0]
    d2 = sum(Fraction(q1[k]) * cols[1][k] ** 2 for k in range(3))
    if d2 == 0:
        return None
    sub = explicit_isometry_rank2_general((d1, d2), (q2[1], q2[2]))
    if sub is None:
        return None
    out = [[Fraction(0)] * 3 for _ in range(3)]
    for r in range(3):
        out[r][0] = v[r]
    for c in range(2):
        for r in range(3):
            out[r][c + 1] = cols[0][r] * sub[0][c] + cols[1][r] * sub[1][c]
    return out


def explicit_isometry_rank2_general(q1, q2, zmax: int = 50):
    """Rank-2 search allowing rational source coefficients."""
    den = 1
    for t in q1:
        den = den * Fraction(t).denominator
    a = int(Fraction(q1[0]) * den * den)
    b = int(Fraction(q1[1]) * den * den)
    p = explicit_isometry_rank2((a, b), tuple(int(t) for t in q2), zmax)
    if p is None:
        return None
    return [[p[r][c] * den for c in range(2)] for r in range(2)]


# ---------------------------------------------------------------------------
# fresh interpreters

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, *flags, timeout=120):
    """Run `python *flags *args` with src/ on the path, in a fresh process;
    under `python -O` the process gets -O as well."""
    if sys.flags.optimize and "-O" not in flags:
        flags += ("-O",)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, *args], capture_output=True, env=env, timeout=timeout
    )
