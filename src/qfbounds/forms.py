"""Diagonal rational quadratic forms and their invariants over Q and its
completions.

A form <a_1, ..., a_n> is stored as a tuple of nonzero rationals.  The
module computes Hilbert symbols over Q_p and R, Hasse-Witt invariants,
discriminant square classes, and the classical isometry and isotropy
decisions that follow from them.

Conventions:
  * the infinite place is the float inf, finite places are primes;
  * the Hasse-Witt invariant is the product of (a_i, a_j)_v over i < j;
  * discriminants and square classes are reported through squarefree
    integer representatives.

A symmetric Gram matrix is brought to diagonal form by `ldl`, the one
Gram-Schmidt of the package: the isometry descent, its lattice
reductions and the Coxeter-simplex factor of the geometry all read
their pivots, leading minors and triangular changes of basis from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    factorize,
    is_prime,
    legendre_symbol,
    parse_rat,
    rat_str,
    rational_sqrt,
    squarefree_part,
)

INF = float("inf")


@dataclass(frozen=True)
class DiagForm:
    """A diagonal quadratic form with nonzero rational coefficients."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a form needs at least one coefficient")
        if any(c == 0 for c in cs):
            raise ValueError("zero coefficients are not allowed")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def parse(cls, text: str) -> "DiagForm":
        body = text.strip()
        if body.startswith("<") and body.endswith(">"):
            body = body[1:-1]
        return cls(tuple(parse_rat(t) for t in body.split(",")))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def signature(self) -> tuple[int, int]:
        pos = sum(1 for c in self.coeffs if c > 0)
        return pos, len(self.coeffs) - pos

    @property
    def disc(self) -> Fraction:
        d = Fraction(1)
        for c in self.coeffs:
            d *= c
        return d

    def direct_sum(self, other: "DiagForm") -> "DiagForm":
        return DiagForm(self.coeffs + other.coeffs)

    def squarefree_normalized(self) -> "DiagForm":
        """Replace each coefficient by its squarefree integer representative.

        This preserves the isometry class coefficient by coefficient.
        """
        return DiagForm(tuple(squarefree_part(c)[0] for c in self.coeffs))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("form is not integral: %s" % (self,))
        return tuple(c.numerator for c in self.coeffs)

    def to_json_list(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    def __str__(self):
        return "<" + ",".join(rat_str(c) for c in self.coeffs) + ">"


def standard_lorentzian(n: int) -> DiagForm:
    """The form <1, ..., 1, -1> with n ones (rank n + 1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return DiagForm((1,) * n + (-1,))


def ldl(g) -> tuple[list, list]:
    """LDL^t of a symmetric matrix without pivoting: g = mu diag(d) mu^t.

    mu is unit lower-triangular; mu[i][j] and d[j] are the Gram-Schmidt
    coefficients and squared norms of the standard basis under g, so
    mu^{-t} diagonalizes g by congruence and d_0 ... d_{k-1} is its k-th
    leading principal minor.  The factorization stops after the first
    zero pivot: d then ends in 0 and mu is its leading len(d) x len(d)
    block, so d[-1] != 0 exactly when no leading minor vanishes.

    int entries are read as Fractions, so Fraction and int input is
    factored exactly; mpf input runs at the caller's mpmath precision.
    """
    g = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in g]
    n = len(g)
    mu, d = [], []
    for i in range(n):
        row = [0] * n
        for j in range(i):
            row[j] = (g[i][j] - sum(row[k] * mu[j][k] * d[k] for k in range(j))) / d[j]
        row[i] = 1
        mu.append(row)
        d.append(g[i][i] - sum(row[k] ** 2 * d[k] for k in range(i)))
        if d[i] == 0:
            return [r[: i + 1] for r in mu], d
    return mu, d


def unit_lower_inverse(mu) -> list:
    """Inverse of a unit lower-triangular matrix, by substitution.

    For mu from ldl, row k holds the coordinates of the k-th
    Gram-Schmidt vector, so the rows are orthogonal under g with
    squared norms d.
    """
    n = len(mu)
    inv = []
    for k in range(n):
        row = [0] * n
        row[k] = 1
        for j in range(k - 1, -1, -1):
            row[j] = -sum(mu[i][j] * row[i] for i in range(j + 1, k + 1))
        inv.append(row)
    return inv


def _square_class(r) -> int:
    # n/d and n*d differ by the square d**2, so every local symbol of
    # r = n/d can be read from the integer n*d
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return r.numerator * r.denominator


def _val_unit(n: int, p: int) -> tuple[int, int]:
    """Split n = p**v * u with u prime to p."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, v) -> int:
    """Hilbert symbol (a, b)_v over Q_v, for v a prime or INF."""
    a, b = _square_class(a), _square_class(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = int(v)
    if not is_prime(p):
        raise ValueError("place must be a prime or INF, got %r" % (v,))
    alpha, ua = _val_unit(a, p)
    beta, ub = _val_unit(b, p)
    if p != 2:
        s = 1
        if (alpha & 1) and (beta & 1) and p % 4 == 3:
            s = -s
        if beta & 1:
            s *= legendre_symbol(ua, p)
        if alpha & 1:
            s *= legendre_symbol(ub, p)
        return s
    ua, ub = ua % 8, ub % 8
    ea = (ua - 1) // 2 % 2
    eb = (ub - 1) // 2 % 2
    wa = (ua ** 2 - 1) // 8 % 2
    wb = (ub ** 2 - 1) // 8 % 2
    exp = ea * eb + alpha * wb + beta * wa
    return -1 if exp % 2 else 1


def is_local_square(a, v) -> bool:
    """Is a a square in Q_v?"""
    a = _square_class(a)
    if a == 0:
        raise ValueError("zero input")
    if v == INF:
        return a > 0
    p = int(v)
    val, u = _val_unit(a, p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre_symbol(u, p) == 1


def hasse_witt(q: DiagForm, v) -> int:
    """Product of (a_i, a_j)_v over all pairs i < j."""
    s = 1
    for ai, aj in itertools.combinations(q.coeffs, 2):
        s *= hilbert_symbol(ai, aj, v)
    return s


def relevant_places(q: DiagForm) -> list:
    """2, the odd primes dividing some coefficient, and INF (sorted)."""
    ps = {2}
    for c in q.coeffs:
        for p, _ in factorize(abs(c.numerator)):
            ps.add(p)
        for p, _ in factorize(c.denominator):
            ps.add(p)
    return sorted(ps) + [INF]


def det_radical(q: DiagForm) -> int:
    """The product of the primes dividing the numerator or the
    denominator of disc(q)."""
    ps = set()
    for c in q.coeffs:
        ps.update(p for p, _ in factorize(abs(c.numerator)))
        ps.update(p for p, _ in factorize(c.denominator))
    return math.prod(ps)


@dataclass(frozen=True)
class InvariantProfile:
    """Rank, signature, discriminant class and Hasse-Witt data of a form."""

    rank: int
    signature: tuple[int, int]
    disc_class: int  # squarefree integer representative
    hasse_witt: dict  # place -> +-1, over the relevant places, INF last


def invariant_profile(q: DiagForm) -> InvariantProfile:
    places = relevant_places(q)
    hw = {p: hasse_witt(q, p) for p in places}
    disc, _ = squarefree_part(q.disc)
    return InvariantProfile(q.rank, q.signature, disc, hw)


def is_isometric_Q(q1: DiagForm, q2: DiagForm) -> bool:
    """Rational isometry decision via rank, signature, disc and Hasse-Witt."""
    if q1.rank != q2.rank:
        return False
    if q1.signature != q2.signature:
        return False
    d1, _ = squarefree_part(q1.disc)
    d2, _ = squarefree_part(q2.disc)
    if d1 != d2:
        return False
    places = sorted(set(relevant_places(q1)[:-1]) | set(relevant_places(q2)[:-1]))
    return all(hasse_witt(q1, p) == hasse_witt(q2, p) for p in places)


def _isotropic_at(q: DiagForm, v) -> bool:
    """Isotropy of q over Q_v (rank >= 2)."""
    n = q.rank
    if v == INF:
        pos, neg = q.signature
        return pos > 0 and neg > 0
    d = q.disc
    if n == 2:
        return is_local_square(-d, v)
    if n == 3:
        return hilbert_symbol(-1, -d, v) == hasse_witt(q, v)
    if n == 4:
        if not is_local_square(d, v):
            return True
        return hasse_witt(q, v) == hilbert_symbol(-1, -1, v)
    return True  # rank >= 5 is isotropic at every finite place


def is_isotropic_Q(q: DiagForm) -> bool:
    """Does q represent zero nontrivially over Q (Hasse-Minkowski)?"""
    if q.rank < 2:
        raise ValueError("isotropy needs rank >= 2")
    pos, neg = q.signature
    if pos == 0 or neg == 0:
        return False
    if q.rank == 2:
        return rational_sqrt(-q.disc) is not None
    if q.rank >= 5:
        return True
    return all(_isotropic_at(q, p) for p in relevant_places(q))

