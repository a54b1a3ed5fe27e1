"""Explicit rational isometries onto the standard Lorentzian form.

The driver takes an integral diagonal form g7 of signature (6, 1) that
is rationally isometric to <1,1,1,1,1,1,-1> and produces an exact
rational change of basis P with P^t A P = diag(1,...,1,-1), together
with the lcm S of the denominators of P and the index bounds S**42 and
(S**2)**42 derived from it (both conventions are reported).

P's columns are a basis of a unimodular lattice L, and S is the least
integer with S L in Z^7, so S depends on L alone.  Following D. Simon,
"Solving quadratic equations using reduced unimodular quadratic forms"
(Math. Comp. 74, 2005), the descent fixes L first and then only changes
its basis:

  step 1  fix L.  Each coefficient a_i = s_i t_i**2 is square-reduced
          by scaling its column by 1/t_i, so every s_i is squarefree.
          det g7 is -1 times a square, so every prime p divides an even
          number 2k of the s_i.  For odd p the units s_i/p of that block
          span a quadratic space over F_p that is split: g7 has the
          Hasse-Witt invariant of a unimodular form at p, so the block
          has trivial second residue.  A Lagrangian basis of it, lifted
          to integers and divided by p, adds k vectors.  For p = 2 the
          vectors (e_i + e_j)/2 over disjoint pairs of the even s_i are
          added.  The lattice L these span with Z^7 is integral and its
          Gram matrix has det -1.  Only the coefficients of g7 are
          factored.
  step 2  reduce the basis.  L is odd, unimodular and indefinite, hence
          isometric to I_{6,1}.  Vectors v with Q(v) = +-1 are split off
          one at a time, the rest of the basis being projected onto
          v-perp.  Each split is one of exactly four kinds: "basis", a
          basis vector of norm +-1; "lll", one of the basis after an
          indefinite LLL; "isotropic", one built from an isotropic
          vector y that LLL meets (a zero pivot) and a w with
          B(y, w) = 1; "hyperbolic", for a rank-2 remainder that is the
          even plane H, re-split together with an earlier unit vector u
          as u + h1 - h2.  When none applies the descent raises
          RuntimeError.  Every move is integral and unimodular, so S is
          the one step 1 fixed.

When g7 is squarefree, Z^7 lies in L and L in (1/r) Z^7 for r =
rad(det g7), and L meets 1/p for every p | r, so S = r.  That is the
least S any isometry can have: P's columns span a unimodular lattice,
which lies in Z_p^7 when p does not divide S, and an integral lattice
containing a unimodular one equals it, so p does not divide det g7.
Both facts are checked on every result, and so is P itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import factorize, kronecker_symbol, smallest_nonresidue_prime, squarefree_part
from .forms import DiagForm, det_radical, is_isometric_Q, ldl, standard_lorentzian, unit_lower_inverse


# ---------------------------------------------------------------------------
# exact matrix helpers (lists of lists of Fractions)


def gram_matrix(diag_coeffs, cols):
    """(P^t A P) for A = diag(diag_coeffs), P given by columns.

    The Gram builder of the diagonal forms: step 1 and the exact checks
    call it (step 2 works in a basis of L, through _gram).  It computes
    the upper triangle and mirrors it.  Sums start from the int 0, so
    int input gives int entries, which ldl reads as Fractions.
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
# step 1: the unimodular lattice


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


def _lagrangian(units, p):
    """k vectors spanning a totally isotropic subspace of <units> over
    F_p, for an odd prime p and 2k units that form a split space.

    The space is kept as an orthogonal basis.  Any three of its vectors
    span a plane <a, b, c> with an isotropic vector z = (x, y, 1); z joins
    the Lagrangian and the three are replaced by one vector of z-perp
    outside span(z), which is orthogonal to z and to the rest.  The last
    two must be split, and are exactly when the whole space is.
    """
    n = len(units)
    basis = [([int(i == j) for j in range(n)], u % p) for i, u in enumerate(units)]

    def mix(coeffs, vecs):
        return [sum(k * v[i] for k, v in zip(coeffs, vecs)) % p for i in range(n)]

    out = []
    while len(basis) > 2:
        (e, a), (f, b), (g, c) = basis[:3]
        x = next(x for x in range(p) if kronecker_symbol(-(c + a * x * x) * b, p) >= 0)
        y = _sqrt_mod_prime(-(c + a * x * x) * pow(b, -1, p), p)
        # three vectors of z-perp; one lies outside span(z)
        perp = [(b * y, -a * x, 0), (c, 0, -a * x), (0, c, -b * y)]
        w = next(w for w in perp if (a * w[0] ** 2 + b * w[1] ** 2 + c * w[2] ** 2) % p)
        out.append(mix((x, y, 1), (e, f, g)))
        basis = [(mix(w, (e, f, g)), (a * w[0] ** 2 + b * w[1] ** 2 + c * w[2] ** 2) % p)] + basis[3:]
    (e, a), (f, b) = basis
    if kronecker_symbol(-a * b, p) != 1:
        raise RuntimeError("the %d-block of the form is not split" % p)
    out.append(mix((1, _sqrt_mod_prime(-a * pow(b, -1, p), p)), (e, f)))
    # lift to the residues of least absolute value
    return [[t - p if 2 * t > p else t for t in v] for v in out]


def _echelon_basis(vectors, n):
    """A basis in echelon form of the lattice spanned by integer vectors
    of length n (full rank n), by Euclid on each coordinate in turn."""
    rows, basis = [list(v) for v in vectors], []
    for c in range(n):
        piv = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(piv) > 1:
            piv.sort(key=lambda r: abs(r[c]))
            head, rest = piv[0], []
            for r in piv[1:]:
                q = r[c] // head[c]
                r = [x - q * y for x, y in zip(r, head)]
                (rest if r[c] else rows).append(r)
            piv = [head] + rest
        if not piv:
            raise RuntimeError("the lattice generators do not have full rank")
        basis.append(piv[0])
    return basis


def _unimodular_lattice(s, steps):
    """The lattice L of step 1 as (N, cols, G): cols are N times a basis
    of L, integer columns in the coordinates where the form is diag(s)
    with every s_i squarefree, and G is its Gram matrix."""
    n = len(s)
    primes = sorted({p for c in s for p, _ in factorize(abs(c))})
    N = math.prod(primes)
    ints = [[N * int(i == j) for i in range(n)] for j in range(n)]
    for p in primes:
        block = [i for i in range(n) if s[i] % p == 0]
        if len(block) % 2:
            raise RuntimeError("%d divides an odd number of the coefficients %s" % (p, s))
        if p == 2:
            vecs = [[1, 1]] * (len(block) // 2)
            blocks = [block[i : i + 2] for i in range(0, len(block), 2)]
        else:
            vecs = _lagrangian([s[i] // p for i in block], p)
            blocks = [block] * len(vecs)
        for v, idx in zip(vecs, blocks):
            col = [0] * n
            for i, t in zip(idx, v):
                col[i] = N // p * t
            ints.append(col)
        steps.append({"prime": p, "vectors": len(vecs)})
    cols = _echelon_basis(ints, n)
    g = gram_matrix(s, cols)
    # the basis is triangular: det Gram = (prod of its diagonal)**2 * prod(s)
    det = Fraction(math.prod(cols[j][j] for j in range(n)) ** 2 * math.prod(s), N ** (2 * n))
    if det != -1 or any(x % (N * N) for row in g for x in row):
        raise RuntimeError("the lattice of step 1 is not integral with det -1 (det %s)" % det)
    return N, cols, [[x // (N * N) for x in row] for row in g]


# ---------------------------------------------------------------------------
# step 2: unit vectors of the unimodular lattice


def _gram(G, cols):
    """cols^t G cols for a full symmetric matrix G: the Gram matrices of
    step 2, whose coordinates are those of a basis of L."""
    gc = [[sum(r * c for r, c in zip(row, col)) for row in G] for col in cols]
    return [[sum(a * b for a, b in zip(u, w)) for w in gc] for u in cols]


def _lll_columns(G, cols):
    """Indefinite LLL of integer columns under the Gram matrix G.

    Keeps the spanned lattice and returns (b, y).  The columns b are
    size-reduced (every |mu_ij| <= 1/2) and meet the Lovasz condition
    |d_k + mu_k,k-1^2 d_k-1| >= 3/4 |d_k-1|, which for a definite G
    is the usual one.  The Gram-Schmidt data is the exact ldl of the
    columns' Gram matrix, computed once and then updated in place: a size
    reduction b_k -= q b_j updates row k of mu (mu_kj -= q, mu_ki -= q
    mu_ji for i < j) and leaves the norms as they are, and a swap
    applies the exact LLL swap formulas.  When a leading minor vanishes
    (a zero pivot, only possible for an indefinite G) the reduction
    stops there and y holds the integer coordinates, in b, of a
    primitive isotropic vector; otherwise y is None.
    """
    b = [list(col) for col in cols]
    n = len(b)
    mu, norms = ldl(_gram(G, b))
    if norms[-1] == 0:
        return b, _isotropic_coords(mu, n)
    k = 1
    for _ in range(100_000):
        if k >= n:
            return b, None
        for j in range(k - 1, -1, -1):
            f = mu[k][j]
            q = (2 * f.numerator + f.denominator) // (2 * f.denominator)
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                # mu[j] is 1 at j and 0 past it
                mu[k] = [x - q * y for x, y in zip(mu[k], mu[j])]
        m = mu[k][k - 1]
        if abs(norms[k] + m * m * norms[k - 1]) < Fraction(3, 4) * abs(norms[k - 1]):
            b[k], b[k - 1] = b[k - 1], b[k]
            if norms[k] + m * m * norms[k - 1] == 0:
                mu, norms = ldl(_gram(G, b))
                return b, _isotropic_coords(mu, n)
            _swap_gram_schmidt(mu, norms, k)
            k = max(k - 1, 1)
        else:
            k += 1
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


def _isotropic_coords(mu, n):
    """Primitive integer coordinates of the last Gram-Schmidt vector of
    an ldl that ended in a zero pivot: it is orthogonal to the columns
    before it and to itself.  Padded with zeros to length n."""
    row = unit_lower_inverse(mu)[-1]
    den = math.lcm(*(Fraction(t).denominator for t in row))
    y = [int(t * den) for t in row]
    g = math.gcd(*y)
    return [t // g for t in y] + [0] * (n - len(y))


def _norm(g, x):
    return _gram(g, [x])[0][0]


def _unit_index(g):
    """Coordinates of the first basis vector of norm +-1, or None."""
    n = len(g)
    return next(([int(i == j) for i in range(n)] for j in range(n) if g[j][j] in (1, -1)), None)


def _xgcd(a, b):
    """(d, x, y) with d = gcd(a, b) = a x + b y, d >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _dual(g, y):
    """Integer coordinates of a w with B(y, w) = 1, by the extended gcd
    of the B(y, b_j): they are coprime when y is primitive and the
    Gram matrix g is unimodular."""
    bv = [sum(g[j][i] * t for i, t in enumerate(y)) for j in range(len(g))]
    w, acc = [0] * len(g), 0
    for j, v in enumerate(bv):
        if v:
            acc, a, c = _xgcd(acc, v)
            w = [a * t for t in w]
            w[j] += c
    if acc != 1:
        raise RuntimeError("isotropic vector %s is not primitive" % y)
    return w


def _unit_from_isotropic(g, y):
    """Coordinates of a vector of norm +-1 built from the primitive
    isotropic vector with coordinates y, or None when every basis
    vector has even norm (the lattice is even).

    w = _dual(g, y) has B(y, w) = 1.  If Q(w) is even, (1 - B(y, b)) w + b
    for a basis vector b of odd norm still pairs to 1 with y and has odd
    norm.  Then w + t y has norm Q(w) + 2t = +-1 for one t.
    """
    w = _dual(g, y)
    if _norm(g, w) % 2 == 0:
        odd = next((j for j in range(len(g)) if g[j][j] % 2), None)
        if odd is None:
            return None
        pair = sum(g[odd][i] * t for i, t in enumerate(y))
        w = [(1 - pair) * t for t in w]
        w[odd] += 1
    q = _norm(g, w)
    t = ((1 if q > 0 else -1) - q) // 2
    return [a + t * b for a, b in zip(w, y)]


def _to_front(cols, x):
    """A basis of the lattice of cols whose first column is cols.x, for
    primitive integer coordinates x, by Euclid on x: x_a cols_a + x_j
    cols_j = x_a (cols_a + q cols_j) + (x_j - q x_a) cols_j."""
    cols, x = [list(c) for c in cols], list(x)
    while sum(1 for t in x if t) > 1:
        a = min((j for j in range(len(x)) if x[j]), key=lambda j: abs(x[j]))
        for j in range(len(x)):
            if j != a and x[j]:
                q = x[j] // x[a]
                x[j] -= q * x[a]
                cols[a] = [u + q * v for u, v in zip(cols[a], cols[j])]
    a = next(j for j in range(len(x)) if x[j])
    if abs(x[a]) != 1:
        raise RuntimeError("unit vector coordinates are not primitive")
    return [[x[a] * t for t in cols[a]]] + cols[:a] + cols[a + 1 :]


def _orthonormal_basis(G, steps):
    """Integer columns T with T^t G T = diag(1,...,1,-1), for the Gram
    matrix G of an odd unimodular lattice of signature (6, 1): the
    norm-1 vectors, then the one of norm -1.  Each split is logged by
    how its unit vector was found."""
    n = len(G)
    units, active = [], [[int(i == j) for i in range(n)] for j in range(n)]
    while active:
        kind, x = "basis", _unit_index(_gram(G, active))
        if x is None:
            kind = "lll"
            active, y = _lll_columns(G, active)
            g = _gram(G, active)
            x = _unit_index(g)
            if x is None and y is not None:
                kind, x = "isotropic", _unit_from_isotropic(g, y)
                if x is None:
                    # an even lattice: the plane H, with h1 = active.y and
                    # h2 = active.(w - t y) for w = _dual(g, y), t = Q(w)/2;
                    # an earlier unit u of norm 1 gives u + h1 - h2 of norm -1
                    kind = "hyperbolic"
                    w = _dual(g, y)
                    t = _norm(g, w) // 2
                    plus = [i for i, (_, sign) in enumerate(units) if sign == 1]
                    if not plus:
                        raise RuntimeError("an even remainder with no unit of norm 1 to re-split it")
                    active = [units.pop(plus[-1])[0]] + active
                    x = [1] + [(1 + t) * a - b for a, b in zip(y, w)]
            if x is None:
                raise RuntimeError("no vector of norm +-1 found in the reduced basis")
        active = _to_front(active, x)
        h = _gram(G, active)
        v, sign = active[0], h[0][0]
        units.append((v, sign))
        # project the rest onto v-perp: integral, as Q(v) = +-1
        active = [[a - sign * h[0][j] * c for a, c in zip(b, v)] for j, b in enumerate(active) if j]
        steps.append({"split": kind})
    return [v for v, sign in units if sign == 1] + [v for v, sign in units if sign == -1]


# ---------------------------------------------------------------------------
# the isometry


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
    """Exact check of P^t A_source P == A_target (diagonal forms), in
    integers: with S the common denominator of P and D that of A_source,
    (S P)^t (D A_source) (S P) == D S^2 A_target."""
    n = source.rank
    if target.rank != n or len(p) != n or any(len(row) != n for row in p):
        return False
    S = mat_denominator_lcm(p)
    D = math.lcm(*(c.denominator for c in source.coeffs))
    cols = [[int(Fraction(p[i][j]) * S) for i in range(n)] for j in range(n)]
    gr = gram_matrix([int(c * D) for c in source.coeffs], cols)
    return all(
        gr[i][j] == (target.coeffs[i] * D * S * S if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def full_isometry_to_standard(g7: DiagForm) -> IsometryWitness:
    """Exact rational isometry from g7 onto <1,1,1,1,1,1,-1>.

    g7 must be integral of rank 7 and rationally isometric to the
    target (checked up front, ValueError otherwise).  The two steps of
    the module docstring give P.  P is checked exactly, S is checked to
    be a multiple of rad(det g7) (forms.det_radical), and equal to it
    when every coefficient of g7 is squarefree.
    """
    n = 7
    target = standard_lorentzian(6)
    if g7.rank != n or not g7.is_integral():
        raise ValueError("expected an integral rank-7 form")
    if not is_isometric_Q(g7, target):
        raise ValueError("form is not rationally isometric to the standard form")

    split = [squarefree_part(c) for c in g7.int_coeffs()]
    s = [sf for sf, _ in split]
    steps = []
    N, basis, G = _unimodular_lattice(s, steps)
    T = _orthonormal_basis(G, steps)
    # column k of P is basis.T_k / N, its row i scaled back by 1/t_i
    m = [
        [Fraction(sum(b[i] * x for b, x in zip(basis, col)), N * int(split[i][1])) for col in T]
        for i in range(n)
    ]
    if not verify_isometry(m, g7, target):
        raise RuntimeError("final congruence check failed")
    S = mat_denominator_lcm(m)
    lower = det_radical(g7)
    if S % lower:
        raise RuntimeError("S = %d is not a multiple of rad(det g7) = %d" % (S, lower))
    if S != lower and all(t == 1 for _, t in split):
        raise RuntimeError("S = %d is not rad(det g7) = %d for a squarefree form" % (S, lower))
    return IsometryWitness(P=m, source=g7, target=target, S=S, steps=steps)
