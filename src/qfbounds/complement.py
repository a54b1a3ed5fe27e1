"""Complementary definite ternary forms.

Given an integral form q = <z1, z2, z3, -z4> of signature (3, 1), this
module finds positive definite ternary forms q_c whose direct sum with
q is rationally isometric to the standard form <1,1,1,1,1,1,-1>.
Equivalently: disc(q_c) = -disc(q) as square classes and q_c has the
same Hasse-Witt invariant as q at every place.  Two routes give one:

Search (search_complements, tried first).  Every squarefree triple
a <= b <= c with a*b*c in the square class of d = z1*z2*z3*z4 is
enumerated by increasing a + b + c, with c = sf(D*a*b) for D = sf(d)
found by gcds.  The Hasse-Witt condition is then local: <a, b, c> must
have q's symbol at every prime of 2*d*a*b*c (both are 1 elsewhere), and
q's symbols are computed once per form.  The survivors are ranked by the
proven lower bound rad(det(q_c + q)) on the isometry's denominator S,
then by a + b + c; the pipeline descends the first, whose S is that
bound when q is squarefree.  The published complements <2,5,10> and
<1,1,7> are found this way.  The constants, with their reasons:

  SEARCH_KEEP = 8:  survivors kept and ranked.  The first by a + b + c
      need not have the smallest rad, and eight cost little.
  SEARCH_MAX_SUM = 2**14:  the largest a + b + c.  The windows double
      from 64 and each costs O(window) gcds.  A prime above it that
      divides d to an odd power divides a coefficient of every triple;
      when the windows find nothing, the triples with a*b*c = D are
      tried instead, one per split of the primes of D into three parts
      (at most SEARCH_MAX_SUM splits, the windows' budget), and the
      construction runs only when none of those fits either.

Construction (complementary_form, the fallback that always succeeds):
q_c = <x, c, c*d*x>, with the two parameters produced deterministically:

  c:  for each prime p | 2d put z_p = 1 when v_p(d) is even and 0 when
      odd, and take c = prod p**z_p.  This forces c and -d into
      different square classes in every Q_p with p | 2d, and makes
      v_p(cd) odd at each such p.

  x:  local targets eps'_p = (c,-d)_p * eps_p(q) are hit by unit square
      classes (1 when the target is +1, a small explicit non-residue
      when -1), lifted by CRT to x' (mod 8 at the dyadic place).  Any
      residual defect of x' at primes outside 2cd sits at primes ell
      dividing x' with ((-cd)/ell) = -1; it is cancelled by multiplying
      with a = prod of those primes and an auxiliary prime q' = a
      (mod 8 * odd primes of 2cd) chosen coprime to everything, giving
      x = x' * a * q'.  The product formula then forces the symbol at
      q' itself to come out right.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    crt_solve,
    factorize,
    legendre_symbol,
    primes_in_ap,
    smallest_nonresidue_prime,
    squarefree_part,
)
from .forms import (
    DiagForm,
    det_radical,
    hasse_witt,
    hilbert_symbol,
    is_isometric_Q,
    is_local_square,
    standard_lorentzian,
)

# see the module docstring
SEARCH_KEEP = 8
SEARCH_MAX_SUM = 1 << 14


@dataclass(frozen=True)
class ComplementWitness:
    JSON_EXTRA = ("alpha_beta_gamma",)

    q: DiagForm
    qc: DiagForm  # squarefree coefficients: <a, b, c> or <sf(x), sf(c), sf(cdx)>
    qc_raw: DiagForm  # qc itself, or <x, c, c*d*x> exactly
    c: int | None  # the construction's parameters; None for a searched complement
    x: int | None
    d: int
    strategy: str  # "search" or "construction"

    @property
    def alpha_beta_gamma(self) -> str:
        """The product of the raw coefficients ((x*c)**2 * d for the
        construction), in decimal."""
        return str(math.prod(self.qc_raw.int_coeffs()))


def _require_input_form(q: DiagForm) -> tuple[int, int, int, int]:
    cs = q.int_coeffs()
    if len(cs) != 4:
        raise ValueError("expected a rank-4 form")
    if not (cs[0] > 0 and cs[1] > 0 and cs[2] > 0 and cs[3] < 0):
        raise ValueError("expected signature (3,1) in the shape <z1,z2,z3,-z4>")
    if math.gcd(math.gcd(cs[0], cs[1]), math.gcd(cs[2], cs[3])) != 1:
        raise ValueError("form must be primitive")
    return cs[0], cs[1], cs[2], -cs[3]


def choose_c(q: DiagForm) -> int:
    """The auxiliary coefficient c | 2d described in the module docstring."""
    z1, z2, z3, z4 = _require_input_form(q)
    d = z1 * z2 * z3 * z4
    fac = dict(factorize(2 * d))
    c = 1
    for p in sorted(fac):
        v_p_d = fac[p] - (1 if p == 2 else 0)
        if v_p_d % 2 == 0:
            c *= p
    # c and -d must land in different square classes at every p | 2d
    for p in sorted(fac):
        if is_local_square(Fraction(c) / Fraction(-d), p):
            raise RuntimeError("square-class separation failed at p=%d" % p)
    return c


def _local_targets(q: DiagForm, c: int, d: int) -> dict[int, int]:
    s_primes = sorted(p for p, _ in factorize(2 * c * d))
    return {p: hilbert_symbol(c, -d, p) * hasse_witt(q, p) for p in s_primes}


def choose_x(q: DiagForm, c: int) -> int:
    """The positive integer x with (x, -cd)_p = (c, -d)_p * eps_p(q) for all p."""
    z1, z2, z3, z4 = _require_input_form(q)
    d = z1 * z2 * z3 * z4
    targets = _local_targets(q, c, d)
    if all(t == 1 for t in targets.values()):
        return 1

    minus_cd = Fraction(-c * d)
    congruences = []
    for p, t in sorted(targets.items()):
        if p == 2:
            if t == 1:
                congruences.append((1, 8))
            else:
                for cand in (3, 5, 7):
                    if hilbert_symbol(cand, minus_cd, 2) == -1:
                        congruences.append((cand, 8))
                        break
                else:
                    raise RuntimeError("no odd unit class hits the dyadic target")
        else:
            if t == 1:
                congruences.append((1, p))
            else:
                cand = smallest_nonresidue_prime(p)
                if hilbert_symbol(cand, minus_cd, p) != -1:
                    raise RuntimeError("non-residue misses target at p=%d" % p)
                congruences.append((cand, p))
    x1 = crt_solve(congruences)
    if x1 == 0:
        x1 = math.prod(m for _, m in congruences)
    _require_targets(x1, minus_cd, targets)

    # defect primes: odd valuation of x1 at ell outside 2cd with ((-cd)/ell) = -1
    defect = []
    for ell, e in factorize(x1):
        if (2 * c * d) % ell == 0 or e % 2 == 0:
            continue
        if legendre_symbol((-c * d) % ell, ell) == -1:
            defect.append(ell)
    if not defect:
        return x1

    a = math.prod(defect)
    m = 8
    for p in targets:
        if p != 2:
            m *= p
    qprime = next(cand for cand in primes_in_ap(a % m, m) if x1 % cand and a % cand)
    x = x1 * a * qprime
    _require_targets(x, minus_cd, targets)
    return x


def _require_targets(x: int, minus_cd: Fraction, targets: dict[int, int]) -> None:
    for p, t in targets.items():
        if hilbert_symbol(x, minus_cd, p) != t:
            raise RuntimeError("x=%d misses the local target at p=%d" % (x, p))


def complementary_form(q: DiagForm) -> ComplementWitness:
    """Construct the complement witness for an integral signature-(3,1) form."""
    z1, z2, z3, z4 = _require_input_form(q)
    d = z1 * z2 * z3 * z4
    c = choose_c(q)
    x = choose_x(q, c)
    raw = DiagForm((x, c, c * d * x))
    reduced = raw.squarefree_normalized()
    witness = ComplementWitness(q=q, qc=reduced, qc_raw=raw, c=c, x=x, d=d, strategy="construction")
    if not verify_complement(q, reduced):
        raise RuntimeError("constructed complement failed verification for %s" % q)
    return witness


# ---------------------------------------------------------------------------
# search: the smallest complements


def _prime_list(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def _divisors(ps) -> list[int]:
    out = [1]
    for p in ps:
        out += [x * p for x in out]
    return out


def _squarefree_flags(n: int) -> bytearray:
    flags = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        flags[p * p :: p * p] = bytes(len(flags[p * p :: p * p]))
    return flags


def _triples(D: int, lo: int, hi: int):
    """(a + b + c, a, b, c) for the squarefree a <= b <= c with a*b*c in
    the square class of D and lo < a + b + c <= hi.

    With e = sf(D*a) = D*a / gcd(D, a)**2, the pair is b = g*u, c = g*v
    with u*v = e, u <= v and g = gcd(b, c) squarefree and prime to e;
    so c = sf(D*a*b) comes from gcds, and only D and a are factored.
    """
    sqf = _squarefree_flags(hi)
    d_primes = _prime_list(D)
    for a in range(1, hi // 3 + 1):
        if not sqf[a]:
            continue
        h = math.gcd(D, a)
        e = (D // h) * (a // h)
        if 4 * e > (hi - a) ** 2:  # u + v >= 2 sqrt(e)
            continue
        for u in _divisors(sorted(set(d_primes).symmetric_difference(_prime_list(a)))):
            v = e // u
            if u > v or u + v > hi - a:
                continue
            for g in range(-(-a // u), (hi - a) // (u + v) + 1):
                s = a + g * (u + v)
                if s > lo and sqf[g] and math.gcd(g, e) == 1:
                    yield s, a, g * u, g * v


def _search_targets(q: DiagForm) -> tuple[int, dict[int, int]]:
    """D = sf(d) and q's Hasse-Witt symbol at each prime of 2d."""
    z1, z2, z3, z4 = _require_input_form(q)
    fac = factorize(2 * z1 * z2 * z3 * z4)
    D = math.prod(p for p, e in fac if (e - (p == 2)) % 2)
    return D, {p: hasse_witt(q, p) for p, _ in fac}


def _hasse_witt_matches(targets: dict[int, int], a: int, b: int, c: int) -> bool:
    """Does <a, b, c> have q's Hasse-Witt symbol at every prime?

    targets holds q's symbols at the primes of 2d.  At any other prime
    q's symbol is 1, and so is that of <a, b, c> unless the prime
    divides a*b*c, whose primes are among those of d*a*b.  An odd prime
    whose target is -1 must divide a*b*c, which rules most triples out
    before any symbol is computed.
    """
    if any(t == -1 and p != 2 and a % p and b % p and c % p for p, t in targets.items()):
        return False
    places = set(targets).union(_prime_list(a), _prime_list(b))
    return all(
        hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p) * hilbert_symbol(b, c, p) == targets.get(p, 1)
        for p in sorted(places)
    )


def _divisor_triples(D: int):
    """The a <= b <= c with a*b*c = D squarefree, from the first
    SEARCH_MAX_SUM splits of D's primes into three parts."""
    ps, seen = _prime_list(D), set()
    for parts in itertools.islice(itertools.product(range(3), repeat=len(ps)), SEARCH_MAX_SUM):
        abc = tuple(sorted(math.prod(p for p, k in zip(ps, parts) if k == i) for i in range(3)))
        if abc not in seen:
            seen.add(abc)
            yield abc


def search_complements(q: DiagForm) -> list[ComplementWitness]:
    """Up to SEARCH_KEEP complements <a, b, c>, the first by increasing
    a + b + c to pass the local filter, ranked by the proven lower bound
    rad(det(qc + q)) on S and then by a + b + c.

    When no triple with a + b + c <= SEARCH_MAX_SUM passes, the triples
    with a*b*c = D are filtered and ranked the same way; empty when none
    of those passes either.  The filter is exact (see
    verify_complement), but the chosen witness is still confirmed by
    verify_complement before its descent.
    """
    D, targets = _search_targets(q)
    d = abs(int(q.disc))
    found = []
    lo, hi = 0, 64
    while len(found) < SEARCH_KEEP and hi <= SEARCH_MAX_SUM:
        for _, a, b, c in sorted(_triples(D, lo, hi)):
            if _hasse_witt_matches(targets, a, b, c):
                found.append(DiagForm((a, b, c)))
                if len(found) == SEARCH_KEEP:
                    break
        lo, hi = hi, 2 * hi
    if not found:
        matches = (abc for abc in _divisor_triples(D) if _hasse_witt_matches(targets, *abc))
        found = [DiagForm(abc) for abc in itertools.islice(matches, SEARCH_KEEP)]
    witnesses = [
        ComplementWitness(q=q, qc=qc, qc_raw=qc, c=None, x=None, d=d, strategy="search")
        for qc in found
    ]
    return sorted(witnesses, key=lambda w: (det_radical(w.qc.direct_sum(q)), sum(w.qc.coeffs)))


def verify_complement(q: DiagForm, qc: DiagForm) -> bool:
    """Check that qc complements q inside the standard form of signature (6,1).

    Requires qc positive definite of rank 3, disc(qc) = -disc(q) as
    square classes, matching Hasse-Witt everywhere, and qc (+) q
    rationally isometric to <1,1,1,1,1,1,-1>.
    """
    if qc.rank != 3 or any(a <= 0 for a in qc.coeffs):
        return False
    if q.rank != 4 or q.signature != (3, 1):
        return False
    s1, _ = squarefree_part(qc.disc)
    s2, _ = squarefree_part(-q.disc)
    if s1 != s2:
        return False
    return is_isometric_Q(qc.direct_sum(q), standard_lorentzian(6))
