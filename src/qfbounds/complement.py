"""Complementary definite ternary forms.

Given an integral form q = <z1, z2, z3, -z4> of signature (3, 1), this
module constructs a positive definite ternary form q_c = <x, c, c*d*x>
(d = z1*z2*z3*z4) whose direct sum with q is rationally isometric to
the standard form <1,1,1,1,1,1,-1>.  Equivalently: disc(q_c) = -disc(q)
as square classes and q_c has the same Hasse-Witt invariant as q at
every place.

The two free parameters are produced deterministically:

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
    hasse_witt,
    hilbert_symbol,
    is_isometric_Q,
    is_local_square,
    standard_lorentzian,
)


@dataclass(frozen=True)
class ComplementWitness:
    JSON_EXTRA = ("alpha_beta_gamma",)

    q: DiagForm
    qc: DiagForm  # squarefree-reduced <sf(x), sf(c), sf(cdx)>
    qc_raw: DiagForm  # <x, c, c*d*x> exactly
    c: int
    x: int
    d: int

    @property
    def alpha_beta_gamma(self) -> str:
        """The product of the raw coefficients, (x*c)**2 * d, in decimal."""
        return str(self.x * self.c * (self.c * self.d * self.x))


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
    witness = ComplementWitness(q=q, qc=reduced, qc_raw=raw, c=c, x=x, d=d)
    if not verify_complement(q, reduced):
        raise RuntimeError("constructed complement failed verification for %s" % q)
    return witness


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
