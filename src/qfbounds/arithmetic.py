"""Imaginary quadratic field data, quaternion ramification, the maximal
covolume, and the effective index-bound constants built from them.

The chain implemented here: a signature (3,1) diagonal form determines
an imaginary quadratic field k = Q(sqrt(-d)) and a quaternion algebra
(z3*z4, z2*z4 / k).  The algebra's finite ramification set, together
with class-number and zeta data of k, feeds the Borel-style covolume
of a maximal arithmetic lattice (its one formula is in
sharp_S_enumeration).  Comparing it against a target volume V bounds
the level support S that a maximal lattice containing a fixed lattice
of covolume <= V can have, which turns into an index bound of the shape
2**(|S|+r_f+1) * [k_A:k].
Generic (any V, any eps) and sharp (enumerated small prime norms)
variants are both provided.

zeta_k(2) enters every covolume.  It is computed by the Hurwitz
identity zeta_k(2) = zeta(2) * d_k**-2 * sum_r chi(r) * zeta(2, r/d_k),
in O(d_k) mpmath calls at a fixed precision, and memoized per
discriminant.

The absolute constant A1 of the underlying effectivity results is never
pinned numerically by the source material; it is a configuration input
with default 1, and every output that depends on it says so in its
human-readable rendering.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp

from .exact import factorize, is_prime, kronecker_symbol, primes, squarefree_part
from .forms import DiagForm, hilbert_symbol


# ---------------------------------------------------------------------------
# imaginary quadratic fields


@dataclass(frozen=True)
class ImagQuadField:
    """Q(sqrt(-d)) for squarefree d >= 1, with discriminant bookkeeping."""

    d: int
    disc: int
    d_k: int
    h_k: int
    omega_dk: int

    @classmethod
    def from_d(cls, d: int) -> "ImagQuadField":
        if d < 1:
            raise ValueError("d must be a positive integer")
        s, _ = squarefree_part(d)
        if s != d:
            raise ValueError("d must be squarefree, got %d" % d)
        disc = -d if d % 4 == 3 else -4 * d
        d_k = -disc
        h_k = class_number_of_disc(disc)
        omega = len(factorize(d_k))
        return cls(d=d, disc=disc, d_k=d_k, h_k=h_k, omega_dk=omega)


def splitting_type(K: ImagQuadField, p: int) -> str:
    """'split', 'inert', or 'ramified' for the rational prime p in K."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if K.d_k % p == 0:
        return "ramified"
    return "split" if kronecker_symbol(K.disc, p) == 1 else "inert"


@lru_cache(maxsize=None)
def class_number_of_disc(disc: int) -> int:
    """Count of reduced primitive binary forms ax^2+bxy+cy^2 of given disc.

    Reduced: |b| <= a <= c with b >= 0 whenever |b| == a or a == c.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("not an imaginary quadratic discriminant: %d" % disc)
    count = 0
    b = disc % 2
    while b * b <= -disc // 3:
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(a, math.gcd(b, c)) == 1:
                    count += 1
                    # (a, -b, c) is a distinct class unless b=0, a=|b|, or a=c
                    if 0 < b < a < c:
                        count += 1
            a += 1
        b += 2
    return count


def zeta_k_2(K: ImagQuadField) -> float:
    """zeta_k(2) = zeta(2) * L(2, chi_disc) by the Hurwitz identity.

    L(2, chi) = d_k**-2 * sum_{0<r<d_k} chi(r) * zeta(2, r/d_k) is exact,
    so the cost is O(d_k) Hurwitz zeta calls in constant memory.  The sum
    runs at a fixed 30 digits, whatever the caller's mpmath precision, and
    the float (error about 1e-15) is memoized per discriminant.
    """
    return _zeta_k_2_of_disc(K.disc)


@lru_cache(maxsize=None)
def _zeta_k_2_of_disc(disc: int) -> float:
    d_k = -disc
    with mp.workdps(30):
        l_sum = mp.fsum(
            chi * mp.zeta(2, mp.mpf(r) / d_k)
            for r in range(1, d_k)
            if (chi := kronecker_symbol(disc, r))
        )
        return float(mp.zeta(2) * l_sum / d_k ** 2)


# ---------------------------------------------------------------------------
# quaternion algebras over K with rational Hilbert-symbol entries


@dataclass(frozen=True)
class QuatAlgebra:
    a: int
    b: int
    field: ImagQuadField
    ram_f: tuple  # entries (p, count_of_primes, norm_each)
    r_f: int


def field_from_form(q: DiagForm) -> tuple[int, ImagQuadField]:
    """(d_raw, K) with d_raw = z1*z2*z3*z4 and K built on its squarefree part."""
    z = _z_entries(q)
    d_raw = z[0] * z[1] * z[2] * z[3]
    s, _ = squarefree_part(d_raw)
    return d_raw, ImagQuadField.from_d(s)


def _z_entries(q: DiagForm) -> tuple[int, int, int, int]:
    if q.rank != 4 or not q.is_integral():
        raise ValueError("expected an integral rank-4 form <z1,z2,z3,-z4>")
    cs = q.int_coeffs()
    if not (cs[0] > 0 and cs[1] > 0 and cs[2] > 0 and cs[3] < 0):
        raise ValueError("expected the sign pattern <+,+,+,->")
    return cs[0], cs[1], cs[2], -cs[3]


def quaternion_from_form(q: DiagForm) -> QuatAlgebra:
    """The algebra (z3*z4, z2*z4) over field_from_form(q), entries reduced."""
    z = _z_entries(q)
    _, K = field_from_form(q)
    return quaternion_algebra(z[2] * z[3], z[1] * z[3], K)


def quaternion_algebra(a: int, b: int, K: ImagQuadField) -> QuatAlgebra:
    if a == 0 or b == 0:
        raise ValueError("algebra entries must be nonzero")
    sa, _ = squarefree_part(a)
    sb, _ = squarefree_part(b)
    ram, r_f = _ram_data(sa, sb, K)
    return QuatAlgebra(a=sa, b=sb, field=K, ram_f=ram, r_f=r_f)


def _rational_ram_primes(a: int, b: int) -> list[int]:
    ps = {2}
    for n in (a, b):
        for p, _ in factorize(abs(n)):
            ps.add(p)
    return sorted(p for p in ps if hilbert_symbol(a, b, p) == -1)


def _ram_data(a: int, b: int, K: ImagQuadField):
    """Primes of K where (a,b/k) ramifies, for rational a, b.

    A rational quaternion division algebra splits over every quadratic
    extension of Q_p, so only rational primes that split in K can carry
    ramification upstairs; each such prime contributes both primes
    above it.
    """
    ram = []
    for p in _rational_ram_primes(a, b):
        if splitting_type(K, p) == "split":
            ram.append((p, 2, p))
    r_f = sum(c for _, c, _ in ram)
    return tuple(ram), r_f


def ram_norms(A: QuatAlgebra) -> list[int]:
    """Flat list of norms of the finitely many ramified primes of A."""
    out = []
    for _, count, norm in A.ram_f:
        out.extend([norm] * count)
    return sorted(out)


def require_degree(K: ImagQuadField, deg_kA: int) -> None:
    """Reject a degree [k_A:k] outside [1, h_k]: k_A lies in the Hilbert
    class field of k, whose degree over k is h_k."""
    if deg_kA < 1:
        raise ValueError("deg_kA must be at least 1, got %r" % deg_kA)
    if deg_kA > K.h_k:
        raise ValueError("deg_kA must be at most the class number h_k = %d, got %r" % (K.h_k, deg_kA))


# ---------------------------------------------------------------------------
# effective constants


def c_prime_eps(eps: float) -> float:
    """14.5 + 2**(1/eps + 7), for finite eps > 0 where that is a finite float."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % eps)
    exponent = 1.0 / eps + 7
    if not exponent < 1024:  # 2.0**1024 overflows a float
        raise ValueError("eps=%g is too small: 2**(1/eps + 7) overflows a float" % eps)
    return 14.5 + 2.0 ** exponent


@dataclass(frozen=True)
class BoundValue:
    """log10 of a bound, plus which configured constants parameterize it."""

    JSON_EXTRA = ("human", "provenance")

    log10: float
    parameterized_by: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.log10):
            raise ValueError("log10 of the bound is not a finite float: %r" % self.log10)

    @property
    def human(self) -> str:
        tail = (
            " (parameterized by %s)" % ", ".join(self.parameterized_by)
            if self.parameterized_by
            else ""
        )
        return "<= 10^%.6f%s" % (self.log10, tail)

    @property
    def provenance(self) -> str:
        return "parameterized (A1)" if self.parameterized_by else "computed"


_LOG10_2 = math.log10(2.0)


def c_eps_bound(K: ImagQuadField, eps: float, A1: float = 1.0) -> BoundValue:
    """log10 of 2**(eps*C'_eps + 2) * 11^2 * d_k^{A1*omega(d_k) + 3/2}."""
    if A1 < 0:
        raise ValueError("A1 must be nonnegative")
    exponent = eps * c_prime_eps(eps) + 2
    dk_exp = A1 * K.omega_dk + 1.5
    return BoundValue(
        log10=exponent * _LOG10_2 + math.log10(121) + dk_exp * math.log10(K.d_k),
        parameterized_by=("A1",),
    )


def c2_bound(K: ImagQuadField, type_number_one: bool = False, A1: float = 1.0) -> BoundValue:
    """C2 = 1 under an asserted type number of 1, else d_k^{omega(d_k)*A1}."""
    if type_number_one:
        return BoundValue(log10=0.0)
    return BoundValue(
        log10=A1 * K.omega_dk * math.log10(K.d_k), parameterized_by=("A1",)
    )


def _require_volume(V: float) -> None:
    if not (math.isfinite(V) and V > 0):
        raise ValueError("V must be finite and positive, got %r" % V)


def generic_S_rf_bound(eps: float, V: float) -> float:
    """r_f + |S| <= eps*C'_eps + eps*log2(V), when that is a finite float."""
    _require_volume(V)
    bound = eps * c_prime_eps(eps) + eps * math.log2(V)
    if not math.isfinite(bound):
        raise ValueError("eps*C'_eps + eps*log2(V) is not a finite float")
    return bound


# ---------------------------------------------------------------------------
# sharp enumeration of level supports


def prime_norms(K: ImagQuadField, exclude_norms=()):
    """The prime norms of K in increasing order, with multiplicity, unending.

    A split rational prime p contributes two norms p, an inert prime one
    norm p**2, a ramified prime one norm p.  Each entry of exclude_norms
    skips one matching norm (used to skip quaternion-ramified primes).
    Inert norms wait in a heap until the primes pass them.
    """
    skip = Counter(exclude_norms)
    inert = []
    for p in primes():
        norms = []
        while inert and inert[0] < p:
            norms.append(heapq.heappop(inert))
        t = splitting_type(K, p)
        if t == "inert":
            heapq.heappush(inert, p * p)
        else:
            norms += [p, p] if t == "split" else [p]
        for norm in norms:
            if skip[norm]:
                skip[norm] -= 1
            else:
                yield norm


@dataclass(frozen=True)
class SharpEnumeration:
    JSON_EXTRA = ("coefficient",)

    mode: str  # "V" or "eps"
    max_S_size: int | None
    r_f: int
    deg_kA: int
    norms_considered: tuple
    eps_validity_threshold: float | None = None

    @property
    def coefficient(self) -> float:
        """2**(|S|+r_f+1) * deg in V mode, 2**(r_f+3) * deg in eps mode."""
        if self.mode == "V":
            return 2.0 ** (self.max_S_size + self.r_f + 1) * self.deg_kA
        return 2.0 ** (self.r_f + 3) * self.deg_kA


def sharp_S_enumeration(
    K: ImagQuadField,
    ram_norms_list: list,
    V: float | None = None,
    deg_kA: int = 1,
    eps: float | None = None,
) -> SharpEnumeration:
    """Sharp index coefficients from small-norm enumeration.

    V mode (V given): with m = |S| the maximal covolume is smallest, so
    S is feasible iff base * prod_{S}((Nr+1)/2) <= V with
    base = d_k^{3/2} zeta_k(2) / (8 pi^2 deg) * prod_ram((Nr-1)/2).
    Greedily packing the smallest usable norms maximizes |S|; the index
    coefficient is then 2**(|S|+r_f+1) * deg (this already accounts for
    the covolume factor V, so it multiplies nothing further).  A norm is
    packed unless the product exceeds V * (1 + 1e-12): zeta_k_2 and the
    product carry float error, and an outward margin can only over-count
    |S|, which keeps the coefficient an upper bound.

    eps mode (eps given): drop the two smallest usable norms; every
    remaining factor is at least b = (n3+1)/2 for the third-smallest
    norm n3, giving |S| <= log_b(V) + 2 and the coefficient
    2**(r_f+3) * deg multiplying V**eps, valid for eps >= ln2/ln b.
    That threshold is a plain float comparison: for b = 2 it is exactly
    1.0, and a relative margin would reject eps = 1.
    """
    r_f = len(ram_norms_list)
    if (V is None) == (eps is None):
        raise ValueError("provide exactly one of V (V mode) or eps (eps mode)")
    require_degree(K, deg_kA)
    if eps is not None:
        norms = list(itertools.islice(prime_norms(K, ram_norms_list), 3))
        b = (norms[2] + 1) / 2
        threshold = math.log(2) / math.log(b)
        if eps < threshold:
            raise ValueError(
                "eps=%g below the validity threshold ln2/ln((n3+1)/2)=%g" % (eps, threshold)
            )
        return SharpEnumeration(
            mode="eps",
            max_S_size=None,
            r_f=r_f,
            deg_kA=deg_kA,
            norms_considered=tuple(norms),
            eps_validity_threshold=threshold,
        )
    _require_volume(V)
    # every factor is at least 3/2, acc starts positive and V is finite,
    # so the packing stops
    acc = K.d_k ** 1.5 * zeta_k_2(K) / (8 * math.pi ** 2 * deg_kA)
    for norm in ram_norms_list:
        acc *= (norm - 1) / 2
    used = []
    for norm in prime_norms(K, ram_norms_list):
        # outward margin for the float error of zeta_k_2 and the product
        if acc * (norm + 1) / 2 > V * (1 + 1e-12):
            break
        acc *= (norm + 1) / 2
        used.append(norm)
    return SharpEnumeration(
        mode="V",
        max_S_size=len(used),
        r_f=r_f,
        deg_kA=deg_kA,
        norms_considered=tuple(used),
    )


# ---------------------------------------------------------------------------
# assembled index bounds


THEOREM_PREFACTOR = 2 ** 7 * 3 ** 4 * 5  # 51840


def total_index_bound(
    C: BoundValue,
    log10_D: float,
    eps: float,
    V: float,
    sharp: SharpEnumeration | None = None,
) -> BoundValue:
    """log10 of the total special-subgroup index bound.

    Generic mode: 2^7 3^4 5 * C_eps * D * V**eps, parameterized by what
    the bound C on C_eps is parameterized by.
    Sharp mode (a SharpEnumeration given): its coefficient replaces the
    generic prefactor * C_eps, so the result is parameterized by
    nothing; a V-mode coefficient already absorbs V**eps, an eps-mode
    coefficient still multiplies it.
    """
    if sharp is not None:
        log10 = math.log10(sharp.coefficient) + log10_D
        if sharp.mode == "eps":
            log10 += eps * math.log10(V)
        return BoundValue(log10=log10)
    return BoundValue(
        log10=math.log10(THEOREM_PREFACTOR) + C.log10 + log10_D + eps * math.log10(V),
        parameterized_by=C.parameterized_by,
    )
