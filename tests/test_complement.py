"""Definite rank-3 completion of signature-(3,1) forms to the standard
rank-7 form, with the local-symbol bookkeeping behind it."""

import random

import pytest

from qfbounds.complement import (
    SEARCH_KEEP,
    _hasse_witt_matches,
    _search_targets,
    _triples,
    choose_c,
    choose_x,
    complementary_form,
    search_complements,
    verify_complement,
)
from qfbounds.forms import DiagForm, hasse_witt, hilbert_symbol, relevant_places
from qfbounds.exact import factorize
from qfbounds.pipeline import to_json

from conftest import random_nonzero, squarefree_int


def test_choose_c_fixed_values():
    assert choose_c(DiagForm((1, 1, 1, -1))) == 2
    assert choose_c(DiagForm((1, 1, 1, -7))) == 2
    assert choose_c(DiagForm((1, 2, 5, -10))) == 10


def _random_31_form(rng, bound):
    import math

    while True:
        zs = [abs(random_nonzero(rng, -bound, bound)) for _ in range(4)]
        g = math.gcd(math.gcd(zs[0], zs[1]), math.gcd(zs[2], zs[3]))
        zs = [z // g for z in zs]
        return zs


def test_choose_c_divides_2d():
    rng = random.Random(301)
    for _ in range(100):
        zs = _random_31_form(rng, 20)
        q = DiagForm((zs[0], zs[1], zs[2], -zs[3]))
        d = zs[0] * zs[1] * zs[2] * zs[3]
        c = choose_c(q)
        assert c > 0 and (2 * d) % c == 0
        # c is squarefree by construction: one exponent per prime
        assert all(e == 1 for _, e in factorize(c)) or c == 1


def test_choose_c_rejects_wrong_signature():
    with pytest.raises(ValueError):
        choose_c(DiagForm((1, 1, -1, -1)))


def test_choose_x_trivial_profile():
    q = DiagForm((1, 1, 1, -1))
    assert choose_x(q, 2) == 1


def test_choose_x_satisfies_local_targets():
    for coeffs in [(1, 2, 5, -10), (1, 1, 1, -7), (3, 5, 7, -1), (2, 3, 5, -30)]:
        q = DiagForm(coeffs)
        d = 1
        for z in coeffs:
            d *= abs(int(z))
        c = choose_c(q)
        x = choose_x(q, c)
        assert x > 0
        for p in relevant_places(DiagForm((1, 2, c, d))):
            want = hilbert_symbol(c, -d, p) * hasse_witt(q, p)
            assert hilbert_symbol(x, -c * d, p) == want


def test_complementary_form_fixed_inputs():
    w = complementary_form(DiagForm((1, 1, 1, -1)))
    assert verify_complement(w.q, w.qc)
    assert verify_complement(DiagForm((1, 1, 1, -1)), DiagForm((1, 1, 1)))

    w = complementary_form(DiagForm((1, 1, 1, -7)))
    assert verify_complement(w.q, w.qc)
    assert verify_complement(DiagForm((1, 1, 1, -7)), DiagForm((1, 1, 7)))

    w = complementary_form(DiagForm((1, 2, 5, -10)))
    assert verify_complement(w.q, w.qc)
    assert verify_complement(DiagForm((1, 2, 5, -10)), DiagForm((2, 5, 10)))


def test_verify_complement_rejects_wrong_disc():
    assert not verify_complement(DiagForm((1, 1, 1, -7)), DiagForm((1, 1, 1)))
    assert not verify_complement(DiagForm((1, 2, 5, -10)), DiagForm((1, 1, 1)))
    # indefinite candidate is rejected outright
    assert not verify_complement(DiagForm((1, 1, 1, -1)), DiagForm((1, 1, -1)))


def test_witness_shape_and_product_identity():
    for coeffs in [(1, 1, 1, -1), (1, 1, 1, -7), (1, 2, 5, -10), (2, 3, 7, -5)]:
        w = complementary_form(DiagForm(coeffs))
        d = 1
        for z in coeffs:
            d *= abs(int(z))
        assert w.d == d
        raw = tuple(int(t) for t in w.qc_raw.coeffs)
        assert raw == (w.x, w.c, w.c * w.d * w.x)
        assert int(w.alpha_beta_gamma) == w.x ** 2 * w.c ** 2 * w.d


def test_random_forms_200():
    rng = random.Random(302)
    isotropic_seen = anisotropic_seen = 0
    from qfbounds.forms import is_isotropic_Q

    for _ in range(200):
        zs = _random_31_form(rng, 30)
        q = DiagForm((zs[0], zs[1], zs[2], -zs[3]))
        w = complementary_form(q)
        assert verify_complement(q, w.qc)
        assert int(w.alpha_beta_gamma) == w.x ** 2 * w.c ** 2 * w.d
        if is_isotropic_Q(q):
            isotropic_seen += 1
        else:
            anisotropic_seen += 1
    # both regimes actually exercised at this seed
    assert isotropic_seen >= 20 and anisotropic_seen >= 20


def test_witness_determinism():
    q = DiagForm((3, 10, 14, -15))
    w1 = complementary_form(q)
    w2 = complementary_form(q)
    assert to_json(w1) == to_json(w2)
    import json

    assert json.dumps(to_json(w1), sort_keys=True) == json.dumps(to_json(w2), sort_keys=True)


def test_complementary_form_rejects_bad_input():
    with pytest.raises(ValueError):
        complementary_form(DiagForm((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        complementary_form(DiagForm((1, 1, -7)))

# ---------------------------------------------------------------------------
# the search


def _square_class_triples(d, limit):
    """Squarefree a <= b <= c, a + b + c <= limit, with a*b*c*d a square,
    by brute force."""
    sqf = [n for n in range(1, limit + 1) if squarefree_int(n) == n]
    out = []
    for i, a in enumerate(sqf):
        for j in range(i, len(sqf)):
            b = sqf[j]
            for c in sqf[j:]:
                if a + b + c > limit:
                    break
                if squarefree_int(a * b * c * d) == 1:
                    out.append((a, b, c))
    return out


def test_search_filter_agrees_with_verify_complement():
    rng = random.Random(303)
    forms = [(1, 2, 5, 10), (1, 1, 1, 7), (1, 1, 1, 1)]
    while len(forms) < 36:
        zs = _random_31_form(rng, 20)
        if len(set(zs)) > 1:
            forms.append(tuple(zs))
    seen = {True: 0, False: 0}
    for zs in forms:
        q = DiagForm((zs[0], zs[1], zs[2], -zs[3]))
        D, targets = _search_targets(q)
        d = zs[0] * zs[1] * zs[2] * zs[3]
        assert squarefree_int(D) == D and squarefree_int(d * D) == 1
        triples = _square_class_triples(d, 60)
        # the enumeration yields exactly these, in any order
        assert sorted(t[1:] for t in _triples(D, 0, 60)) == sorted(triples)
        for a, b, c in triples:
            ok = verify_complement(q, DiagForm((a, b, c)))
            assert _hasse_witt_matches(targets, a, b, c) == ok, (zs, (a, b, c))
            seen[ok] += 1
    assert seen[True] >= 50 and seen[False] >= 50


def test_search_complements_ranked_and_verified():
    q = DiagForm((1, 2, 5, -10))
    found = search_complements(q)
    assert len(found) == SEARCH_KEEP
    assert str(found[0].qc) == "<2,5,10>"
    for w in found:
        assert w.strategy == "search" and w.c is None and w.x is None
        assert w.qc == w.qc_raw and verify_complement(q, w.qc)
    # a prime of d above SEARCH_MAX_SUM divides one of a, b, c, so no
    # window has a triple; the triples with a*b*c = D are tried instead
    found = search_complements(DiagForm((1, 1, 1, -1_000_003)))
    assert [str(w.qc) for w in found] == ["<1,1,1000003>"]
