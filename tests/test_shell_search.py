"""The bounded shell search for isotropic vectors, against the signed
enumeration it replaced."""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from qfbounds.isometry import _shell_first_zero

from conftest import shell_first_zero_spiral

_COEFF = st.integers(1, 40) | st.integers(-40, -1)


@st.composite
def _forms_and_norms(draw):
    rank = draw(st.integers(2, 7))
    rest = draw(st.lists(_COEFF, min_size=rank - 2, max_size=rank - 2))
    pos, neg = draw(st.integers(1, 40)), draw(st.integers(-40, -1))
    cs = draw(st.permutations([pos, neg] + rest))
    n_norm = draw(st.integers(1, 8 if rank <= 4 else 4))
    return cs, n_norm


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_forms_and_norms())
def test_shell_search_matches_signed_enumeration(case):
    cs, n_norm = case
    y = _shell_first_zero(cs, n_norm)
    assert y == shell_first_zero_spiral(cs, n_norm)
    event("zero found" if y is not None else "no zero")
    if y is not None:
        assert sum(c * t * t for c, t in zip(cs, y)) == 0
        assert max(y) == n_norm and min(y) >= 0
