"""Property test of the Newton-identity characteristic polynomial
against sympy, on random rational square matrices of sizes 1 to 5."""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from invariant_oracles import char_poly  # noqa: E402

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 5))
    return [[draw(rationals) for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_char_poly_matches_sympy(m):
    expected = sp.Matrix(
        [[sp.Rational(x.numerator, x.denominator) for x in row]
         for row in m]).charpoly().all_coeffs()[1:]
    got = char_poly(m)
    assert all(type(c) is Q for c in got)
    assert got == [Q(int(c.p), int(c.q)) for c in expected]
