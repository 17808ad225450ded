"""Differential test of the action on bidegree-(2,2) forms against sympy:
``act(g, c)`` must be the coefficient map of f((x, y) . g1, (u, v) . g2),
for rational SL2 pairs built from shears and random coefficient maps."""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from invariant_oracles import act  # noqa: E402
from kstab.invariants import GroupElement  # noqa: E402

rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))
x, y, u, v = sp.symbols("x y u v")


def _mul(p, q):
    return tuple(tuple(sum(p[i][t] * q[t][j] for t in range(2))
                       for j in range(2)) for i in range(2))


@st.composite
def sl2(draw):
    """A product of one to four upper and lower shears."""
    g = ((Q(1), Q(0)), (Q(0), Q(1)))
    for _ in range(draw(st.integers(1, 4))):
        s = draw(rationals)
        shear = ((1, s), (0, 1)) if draw(st.booleans()) else ((1, 0), (s, 1))
        g = _mul(g, shear)
    return g


coefficient_maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals)


def _sym(q):
    return sp.Rational(q.numerator, q.denominator)


def _linear(g, s, t):
    """The two entries of the row vector (s, t) . g as sympy polynomials."""
    return [sp.Poly(_sym(g[0][k]) * s + _sym(g[1][k]) * t, x, y, u, v)
            for k in range(2)]


@settings(max_examples=60, deadline=None)
@given(sl2(), sl2(), coefficient_maps)
def test_act_matches_sympy_substitution(g1, g2, c):
    (gx, gy), (gu, gv) = _linear(g1, x, y), _linear(g2, u, v)
    image = sp.Poly(0, x, y, u, v)
    for (i, j), a in c.items():
        image += _sym(a) * gx ** (2 - i) * gy ** i * gu ** (2 - j) * gv ** j
    expected = {}
    for (ex, ey, eu, ev), a in image.terms():
        if a:
            assert ex + ey == 2 and eu + ev == 2
            expected[(ey, ev)] = Q(int(a.p), int(a.q))
    got = act(GroupElement.of(g1, g2), c)
    assert all(type(a) is Q for a in got.values())
    assert got == expected
