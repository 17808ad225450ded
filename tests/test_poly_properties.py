"""Property tests of Poly arithmetic against sympy.

The ring operations, evaluation and calculus build their results without
re-validating coefficients, so every result is also checked to be clean:
Fraction coefficients, int exponents, no stored zero.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Poly  # noqa: E402

SU, SV = sp.symbols("u v")

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
scalars = st.one_of(st.integers(-5, 5), rationals)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals,
    max_size=5).map(Poly)

SETTINGS = settings(max_examples=60, deadline=None)


def to_sympy(p: Poly):
    return sum((sp.Rational(c.numerator, c.denominator) * SU ** i * SV ** j
                for (i, j), c in p.terms.items()), sp.Integer(0))


def from_sympy(expr) -> dict:
    expr = sp.expand(expr)
    if expr == 0:
        return {}
    return {(int(i), int(j)): Q(int(c.p), int(c.q))
            for (i, j), c in sp.Poly(expr, SU, SV).as_dict().items()}


def assert_clean(p: Poly, expr):
    for (i, j), c in p.terms.items():
        assert type(i) is int and type(j) is int
        assert type(c) is Q and c != 0
    assert p == Poly(dict(p.terms))
    assert p.terms == from_sympy(expr)


@SETTINGS
@given(polys, polys)
def test_add_sub_neg(p, q):
    assert_clean(p + q, to_sympy(p) + to_sympy(q))
    assert_clean(p - q, to_sympy(p) - to_sympy(q))
    assert_clean(-p, -to_sympy(p))
    assert_clean(p - p, 0)


@SETTINGS
@given(polys, polys, scalars)
def test_mul(p, q, k):
    assert_clean(p * q, to_sympy(p) * to_sympy(q))
    # The cross terms cancel inside the product.
    assert_clean((p + q) * (p - q), to_sympy(p) ** 2 - to_sympy(q) ** 2)
    assert_clean(p * k, to_sympy(p) * k)
    assert_clean(k * p, to_sympy(p) * k)
    assert_clean(p + k, to_sympy(p) + k)


@SETTINGS
@given(polys, st.integers(0, 4))
def test_pow(p, n):
    assert_clean(p ** n, to_sympy(p) ** n)


@SETTINGS
@given(polys, rationals, rationals)
def test_eval(p, u, v):
    expr = to_sympy(p)
    full = p.eval(u=u, v=v)
    assert type(full) is Q
    assert sp.Rational(full.numerator, full.denominator) == \
        expr.subs({SU: u, SV: v})
    assert_clean(p.eval(u=u), expr.subs(SU, u))
    assert_clean(p.eval(v=v), expr.subs(SV, v))
    assert p.eval(u=0, v=0) == p.coefficient(0, 0)


@SETTINGS
@given(polys)
def test_calculus(p):
    expr = to_sympy(p)
    for var, sym in (("u", SU), ("v", SV)):
        assert_clean(p.derivative(var), sp.diff(expr, sym))
        assert_clean(p.antiderivative(var), sp.integrate(expr, sym))


@SETTINGS
@given(polys, st.dictionaries(st.integers(0, 3), rationals, max_size=3))
def test_subs_v(p, repl):
    r = Poly.from_coeffs([repl.get(k, 0) for k in range(4)])
    assert_clean(p.subs_v(r), to_sympy(p).subs(SV, to_sympy(r)))
