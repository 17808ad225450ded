"""Property tests of Poly arithmetic against sympy.

The ring operations build their results without re-validating
coefficients, so every result is also checked to be clean: int
numerators with no trailing zero, and Fraction coefficients.  Evaluation
returns the exact value as a Fraction.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Poly  # noqa: E402

SU = sp.symbols("u")

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
scalars = st.one_of(st.integers(-5, 5), rationals)
polys = st.lists(rationals, max_size=6).map(Poly.from_coeffs)

SETTINGS = settings(max_examples=60, deadline=None)


def to_sympy(p: Poly):
    return sum((sp.Rational(c.numerator, c.denominator) * SU ** k
                for k, c in enumerate(p.coeffs())), sp.Integer(0))


def from_sympy(expr) -> dict:
    expr = sp.expand(expr)
    if expr == 0:
        return {}
    return {int(k): Q(int(c.p), int(c.q))
            for (k,), c in sp.Poly(expr, SU).as_dict().items()}


def assert_clean(p: Poly, expr):
    assert all(type(c) is int for c in p.num)
    assert not p.num or p.num[-1] != 0
    assert all(type(c) is Q for c in p.coeffs())
    assert p == Poly.from_coeffs(p.coeffs())
    assert {k: c for k, c in enumerate(p.coeffs()) if c} == from_sympy(expr)


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
    power = Poly.const(1)
    for _ in range(n):
        power = power * p
    assert_clean(power, to_sympy(p) ** n)


@SETTINGS
@given(polys, rationals)
def test_eval(p, u):
    expr = to_sympy(p)
    full = p.eval(u)
    assert type(full) is Q
    assert sp.Rational(full.numerator, full.denominator) == expr.subs({SU: u})
    assert p.eval(0) == p.coefficient(0)

