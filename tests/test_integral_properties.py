"""Differential tests of the exact integrals against sympy.

``definite_integral``, ``piecewise_integral`` and ``double_integral`` are
checked on random polynomials against ``sympy.integrate``; the piecewise
case goes through a sympy ``Piecewise``, and the double integral uses
inner bounds whose width is affine or quadratic in u and nonnegative on
the outer interval.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import (ContinuityWarning, Interval,  # noqa: E402
                             PiecewisePolynomial, Poly, definite_integral,
                             double_integral, piecewise_integral)

SU, SV = sp.symbols("u v")

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
nonnegative = st.builds(Q, st.integers(0, 9), st.integers(1, 5))
u_polys = st.lists(rationals, max_size=5).map(Poly.from_coeffs)
uv_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals,
    max_size=5).map(Poly)
intervals = st.lists(rationals, min_size=2, max_size=2, unique=True).map(
    lambda xs: Interval(*sorted(xs)))

SETTINGS = settings(max_examples=25, deadline=None)


def to_sympy(p: Poly):
    return sum((sp.Rational(c.numerator, c.denominator) * SU ** i * SV ** j
                for (i, j), c in p.terms.items()), sp.Integer(0))


def sym(q: Q):
    return sp.Rational(q.numerator, q.denominator)


def to_fraction(expr) -> Q:
    assert expr.is_Rational
    return Q(int(expr.p), int(expr.q))


@SETTINGS
@given(u_polys, intervals)
def test_definite_integral(p, iv):
    want = sp.integrate(to_sympy(p), (SU, sym(iv.lo), sym(iv.hi)))
    assert definite_integral(p, iv) == to_fraction(want)


@SETTINGS
@given(st.lists(rationals, min_size=2, max_size=5, unique=True),
       st.lists(u_polys, min_size=4, max_size=4))
@pytest.mark.filterwarnings("ignore", category=ContinuityWarning)
def test_piecewise_integral(breaks, polys):
    breaks.sort()
    pieces = [(Interval(lo, hi), p)
              for lo, hi, p in zip(breaks, breaks[1:], polys)]
    f = sp.Piecewise(
        *[(to_sympy(p), (SU >= sym(iv.lo)) & (SU <= sym(iv.hi)))
          for iv, p in pieces], (0, True))
    want = sp.integrate(f, (SU, sym(breaks[0]), sym(breaks[-1])))
    assert piecewise_integral(PiecewisePolynomial(pieces)) == \
        to_fraction(want)


def _check_double(f, lo, width, iv):
    hi = lo + width
    inner = sp.integrate(to_sympy(f), (SV, to_sympy(lo), to_sympy(hi)))
    want = sp.integrate(inner, (SU, sym(iv.lo), sym(iv.hi)))
    assert double_integral(f, lo, hi, iv) == to_fraction(want)


@SETTINGS
@given(uv_polys, st.lists(rationals, max_size=2).map(Poly.from_coeffs),
       nonnegative, nonnegative, intervals)
def test_double_integral_affine_bounds(f, lo, alpha, beta, iv):
    # alpha (u - a) + beta (b - u) is nonnegative on [a, b].
    width = Poly.from_coeffs([beta * iv.hi - alpha * iv.lo, alpha - beta])
    _check_double(f, lo, width, iv)


@SETTINGS
@given(uv_polys, st.lists(rationals, max_size=3).map(Poly.from_coeffs),
       nonnegative, nonnegative, rationals, intervals)
def test_double_integral_quadratic_bounds(f, lo, w0, w2, m, iv):
    # w0 + w2 (u - m)^2 is nonnegative everywhere.
    width = Poly.from_coeffs([w0 + w2 * m * m, -2 * w2 * m, w2])
    _check_double(f, lo, width, iv)
