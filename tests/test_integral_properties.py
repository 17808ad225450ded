"""Differential tests of the exact integrals and interpolation against
sympy.

``definite_integral`` is checked on random polynomials against
``sympy.integrate``.  ``piecewise_integral`` and ``double_integral`` are
checked against integrals in sympy's polynomial domain, ``sympy.Poly``
over QQ: the piecewise case piece by piece, and the double integral of
an integrand given by its coefficients in v, each a polynomial in u,
through the composition of the v-antiderivative with the inner bounds,
whose width is affine or quadratic in u and nonnegative on the outer
interval.  ``interpolate`` is checked against
``sympy.interpolate`` on samples of a polynomial of degree at most 4 at
distinct rational abscissae, and must refuse samples moved off it.
``minimum`` is checked on random polynomials in u of degree at most 2
against the smallest value of a sympy polynomial at the endpoints and at
the real roots of its derivative inside the interval.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)

from kstab.exactcore import (InconsistentSamples,  # noqa: E402
                             Interval, MalformedInput, PiecewisePolynomial,
                             Poly, definite_integral, double_integral,
                             interpolate, minimum, piecewise_integral)

SU, SV = sp.symbols("u v")

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
nonnegative = st.builds(Q, st.integers(0, 9), st.integers(1, 5))
u_polys = st.lists(rationals, max_size=5).map(Poly.from_coeffs)
# An integrand in (u, v) as its coefficients of v^0, v^1, ...
in_v = st.lists(st.lists(rationals, max_size=3).map(Poly.from_coeffs),
                max_size=3)
intervals = st.lists(rationals, min_size=2, max_size=2, unique=True).map(
    lambda xs: Interval(*sorted(xs)))

SETTINGS = settings(max_examples=25, deadline=None)


def to_sympy(p: Poly):
    return sum((sp.Rational(c.numerator, c.denominator) * SU ** k
                for k, c in enumerate(p.coeffs())), sp.Integer(0))


def sym(q: Q):
    return sp.Rational(q.numerator, q.denominator)


def to_qq(f: list) -> sp.Poly:
    """sum_j f[j] v^j, each f[j] a Poly in u, as a ``sympy.Poly`` over QQ
    in the generators (v, u); a Poly is read as [Poly]."""
    if isinstance(f, Poly):
        f = [f]
    return sp.Poly.from_dict(
        {(j, i): sp.QQ(c.numerator, c.denominator)
         for j, p in enumerate(f) for i, c in enumerate(p.coeffs())},
        SV, SU, domain=sp.QQ)


def qq_integral(p, iv: Interval) -> Q:
    """The integral over ``iv`` of a ``sympy.Poly`` in (v, u) free of v."""
    anti = p.integrate(SU)
    return to_fraction(anti.eval({SV: 0, SU: sym(iv.hi)})
                       - anti.eval({SV: 0, SU: sym(iv.lo)}))


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
def test_piecewise_integral(breaks, polys):
    breaks.sort()
    pieces = []
    for lo, hi, p in zip(breaks, breaks[1:], polys):
        # Each piece is shifted by a constant to meet the previous one at
        # the join, as a piecewise polynomial must.
        if pieces:
            p = p + (pieces[-1][1].eval(lo) - p.eval(lo))
        pieces.append((Interval(lo, hi), p))
    # The pieces tile [breaks[0], breaks[-1]], so the integral over it is
    # the sum of the integrals of the pieces.
    want = sum((qq_integral(to_qq(p), iv) for iv, p in pieces), Q(0))
    assert piecewise_integral(PiecewisePolynomial(pieces)) == want


def _check_double(f, lo, width, iv):
    hi = lo + width
    anti = to_qq(f).integrate(SV)
    inner = anti.compose(to_qq(hi)) - anti.compose(to_qq(lo))
    assert double_integral(f, lo, hi, iv) == qq_integral(inner, iv)


@SETTINGS
@given(in_v, st.lists(rationals, max_size=2).map(Poly.from_coeffs),
       nonnegative, nonnegative, intervals)
def test_double_integral_affine_bounds(f, lo, alpha, beta, iv):
    # alpha (u - a) + beta (b - u) is nonnegative on [a, b].
    width = Poly.from_coeffs([beta * iv.hi - alpha * iv.lo, alpha - beta])
    _check_double(f, lo, width, iv)


@SETTINGS
@given(in_v, st.lists(rationals, max_size=3).map(Poly.from_coeffs),
       nonnegative, nonnegative, rationals, intervals)
def test_double_integral_quadratic_bounds(f, lo, w0, w2, m, iv):
    # w0 + w2 (u - m)^2 is nonnegative everywhere.
    width = Poly.from_coeffs([w0 + w2 * m * m, -2 * w2 * m, w2])
    _check_double(f, lo, width, iv)


@st.composite
def samples(draw):
    """A polynomial of degree at most ``degree`` <= 4 sampled at
    ``degree`` + 1 + ``extra`` distinct rational abscissae."""
    degree = draw(st.integers(0, 4))
    extra = draw(st.integers(0, 2))
    p = draw(st.lists(rationals, max_size=degree + 1).map(Poly.from_coeffs))
    xs = draw(st.lists(rationals, min_size=degree + 1 + extra,
                       max_size=degree + 1 + extra, unique=True))
    return degree, [(x, p.eval(x)) for x in xs]


@SETTINGS
@given(samples())
def test_interpolate(case):
    degree, pts = case
    want = sp.interpolate([(sym(x), sym(y)) for x, y in pts], SU)
    assert sp.expand(to_sympy(interpolate(pts, degree)) - want) == 0


@SETTINGS
@given(samples().filter(lambda case: len(case[1]) > case[0] + 1),
       st.data())
def test_interpolate_refuses_samples_off_the_polynomial(case, data):
    # With more than degree + 1 samples, moving one of them leaves no
    # polynomial of that degree through all; sympy's interpolant of the
    # moved samples has a higher degree.
    degree, pts = case
    k = data.draw(st.integers(0, len(pts) - 1))
    x, y = pts[k]
    pts[k] = (x, y + data.draw(rationals.filter(bool)))
    moved = sp.interpolate([(sym(x), sym(y)) for x, y in pts], SU)
    assert sp.degree(moved, SU) > degree
    with pytest.raises(InconsistentSamples):
        interpolate(pts, degree)


@SETTINGS
@given(st.lists(rationals, max_size=3).map(Poly.from_coeffs), intervals)
@example(Poly.from_coeffs([Q(1, 2), -8, 16]), Interval(0, 1))  # vertex 1/4
def test_minimum(p, iv):
    poly = sp.Poly(to_sympy(p), SU, domain="QQ")
    lo, hi = sym(iv.lo), sym(iv.hi)
    points = [lo, hi]
    slope = poly.diff(SU)
    if not slope.is_zero:
        points += [x for x in slope.real_roots() if lo <= x <= hi]
    assert minimum(p, iv) == to_fraction(min(poly.eval(x) for x in points))


@pytest.mark.parametrize("p, match", [
    (Poly.from_coeffs([1, 0, 0, 1]), "degree 3"),
], ids=["cubic"])
def test_minimum_refuses_what_it_cannot_certify(p, match):
    with pytest.raises(MalformedInput, match=match):
        minimum(p, Interval(0, 1))
