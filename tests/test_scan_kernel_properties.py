"""Property tests of the integer kernels behind the Zariski scan.

The scan keeps every affine form in (u, v) as an integer triple (a, b, c)
of (a + b*u + c*v) / den and decides signs on these integers.  Each
kernel is checked here against the Fraction arithmetic it replaces, on
random integer triples and on random chambers whose affine walls are in
order at both ends of the u-interval:

* ``Chamber2D.nonnegative(t)`` equals the smallest of t's values at
  the chamber's corners (``toric_surfaces.corners``), compared with 0;
* ``_line(a, b, c)`` equals -(a + b*u) / c, and a + b*u + c*wall(u)
  vanishes at two distinct u, so everywhere, the form being affine;
* a polynomial in u with a u^2 term raises NonAffineFamily wherever a
  family coefficient or a wall is read.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

import toric_surfaces  # noqa: E402
from kstab.exactcore import Interval, Poly  # noqa: E402
from kstab.zariski import (Chamber2D, NonAffineFamily,  # noqa: E402
                           _affine, _affine_family, _line)

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
integers = st.integers(-30, 30)
nonzero = integers.filter(bool)
nonnegative = st.builds(Q, st.integers(0, 9), st.integers(1, 6))
triples = st.tuples(integers, integers, integers)
u_lines = st.lists(rationals, max_size=2).map(Poly.from_coeffs)
U = Poly.from_coeffs([0, 1])

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def chambers(draw):
    """A chamber over [u0, u1] whose walls v_lo <= v_hi hold at both ends:
    the width alpha (u - u0) + beta (u1 - u) is >= 0 there."""
    u0, u1 = sorted(draw(st.lists(rationals, min_size=2, max_size=2,
                                  unique=True)))
    lo = draw(u_lines)
    alpha, beta = draw(nonnegative), draw(nonnegative)
    hi = lo + Poly.from_coeffs([beta * u1 - alpha * u0, alpha - beta])
    return Chamber2D(Interval(u0, u1), lo, hi)


@SETTINGS
@given(chambers(), triples)
@example(Chamber2D(Interval(0, 1), Poly(), U),
         (0, 1, -1))  # u - v, zero on the upper wall
def test_nonnegative_is_the_corner_minimum(ch, t):
    a, b, c = t
    want = min(a + b * u + c * v for u, v in toric_surfaces.corners(ch)) >= 0
    assert ch.nonnegative(t) == want


@SETTINGS
@given(integers, integers, nonzero)
def test_symbolic_wall_is_the_root_line(a, b, c):
    wall = _line(a, b, c)
    assert wall == Poly.from_coeffs([a, b]) * Q(-1, c)
    for u in (0, 1):
        assert a + b * u + c * wall.eval(u) == 0


@SETTINGS
@given(u_lines, nonzero, chambers())
def test_non_affine_forms_are_refused(g, k, ch):
    bent = g + k * U * U
    with pytest.raises(NonAffineFamily):
        _affine(bent)
    with pytest.raises(NonAffineFamily, match="of D is not affine in u"):
        _affine_family({"D": bent}, "family")
    with pytest.raises(NonAffineFamily):
        Chamber2D(ch.u_interval, ch.v_lo, bent).nonnegative((0, 0, 0))
