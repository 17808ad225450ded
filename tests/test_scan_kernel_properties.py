"""Property tests of the integer kernels behind the Zariski scan.

The scan reads every affine form through ``zariski._affine`` and decides
signs on integer numerators.  Each kernel is checked here against the
Fraction arithmetic it replaces, on random rational affine forms and on
random chambers whose affine walls are in order at both ends of the
u-interval:

* ``Chamber2D.nonnegative(g)`` equals the smallest of g's values at
  ``Chamber2D.corners``, compared with 0;
* ``_line(*_affine(g))`` equals g(u, 0) / -c, and g(u, wall(u)) vanishes
  at two distinct u, so everywhere, g being affine;
* a form with a u*v or u^2 term raises NonAffineFamily wherever it is read;
* ``_vol_threshold`` refuses a volume of degree 3 in v.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Interval, MalformedInput, Poly  # noqa: E402
from kstab.zariski import (Chamber2D, NonAffineFamily,  # noqa: E402
                           _affine, _line, _vol_threshold)

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
nonzero = rationals.filter(bool)
nonnegative = st.builds(Q, st.integers(0, 9), st.integers(1, 6))
affine_forms = st.builds(Poly.affine, rationals, rationals, rationals)
u_lines = st.builds(Poly.affine, rationals, rationals)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def chambers(draw):
    """A chamber over [u0, u1] whose walls v_lo <= v_hi hold at both ends:
    the width alpha (u - u0) + beta (u1 - u) is >= 0 there."""
    u0, u1 = sorted(draw(st.lists(rationals, min_size=2, max_size=2,
                                  unique=True)))
    lo = draw(u_lines)
    alpha, beta = draw(nonnegative), draw(nonnegative)
    hi = lo + Poly.affine(beta * u1 - alpha * u0, alpha - beta)
    return Chamber2D(Interval(u0, u1), lo, hi, {}, {}, (), {}, Poly())


@SETTINGS
@given(chambers(), affine_forms)
@example(Chamber2D(Interval(0, 1), Poly(), Poly.var("u"), {}, {}, (), {},
                   Poly()),
         Poly.var("u") - Poly.var("v"))  # zero on the upper wall
def test_nonnegative_is_the_corner_minimum(ch, g):
    want = min(g.eval(u=u, v=v) for u, v in ch.corners()) >= 0
    assert ch.nonnegative(g) == want


@SETTINGS
@given(rationals, rationals, nonzero)
def test_symbolic_wall_is_the_root_line(a, b, c):
    g = Poly.affine(a, b, c)
    wall = _line(*_affine(g))
    assert wall == Poly.affine(a, b) * (-1 / g.coefficient(0, 1))
    for u in (0, 1):
        assert g.eval(u, wall.eval(u)) == 0


@SETTINGS
@given(affine_forms, nonzero, st.sampled_from([(1, 1), (2, 0), (0, 2)]),
       chambers())
def test_non_affine_forms_are_refused(g, k, term, ch):
    bent = g + Poly({term: k})
    with pytest.raises(NonAffineFamily):
        _affine(bent)
    with pytest.raises(NonAffineFamily):
        ch.nonnegative(bent)
    with pytest.raises(NonAffineFamily):
        _line(*_affine(bent + Poly.var("v")))


@SETTINGS
@given(nonzero, st.lists(rationals, max_size=3), rationals, rationals)
def test_threshold_refuses_a_cubic_volume(k, lower, ustar, v_cur):
    v = Poly.var("v")
    vol = k * v ** 3 + sum((c * v ** j for j, c in enumerate(lower)),
                           Poly())
    with pytest.raises(MalformedInput, match="degree > 2 in v"):
        _vol_threshold(vol, ustar, v_cur, None)
