"""Property test of the threshold wall against sympy.

The volume c2 * (v - w1(u)) * (v - w2(u)) has the affine roots w1 and w2.
Starting below both roots (c2 > 0) or between them (c2 < 0), the scan's
threshold is the first root it meets, and its wall must be a root of
the volume in v, through the numeric root at the sample: v - wall divides
the volume exactly in sympy's polynomial ring QQ[u, v].
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import (assume, example, given, settings,  # noqa: E402
                        strategies as st)

from kstab.exactcore import Poly  # noqa: E402
from kstab.zariski import _SplitRequest, _vol_threshold  # noqa: E402

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
nonzero = rationals.filter(bool)

su, sv = sp.symbols("u v")


def to_sympy(p: Poly):
    return sum((sp.Rational(c.numerator, c.denominator) * su ** i * sv ** j
                for (i, j), c in p.terms.items()), sp.Integer(0))


@settings(max_examples=80, deadline=None)
@given(nonzero, rationals, rationals, rationals, rationals, rationals)
@example(Q(1), Q(0), Q(1), Q(1), Q(-1), Q(1, 2))  # u and 1 - u cross at 1/2
def test_wall_is_a_sympy_root(c2, a1, b1, a2, b2, ustar):
    v = Poly.var("v")
    w1, w2 = Poly.affine(a1, b1), Poly.affine(a2, b2)
    vol = c2 * (v - w1) * (v - w2)
    r1, r2 = w1.eval(u=ustar, v=0), w2.eval(u=ustar, v=0)
    if c2 > 0:
        v_cur, root = min(r1, r2) - 1, min(r1, r2)
    else:
        assume(r1 != r2)
        v_cur, root = (r1 + r2) / 2, max(r1, r2)
    if r1 == r2 and w1 != w2:
        # Two root lines crossing at the sample: no single affine wall,
        # so the scan is asked to split there.
        with pytest.raises(_SplitRequest) as exc:
            _vol_threshold(vol, ustar, v_cur, None)
        assert exc.value.at == ustar
        return
    r, wall = _vol_threshold(vol, ustar, v_cur, None)
    assert r == root
    assert wall.num.keys() <= {(0, 0), (1, 0)}  # affine in u alone
    assert wall.eval(u=ustar, v=0) == r
    _, rem = sp.div(sp.Poly(to_sympy(vol), sv, su),
                    sp.Poly(sv - to_sympy(wall), sv, su))
    assert rem.is_zero
