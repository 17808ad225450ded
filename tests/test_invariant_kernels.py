"""Property tests of the integer kernels of the invariants layer and of
Newton-form interpolation, with sympy and the defining formulas as
oracles."""

import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from invariant_oracles import (_matrix, act, char_poly,  # noqa: E402
                               verify_invariance)
from kstab.exactcore import (InconsistentSamples, Poly,  # noqa: E402
                             interpolate)
from kstab.invariants import (ENUMERATION_BOUND, BoundExceeded,  # noqa: E402
                              InvariantError, coeffs, invariant_dimension,
                              invariant_dimensions, peano_invariants,
                              random_group_element)

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
coefficient_maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals)


def _sym(q):
    return sp.Rational(q.numerator, q.denominator)


@settings(max_examples=60, deadline=None)
@given(coefficient_maps)
@example({})
@example({(1, 1): Q(1)})
def test_peano_is_the_char_poly_of_the_matrix(c):
    j = peano_invariants(c)
    m = _matrix(coeffs(c))
    assert list(j) == char_poly(m)[1:]
    assert all(type(x) is Q for x in j)
    expected = sp.Matrix([[_sym(x) for x in row] for row in m]) \
        .charpoly().all_coeffs()
    assert expected[:2] == [1, 0]
    assert list(j) == [Q(int(x.p), int(x.q)) for x in expected[2:]]


invertible = st.tuples(rationals, rationals, rationals, rationals).filter(
    lambda g: g[0] * g[3] != g[1] * g[2]).map(
    lambda g: ((g[0], g[1]), (g[2], g[3])))


@settings(max_examples=60, deadline=None)
@given(coefficient_maps, invertible, invertible)
@example({(0, 0): Q(1), (1, 1): Q(1), (2, 2): Q(1)},
         ((Q(2), Q(0)), (Q(0), Q(1))), ((Q(1), Q(0)), (Q(0), Q(1))))
def test_integer_invariance_decision_matches_the_fraction_route(c, g1, g2):
    # Any invertible pair, not only SL2 x SL2, so that the decision is
    # also exercised where the invariants change (a scaling multiplies
    # them by powers of the determinants).
    g = SimpleNamespace(g1=g1, g2=g2)
    assert verify_invariance(c, g) == \
        (peano_invariants(act(g, c)) == peano_invariants(c))


def test_integer_invariance_holds_on_sl2_pairs_only():
    rng = random.Random(97)
    for _ in range(50):
        c = {(i, j): Q(rng.randint(-9, 9), rng.randint(1, 4))
             for i in range(3) for j in range(3)}
        assert verify_invariance(c, random_group_element(rng))
    # diag(2, 1) has determinant 2 and multiplies J_k by 2^k.
    c = {(0, 0): Q(1), (0, 1): Q(-2, 3), (1, 1): Q(5, 2), (2, 2): Q(1, 7)}
    g = SimpleNamespace(g1=((2, 0), (0, 1)), g2=((1, 0), (0, 1)))
    before, after = peano_invariants(c), peano_invariants(act(g, c))
    assert after == tuple(2 ** k * j for k, j in zip((2, 3, 4), before))
    assert before != after and not verify_invariance(c, g)


@pytest.mark.parametrize("n", range(ENUMERATION_BOUND + 1))
def test_dimensions_are_the_rows_of_one_table(n):
    assert invariant_dimensions(n) == \
        [invariant_dimension(k) for k in range(n + 1)]


@pytest.mark.parametrize("degree, error", [
    (-1, InvariantError), (ENUMERATION_BOUND + 1, BoundExceeded)])
def test_dimensions_refuse_the_same_degrees(degree, error):
    with pytest.raises(error) as many:
        invariant_dimensions(degree)
    with pytest.raises(error) as one:
        invariant_dimension(degree)
    assert type(many.value) is type(one.value)
    assert str(many.value) == str(one.value)


def _sampled(degree, p, xs):
    return degree, p, [(x, p.eval(x)) for x in xs]


@st.composite
def sampled_polys(draw):
    """A polynomial of degree at most ``degree`` <= 4, sampled in random
    order at distinct, possibly negative and non-integer abscissae, with
    one to three samples more than degree + 1."""
    degree = draw(st.integers(0, 4))
    p = draw(st.lists(rationals, max_size=degree + 1).map(Poly.from_coeffs))
    size = degree + 1 + draw(st.integers(1, 3))
    return _sampled(degree, p, draw(
        st.lists(rationals, min_size=size, max_size=size, unique=True)))


@settings(max_examples=40, deadline=None)
@given(sampled_polys(), st.integers(0, 7))
@example(_sampled(2, Poly.from_coeffs([1, -2, Q(1, 3)]),
                  [Q(5, 2), -3, Q(-1, 3), 0, Q(7, 4)]), 1)
def test_interpolate_overdetermined_samples(case, moved):
    degree, p, pts = case[0], case[1], list(case[2])
    assert interpolate(pts, degree) == p
    assert interpolate(pts[::-1], degree) == p
    u = sp.Symbol("u")
    want = sp.interpolate([(_sym(x), _sym(y)) for x, y in pts], u)
    assert sp.expand(want - sum(_sym(c) * u ** i for i, c
                                in enumerate(p.coeffs()))) == 0
    # Moving any one sample, inside the first degree + 1 or past them,
    # leaves no polynomial of that degree through all of them.
    k = moved % len(pts)
    pts[k] = (pts[k][0], pts[k][1] + 1)
    with pytest.raises(InconsistentSamples):
        interpolate(pts, degree)
