"""Property tests of the exact linear algebra against sympy.

Matrices are small and rational: square, wide, tall, and rank-deficient
ones built as a product through a narrower inner dimension.  Zero entries
are drawn often so that pivots are skipped and rows swapped.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab import _linalg  # noqa: E402
from kstab.exactcore import Poly  # noqa: E402

entries = st.one_of(st.just(Q(0)),
                    st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))

SETTINGS = settings(max_examples=80, deadline=None)


def _random(draw, nrows, ncols):
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def matrices(draw):
    shape = draw(st.sampled_from(["square", "wide", "tall", "deficient"]))
    n = draw(st.integers(1, 5))
    if shape == "square":
        return _random(draw, n, n)
    m = draw(st.integers(1, 5))
    if shape == "wide":
        return _random(draw, min(n, m), max(n, m) + 1)
    if shape == "tall":
        return _random(draw, max(n, m) + 1, min(n, m))
    k = draw(st.integers(0, min(n, m) - 1))
    left, right = _random(draw, n, k), _random(draw, k, m)
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Q(0))
             for j in range(m)] for i in range(n)]


def to_sympy(rows):
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                      for row in rows])


def apply(rows, x):
    return [sum((a * b for a, b in zip(row, x) if a), Q(0)) for row in rows]


@SETTINGS
@given(matrices())
def test_rank_and_det(rows):
    a = to_sympy(rows)
    assert _linalg.rank(rows) == a.rank()
    if len(rows) == len(rows[0]):
        assert _linalg.det(rows) == Q(str(a.det()))
    else:
        with pytest.raises(ValueError):
            _linalg.det(rows)


@SETTINGS
@given(matrices(), st.data())
def test_solve(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        rhs = apply(rows, [data.draw(entries) for _ in range(ncols)])
    else:
        rhs = [data.draw(entries) for _ in rows]
    x = _linalg.solve(rows, rhs)
    a = to_sympy(rows)
    augmented = a.row_join(to_sympy([[b] for b in rhs]))
    assert (x is None) == (augmented.rank() > a.rank())
    if x is not None:
        assert len(x) == ncols
        assert all(isinstance(c, Q) for c in x)
        assert apply(rows, x) == rhs


@SETTINGS
@given(matrices(), st.data())
def test_solve_with_poly_rhs(rows, data):
    u, v = Poly.var("u"), Poly.var("v")
    x0 = [data.draw(entries) * u + data.draw(entries) * v + data.draw(entries)
          for _ in rows[0]]
    rhs = [sum((a * p for a, p in zip(row, x0)), Poly()) for row in rows]
    x = _linalg.solve(rows, rhs)
    assert x is not None
    assert [sum((a * p for a, p in zip(row, x)), Poly()) for row in rows] \
        == rhs
    if _linalg.rank(rows) < len(rows):
        # y.A = 0 for a left-kernel vector y; moving b off y.b = 0 makes
        # the system inconsistent.
        y = to_sympy(rows).T.nullspace()[0]
        i = next(i for i in range(len(y)) if y[i] != 0)
        bad = list(rhs)
        bad[i] = bad[i] + u
        assert _linalg.solve(rows, bad) is None



@SETTINGS
@given(matrices())
def test_inverse(rows):
    if len(rows) != len(rows[0]):
        return
    inv = _linalg.inverse(rows)
    a = to_sympy(rows)
    if a.rank() < len(rows):
        assert inv is None
    else:
        assert all(isinstance(x, Q) for row in inv for x in row)
        assert to_sympy(inv) == a.inv()
