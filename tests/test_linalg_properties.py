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
@given(matrices())
def test_inverse(rows):
    if len(rows) != len(rows[0]):
        return
    inv = _linalg.inverse(rows)
    a = to_sympy(rows)
    if a.rank() < len(rows):
        assert inv is None
    else:
        num, r = inv
        assert type(r) is int and r > 0
        assert all(type(x) is int for row in num for x in row)
        assert to_sympy([[Q(x, r) for x in row] for row in num]) == a.inv()


@SETTINGS
@given(matrices())
def test_echelon_keeps_integer_entries(rows):
    # Every Bareiss division is exact, so integer rows stay integer; a
    # true division written in place of // would leave floats here.
    m, _ = _linalg._integer_form(rows)
    pivots, _ = _linalg._echelon(m)
    assert len(pivots) == to_sympy(rows).rank()
    assert all(type(x) is int for row in m for x in row)
