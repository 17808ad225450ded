"""Property test of polytope_barycenter on simplices with extra points.

A simplex's barycenter is the mean of its four vertices.  Convex
combinations of the vertices (on an edge, on a facet or inside) lie in the
hull and must not move it, wherever they fall in the input order.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.toric import polytope_barycenter  # noqa: E402

coords = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
points = st.tuples(coords, coords, coords)


def _volume6(simplex):
    o, *rest = simplex
    (a, b, c) = ([x - y for x, y in zip(p, o)] for p in rest)
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


simplices = st.lists(points, min_size=4, max_size=4).filter(_volume6)
# Weights with one, two, three or four nonzero entries put a point on a
# vertex, an edge, a facet or inside.
weights = st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any)


@settings(max_examples=100, deadline=None)
@given(simplices, st.lists(weights, min_size=1, max_size=4), st.randoms())
def test_simplex_with_extra_points(simplex, extra, rng):
    cloud = list(simplex)
    for w in extra:
        cloud.append(tuple(sum(Q(wi, sum(w)) * p[k]
                               for wi, p in zip(w, simplex))
                           for k in range(3)))
    rng.shuffle(cloud)
    result = polytope_barycenter(cloud)
    assert result == tuple(sum(p[k] for p in simplex) / 4 for k in range(3))
    assert all(type(x) is Q for x in result)
