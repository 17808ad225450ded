"""Property tests of the surface lattice pairings.

``SurfaceLattice.dot`` contracts one divisor with the per-curve
``pairing`` of the other; it must equal the double sum over the Gram
matrix for Fraction and Poly coefficients alike, and Gram matrices with
many zero entries exercise the zero products.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from kstab.exactcore import Poly  # noqa: E402
from kstab.zariski import SurfaceLattice  # noqa: E402

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
entries = st.one_of(st.just(Q(0)), rationals)
coefficients = st.one_of(
    rationals, st.lists(rationals, max_size=3).map(Poly.from_coeffs))

SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def lattices_and_divisors(draw):
    n = draw(st.integers(1, 5))
    curves = tuple(f"c{i}" for i in range(n))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    keys = draw(st.lists(st.sampled_from(curves), unique=True))
    d = {k: draw(coefficients) for k in keys}
    return SurfaceLattice(curves, gram), d


@SETTINGS
@given(lattices_and_divisors())
def test_dot_is_the_contracted_pairing_vector(data):
    lat, d = data
    naive = sum((c1 * c2 * lat.gram[lat.index(k1)][lat.index(k2)]
                 for k1, c1 in d.items() for k2, c2 in d.items()), Poly())
    assert lat.dot(d, d) == naive
