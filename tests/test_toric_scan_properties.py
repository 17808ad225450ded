"""The parametric surface scan against moment polygons of toric surfaces.

Random smooth toric surfaces: P^2 or a Hirzebruch surface F_a (a <= 3),
then 0-4 blowups, each inserting v_i + v_{i+1} between two adjacent rays.
The family is sum a_i D_i - u D_k - v D_j with a_i in 1..6 and
u in [0, 1].  At interior points of every chamber the scan returns:

* its volume equals 2 Area(P_D), the moment polygon computed in
  ``toric_surfaces`` by exact half-plane clipping, which shares no code
  with ``zariski``;
* its P and N equal ``surface_zariski`` at the same point, and N equals
  the polygon's a_i + min <m, v_i>.

Each example scans once and checks about 12 points; 40 examples per
property keep the module near half a second.
"""

from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import toric_surfaces  # noqa: E402
from kstab.exactcore import Interval, Poly  # noqa: E402
from kstab.zariski import (parametric_surface_zariski,  # noqa: E402
                           surface_zariski)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def toric_families(draw):
    """``(rays, a, j)``: the rays of a toric surface, the coefficients of
    D(u) as affine Polys and the index j of the curve v takes off."""
    base = draw(st.sampled_from(["P2", 0, 1, 2, 3]))
    rays = ([(1, 0), (0, 1), (-1, -1)] if base == "P2"
            else [(1, 0), (0, 1), (-1, base), (0, -1)])
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rays) - 1))
        (x, y), (z, w) = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (x + z, y + w))
    n = len(rays)
    a = [Poly.const(draw(st.integers(1, 6))) for _ in rays]
    k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    a[k] = a[k] - Poly.from_coeffs([0, 1])
    return rays, a, j


def _scan(rays, a, j):
    lat = toric_surfaces.lattice(rays)
    names = toric_surfaces.curve_names(rays)
    return lat, parametric_surface_zariski(lat, dict(zip(names, a)),
                                           {names[j]: -1}, Interval(0, 1))


def _point(a, j, u: Q, v: Q) -> list:
    """The coefficients of D(u) - v D_j."""
    point = [x.eval(u) for x in a]
    point[j] -= v
    return point


def _at(d: dict, u: Q, v: Q) -> dict:
    return {k: x for k, x in ((k, toric_surfaces.value(t, u, v))
                              for k, t in d.items()) if x}


@SETTINGS
@given(toric_families())
def test_chamber_volume_is_twice_the_polygon_area(family):
    rays, a, j = family
    _, chambers = _scan(rays, a, j)
    for ch in chambers:
        volume = toric_surfaces.chamber_forms(ch).volume
        for u, v in toric_surfaces.interior_points(ch):
            assert toric_surfaces.value(volume, u, v) == \
                toric_surfaces.volume(rays, _point(a, j, u, v))


@SETTINGS
@given(toric_families())
def test_chamber_parts_match_the_pointwise_decomposition(family):
    rays, a, j = family
    lat, chambers = _scan(rays, a, j)
    for ch in chambers:
        forms = toric_surfaces.chamber_forms(ch)
        for u, v in toric_surfaces.interior_points(ch):
            point = _point(a, j, u, v)
            p, n = surface_zariski(lat, dict(zip(lat.curves, point)))
            assert _at(forms.positive, u, v) == p
            assert _at(forms.negative, u, v) == n
            assert n == toric_surfaces.negative_part(rays, point)
