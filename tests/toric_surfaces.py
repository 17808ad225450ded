"""Smooth complete toric surfaces and their moment polygons, for tests.

A surface is given by its rays v_0, ..., v_{n-1} in counterclockwise
order.  Its torus-invariant curves D_i have D_i^2 = -b_i, where
v_{i-1} + v_{i+1} = b_i v_i, and D_i . D_{i+1} = 1 (Fulton, Introduction
to Toric Varieties, Sec. 2.5).  For a divisor D = sum a_i D_i the moment
polygon is P_D = {m : <m, v_i> >= -a_i}.  For D big, vol(D) = 2 Area(P_D),
and the negative part of its Zariski decomposition has coefficients
N_i = a_i + min over P_D of <m, v_i> (Fulton, Sec. 5.3).

The polygon is cut from a box by exact half-plane clipping, and its area
is the shoelace sum; nothing here imports ``kstab.zariski`` beyond the
lattice record that carries the Gram matrix.

``chamber_forms`` is the one reader of a ``Chamber2D`` for tests.  A
chamber keeps its forms in (u, v) as integers over its scales; here an
affine form is the Fraction triple (a, b, c) of a + b*u + c*v, and a
quadratic form the six Fractions of 1, u, v, u^2, u*v, v^2.  ``value``
evaluates either, ``times`` multiplies two affine forms, and
``numerators`` clears a form's denominators.
"""

import math
from fractions import Fraction as Q
from typing import NamedTuple

from kstab.zariski import SurfaceLattice

BOX = 10 ** 4


def curve_names(rays) -> tuple[str, ...]:
    return tuple(f"D{i}" for i in range(len(rays)))


def self_intersections(rays) -> list[int]:
    """D_i^2 = -b_i with v_{i-1} + v_{i+1} = b_i v_i."""
    n = len(rays)
    out = []
    for i, (x, y) in enumerate(rays):
        (px, py), (qx, qy) = rays[i - 1], rays[(i + 1) % n]
        sx, sy = px + qx, py + qy
        # v_i is primitive, so b_i is the ratio of whichever entry is not 0.
        b = sx // x if x else sy // y
        assert (sx, sy) == (b * x, b * y), (rays, i)
        out.append(-b)
    return out


def lattice(rays) -> SurfaceLattice:
    n = len(rays)
    squares = self_intersections(rays)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = squares[i]
        j = (i + 1) % n
        if j != i:
            gram[i][j] = gram[j][i] = 1
    return SurfaceLattice(curve_names(rays), gram)


def polygon(rays, a) -> list[tuple[Q, Q]]:
    """The vertices of P_D for D = sum a_i D_i, by clipping a box with
    each half-plane <m, v_i> >= -a_i (Sutherland-Hodgman)."""
    pts = [(Q(-BOX), Q(-BOX)), (Q(BOX), Q(-BOX)), (Q(BOX), Q(BOX)),
           (Q(-BOX), Q(BOX))]
    for (x, y), ai in zip(rays, a):
        def side(p):
            return p[0] * x + p[1] * y + ai
        out = []
        for k, p in enumerate(pts):
            q = pts[(k + 1) % len(pts)]
            sp, sq = side(p), side(q)
            if sp >= 0:
                out.append(p)
            if (sp > 0 > sq) or (sp < 0 < sq):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        pts = out
        if not pts:
            return []
    assert all(abs(c) < BOX for p in pts for c in p), "box too small"
    return pts


def area(pts) -> Q:
    """The shoelace area of a convex polygon listed in order."""
    twice = sum((p[0] * q[1] - q[0] * p[1]
                 for p, q in zip(pts, pts[1:] + pts[:1])), Q(0))
    return abs(twice) / 2


def volume(rays, a) -> Q:
    """vol(D) = 2 Area(P_D)."""
    return 2 * area(polygon(rays, a))


def negative_part(rays, a) -> dict[str, Q]:
    """N_i = a_i + min over P_D of <m, v_i>, its nonzero entries by name;
    P_D must not be empty."""
    pts = polygon(rays, a)
    out = {}
    for name, (x, y), ai in zip(curve_names(rays), rays, a):
        n = ai + min(p[0] * x + p[1] * y for p in pts)
        if n:
            out[name] = n
    return out


def corners(chamber) -> list[tuple[Q, Q]]:
    """A chamber's corners (u, v): v_lo then v_hi at u0, then at u1."""
    return [(u, wall.eval(u))
            for u in (chamber.u_interval.lo, chamber.u_interval.hi)
            for wall in (chamber.v_lo, chamber.v_hi)]


def interior_points(chamber):
    """Four points inside a chamber: u at 1/3 and 2/3 of its interval, v
    at 1/4 and 3/4 of the way between its walls there."""
    lo, hi = chamber.u_interval.lo, chamber.u_interval.hi
    for s in (Q(1, 3), Q(2, 3)):
        u = lo + s * (hi - lo)
        v_lo, v_hi = chamber.v_lo.eval(u), chamber.v_hi.eval(u)
        for t in (Q(1, 4), Q(3, 4)):
            yield u, v_lo + t * (v_hi - v_lo)


class ChamberForms(NamedTuple):
    positive: dict  # {curve: triple} for each curve with P_curve != 0
    negative: dict  # {curve: triple} for each curve with N_curve != 0
    pairings: dict  # {curve: triple of P . curve} for every curve
    volume: tuple  # the six coefficients of P^2


def chamber_forms(chamber) -> ChamberForms:
    """A chamber's P, N, P's pairings and volume as Fraction forms."""
    def form(t, den):
        return tuple(Q(x, den) for x in t)

    scale, pden = chamber.scale, chamber.scale * chamber.gram_den
    return ChamberForms(
        {c: form(t, scale) for c, t in zip(chamber.curves, chamber.p)
         if any(t)},
        {s: form(t, scale) for s, t in chamber.n.items() if any(t)},
        {c: form(t, pden) for c, t in zip(chamber.curves, chamber.pv)},
        form(chamber.volume, pden * scale))


def value(form, u, v) -> Q:
    """The value at (u, v) of an affine or a quadratic form."""
    return sum((c * m for c, m in zip(form, (1, u, v, u * u, u * v, v * v))),
               Q(0))


def times(s, t) -> tuple:
    """The quadratic form s * t of two affine forms."""
    (a, b, c), (x, y, z) = s, t
    return (a * x, a * y + b * x, a * z + c * x, b * y, b * z + c * y, c * z)


def numerators(form) -> tuple:
    """A form's integers over its coefficients' least common denominator:
    the same signs, roots and zero lines, as the scan reads them."""
    den = math.lcm(*(Q(c).denominator for c in form))
    return tuple(int(c * den) for c in form)
