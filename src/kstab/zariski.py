"""Zariski decompositions, exact and parametric.

Three layers:

* ``surface_zariski`` -- the classical iterative decomposition of a single
  divisor on a surface given by a named curve basis and its Gram matrix.
* ``parametric_surface_zariski`` -- chamber discovery for a divisor family
  D(u) + v * direction, D affine in the outer parameter ``u`` and the
  direction a fixed divisor that the inner parameter ``v`` scales.  The
  scan runs at an exact rational sample of ``u`` from v = 0 to the
  pseudoeffective threshold, where the volume of P vanishes; it re-solves
  each chamber symbolically and splits the ``u``-interval where walls cross.
* ``threefold_chamber_volume`` -- verification (not discovery), in ``int``,
  of supplied chamber decompositions on threefold models, N proved the
  negative part, returning the exact piecewise-cubic volume function.

Affinity is an invariant, checked once where a family enters the engine:
``_affine_family`` lifts every coefficient to a Poly in u and raises
``NonAffineFamily`` for a term in u^2 or higher.  Solving the support
system is linear, so positive parts, negative parts and pairings stay
affine in (u, v), every wall is a line v = a + b*u, and the volume P^2
has total degree 2.  A chamber {u0 <= u <= u1, v_lo(u) <= v <= v_hi(u)}
is then a convex polygon, and by the corner lemma a sign check at its
four corners is a proof.  So every sign claim on a chamber goes through
``Chamber2D.nonnegative``, and every sign claim on an interval (a volume
before the next wall, a threefold negative part) through the exact sign
oracle ``exactcore.minimum``.

Both surface layers run on integers, and this module and its one other
reader, ``functionals``, know how a form in (u, v) is stored.  An affine
form is an integer triple (a, b, c), read as (a + b*u + c*v) / den over
some den > 0, so at a point (x, y) / d its sign is that of
a*d + b*x + c*y, and its zero line does not depend on den.  A quadratic
form, a volume or a flag integrand, is the six integers of
``_quadratic``, a sum of products of triples, and ``_in_v`` gives its
coefficients in v as Polys in u.  ``_triples`` reads a family once as
triples over one common den.  ``SurfaceLattice`` reads its Gram matrix
once as sparse integer rows G over one denominator g
(``_linalg._integer_form``), and every pairing goes through them: the
solve caches per support block G_S the pair (R, r) of
``_linalg.inverse``, R integer and r > 0 with G_S R = r I, and
``_is_negative_definite`` reads G_S's leading minors.  From these
``_parts`` gives N and P over den*r and P's pairing vector over den*r*g
as integer sums, for ``_decompose``, the scan and ``_family_square``.
A ``Chamber2D`` keeps these triples and its volume's six integers; the
verifier and ``functionals`` read them, and only the walls are Polys, in
u.  ``_vol_threshold`` reads the volume's six integers directly: the
volume at the sample, the slope of the root line and the proof that P^2
vanishes on it are integer sums.

Each lattice curve carries one affine constraint (``_constraints``): its
coefficient in N if it is in the support, its pairing with P if not.  The
scan raises v until a constraint falls to 0; that line is the next wall,
and every curve whose constraint falls there toggles in or out of the
support.  ``_verify_chambers`` proves the same constraints nonnegative.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property

from . import KstabError, _Record, _linalg
from .exactcore import (Interval, PiecewisePolynomial, Poly, minimum, rat,
                        rat_str, sqrt_rat)
from .toric import ToricModel


class ZariskiError(KstabError):
    pass


class NoConvergence(ZariskiError):
    """A decomposition or a chamber scan that cannot be carried through."""


class WallDegeneracy(ZariskiError):
    """Two chamber walls coincide in a way the scan cannot separate."""


class Unbounded(ZariskiError):
    """The family never leaves the big cone (no threshold exists)."""


class IrrationalThreshold(ZariskiError):
    """The volume vanishes at an irrational parameter value."""


class NefViolation(ZariskiError):
    pass


class DecompositionMismatch(ZariskiError):
    pass


class NonAffineFamily(ZariskiError):
    """A family coefficient with a term in u^2 or higher."""


class MalformedLattice(ZariskiError):
    """A Gram matrix that is not square over the curve list, or not
    symmetric."""


class NegativeDefiniteSupportWarning(UserWarning):
    """The support of the negative part has a Gram matrix that is not
    negative definite; the decomposition is reported anyway."""


class _SplitRequest(Exception):
    def __init__(self, at: Fraction):
        self.at = at


class SurfaceLattice(_Record, frozen=True):
    """A surface intersection lattice: named curves plus their Gram matrix.

    Construction checks ``gram`` and builds a name -> index map and, per
    curve, the sparse row of the nonzero integers of g * Gram, g the least
    common denominator; every pairing in the engine reads these rows, and
    ``gram`` is not read again.  ``_inverses`` caches, per support,
    ``_support_inverse``'s (R, r) of that integer support block; it lives
    and dies with the instance.
    """

    curves: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.curves)
        g = tuple(tuple(rat(x) for x in row) for row in self.gram)
        if len(g) != n or any(len(row) != n for row in g):
            raise MalformedLattice(
                "Gram matrix shape does not match curve list")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise MalformedLattice("Gram matrix is not symmetric")
        rows, gden = _linalg._integer_form(g)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_index",
                           {c: i for i, c in enumerate(self.curves)})
        object.__setattr__(self, "_gram_den", gden)
        object.__setattr__(self, "_int_rows", tuple(
            tuple((j, x) for j, x in enumerate(row) if x) for row in rows))
        object.__setattr__(self, "_inverses", {})

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ZariskiError(f"lattice has no curve named {name!r}")


def _is_negative_definite(lat: SurfaceLattice, support: list[str]) -> bool:
    """Whether the support block's leading minors alternate -, +, ...,
    read on g * G_S, whose k-th minor is G_S's times g^k > 0."""
    block = _block(lat, support)
    return all((-1) ** k * _linalg.det([row[:k] for row in block[:k]]) > 0
               for k in range(1, len(block) + 1))


_ZERO = (0, 0, 0)


def _affine(q: Poly) -> tuple[int, int]:
    """The integers (a, b) with q = (a + b*u) / q.den, q.den > 0; a term
    in u^2 or higher raises NonAffineFamily, so no form is misread."""
    if len(q.num) > 2:
        raise NonAffineFamily(f"{q!r} is not affine in u")
    return (q.num + (0, 0))[:2]


def _triples(lat: SurfaceLattice, d: dict[str, Poly],
             direction: dict[str, Fraction]):
    """The forms d(u) + v * direction, d affine in u, as integer triples
    over one common den > 0, listed in lattice order, and den; an unknown
    curve raises ZariskiError."""
    direction = {k: rat(c) for k, c in direction.items()}
    den = math.lcm(*(q.den for q in d.values()),
                   *(c.denominator for c in direction.values()))
    vec = [_ZERO] * len(lat.curves)
    for k, q in d.items():
        m = den // q.den
        a, b = _affine(q)
        vec[lat.index(k)] = (a * m, b * m, 0)
    for k, c in direction.items():
        i = lat.index(k)
        a, b, _ = vec[i]
        vec[i] = (a, b, c.numerator * (den // c.denominator))
    return vec, den


def _pair(row, vec) -> tuple[int, int, int]:
    """The triple sum of x * vec[j] over a sparse row of (j, x)."""
    a = b = c = 0
    for j, x in row:
        p, q, r = vec[j]
        a += x * p
        b += x * q
        c += x * r
    return a, b, c


def _block(lat: SurfaceLattice, support: list[str]) -> list[list[int]]:
    """The integer Gram block g * G_S on ``support``, from ``_int_rows``."""
    idx = [lat.index(s) for s in support]
    rows = [dict(lat._int_rows[i]) for i in idx]
    return [[row.get(j, 0) for j in idx] for row in rows]


def _support_inverse(lat: SurfaceLattice, support: list[str]):
    """``(R, r)`` from ``_linalg.inverse`` of the integer Gram block G_S
    on ``support``: R integer and r > 0 with G_S R = r I, cached on
    ``lat``.

    A singular block raises NoConvergence on every call and is never
    stored.
    """
    key = tuple(support)
    inv = lat._inverses.get(key)
    if inv is None:
        inv = _linalg.inverse(_block(lat, support))
        if inv is None:
            raise NoConvergence(f"singular Gram submatrix for {support}")
        lat._inverses[key] = inv
    return inv


def _parts(lat: SurfaceLattice, vec: list, support: list[str]):
    """``(p, n, pv, r)`` for the divisor vec / den with N on ``support``:
    N as ``{s: n_s}`` and P = vec - N as a list, both integer triples over
    den * r, and P's pairing vector pv over den * r * g.

    With y_t = sum_i vec_i G_it, (vec / den) . t = y_t / (den g), and the
    support block of the Gram matrix is G_S / g, so N = R y / (r den).
    """
    n, r = {}, 1
    index = lat._index
    if support:
        rows, r = _support_inverse(lat, support)
        ys = [_pair(lat._int_rows[index[s]], vec) for s in support]
        n = {s: _pair(enumerate(row), ys) for s, row in zip(support, rows)}
    p = [(a * r, b * r, c * r) for a, b, c in vec] if r != 1 else list(vec)
    for s, (a, b, c) in n.items():
        i = index[s]
        x, y, z = p[i]
        p[i] = (x - a, y - b, z - c)
    return p, n, [_pair(row, p) for row in lat._int_rows], r


def _decompose(lat: SurfaceLattice, vec: list, den: int):
    """``(p, n, r)``: P's triples and N's nonzero numerators {s: n_s}
    over den * r for vec / den, vec constant triples (a, 0, 0).  Curves
    pairing negatively with P join the support until none does; each
    round adds one, so at most len(curves) + 1 rounds run."""
    support: list[str] = []
    while True:
        p, n, pv, r = _parts(lat, vec, support)
        negatives = [c for c, t in zip(lat.curves, pv)
                     if c not in support and t[0] < 0]
        if not negatives:
            break
        support.extend(negatives)
    if any(t[0] < 0 for t in n.values()):
        coeffs = {s: Fraction(t[0], den * r) for s, t in n.items()}
        raise NoConvergence(
            f"negative part has a negative coefficient: {coeffs}")
    n = {s: t[0] for s, t in n.items() if t[0]}
    if n and not _is_negative_definite(lat, list(n)):
        warnings.warn(
            f"support {sorted(n)} is not negative definite",
            NegativeDefiniteSupportWarning, stacklevel=3)
    return p, n, r


def surface_zariski(lat: SurfaceLattice, d: dict) -> tuple[dict, dict]:
    """Zariski decomposition d = P + N on a surface, by ``_decompose``."""
    vec, den = _triples(lat, {k: Poly.const(rat(v)) for k, v in d.items()},
                        {})
    p, n, r = _decompose(lat, vec, den)
    p = {c: Fraction(t[0], den * r) for c, t in zip(lat.curves, p) if t[0]}
    return p, {s: Fraction(x, den * r) for s, x in n.items()}


def _affine_family(d: dict, what: str) -> dict[str, Poly]:
    """``d`` with every coefficient lifted to a Poly and checked affine in
    u; a term in u^2 or higher raises NonAffineFamily."""
    out = {k: Poly.const(c) for k, c in d.items()}
    for k, p in out.items():
        if len(p.num) > 2:
            raise NonAffineFamily(
                f"{what}: coefficient {p!r} of {k} is not affine in u")
    return out


class Chamber2D(_Record):
    """One chamber of a parametric surface decomposition: the region
    ``u in u_interval``, ``v_lo(u) <= v <= v_hi(u)`` between affine walls,
    and the scan's integers: P as triples over ``scale`` in the lattice
    order ``curves``, N as {s: n_s} over ``scale`` keyed by the support,
    P's pairing vector ``pv`` over ``scale * gram_den``, and the volume
    P^2 as ``_quadratic``'s six integers over ``gram_den * scale**2``."""

    u_interval: Interval
    v_lo: Poly
    v_hi: Poly
    volume: tuple = (0,) * 6
    curves: tuple[str, ...] = ()
    scale: int = 1
    gram_den: int = 1
    p: list = []
    n: dict = {}
    pv: list = []

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.n)

    def nonnegative(self, t: tuple[int, int, int]) -> bool:
        """Whether the form (a + b*u + c*v) / den of the integer triple
        ``t`` = (a, b, c), any den > 0, is >= 0 on the whole chamber.

        Corner lemma: once v_lo <= v_hi at u0 and at u1, the chamber is
        the convex hull of its four corners, because its walls are lines.
        A function affine in (u, v) attains its minimum over a convex
        polygon at a corner.
        """
        return _negative_corner(self._corner_points, *t) is None

    @cached_property
    def _corner_points(self) -> list:
        """The corners (u, v), v_lo then v_hi at u0, then at u1, as integer
        points (x, y, z), x > 0, with (u, v) = (y/x, z/x), each with its
        wall (w0, w1, wd): at u = p/q on the wall (w0 + w1*u) / wd the
        corner is (q*wd, p*wd, w0*q + w1*p)."""
        walls = [(_affine(w), w.den) for w in (self.v_lo, self.v_hi)]
        return [((q * wd, p * wd, w0 * q + w1 * p), (w0, w1, wd))
                for p, q in ((u.numerator, u.denominator)
                             for u in (self.u_interval.lo, self.u_interval.hi))
                for (w0, w1), wd in walls]


def _negative_corner(points: list, a: int, b: int, c: int):
    """The wall of the first of ``Chamber2D._corner_points`` at which
    (a + b*u + c*v) / den is negative, read as the sign of a*x + b*y + c*z,
    or None."""
    for (x, y, z), wall in points:
        if a * x + b * y + c * z < 0:
            return wall
    return None


def _line(a: int, b: int, c: int) -> Poly:
    """The line v = -(a + b*u) / c on which the affine form
    (a + b*u + c*v) / den vanishes, whatever den > 0; c != 0."""
    sign = -1 if c > 0 else 1
    return Poly._of([sign * a, sign * b], abs(c))


def _vol_threshold(vol: tuple, ustar: Fraction, v_cur: Fraction,
                   limit: Fraction | None) -> tuple[Fraction, Poly] | None:
    """Smallest v >= v_cur with vol = 0, as (numeric, symbolic wall).

    Returns None when the volume stays positive up to ``limit`` (or
    forever when limit is None and the quadratic never vanishes).  The
    wall is the line through the root (ustar, r) with the slope
    -d_u vol / d_v vol there, or, at a double root, the line d_v vol = 0.
    It is accepted only if vol vanishes on it identically.  A double root
    at ustar on which vol does not vanish means two root lines, rational
    or not, cross there: it raises _SplitRequest(ustar), so the scan
    samples each half.  Any other root not affine in u raises
    IrrationalThreshold.

    ``vol`` is the six integers k_ij of vol = sum k_ij u^i v^j / den, any
    den > 0, in ``_quadratic``'s order.  At ustar = su/sq, c0, c1, c2
    are sq^2 den times vol's coefficients in v, so signs and roots are vol's;
    the partials at the root come from the k_ij too.  vol vanishes on a
    line (a + b*u + c*v) = 0 iff c^2 vol(u, -(a + b*u) / c) = 0, three
    integer identities, one per power of u.
    """
    k00, k10, k01, k20, k11, k02 = vol
    su, sq = ustar.numerator, ustar.denominator
    c0 = (k00 * sq + k10 * su) * sq + k20 * su * su
    c1 = (k01 * sq + k11 * su) * sq
    c2 = k02 * sq * sq
    p, q = v_cur.numerator, v_cur.denominator

    if c2 == 0 and c1 == 0:
        if c0 == 0:
            return v_cur, Poly.const(v_cur)
        return None
    value = c2 * p * p + c1 * p * q + c0 * q * q
    if value == 0:
        if 2 * c2 * p + c1 * q <= 0:
            return v_cur, Poly.const(v_cur)
        raise NoConvergence("volume vanishes then grows; bad family")
    if value < 0:
        raise NoConvergence("negative volume inside a chamber")

    s = sqrt_rat(c1 * c1 - 4 * c2 * c0)
    if s is None:
        # No rational root, so the volume is quadratic.  Positive at v_cur,
        # it must stay positive up to the limit.  With no limit, a concave
        # volume falls without bound, and a convex one is smallest at
        # max(v_cur, vertex).
        hi = limit
        if hi is None and c2 > 0:
            hi = max(v_cur, Fraction(-c1, 2 * c2))
        if hi is None or minimum(Poly._of([c0, c1, c2], 1),
                                 Interval(v_cur, hi)) <= 0:
            raise IrrationalThreshold(
                "volume vanishes at an irrational parameter")
        return None
    s = s.numerator
    roots = [x for x in ([Fraction(-c0, c1)] if c2 == 0 else
                         [Fraction(-c1 + s, 2 * c2),
                          Fraction(-c1 - s, 2 * c2)])
             if x > v_cur]
    if not roots or (limit is not None and min(roots) > limit):
        return None
    r = min(roots)

    # d_v vol and d_u vol at (ustar, r) = (su/sq, rp/rq), times sq rq den.
    rp, rq = r.numerator, r.denominator
    dv = (k01 * sq + k11 * su) * rq + 2 * k02 * rp * sq
    du = (k10 * sq + 2 * k20 * su) * rq + k11 * rp * sq
    if dv:
        # The tangent du (u - su/sq) + dv (v - rp/rq) = 0, times sq rq.
        a, b, c = -(du * su * rq + dv * rp * sq), du * sq * rq, dv * sq * rq
    else:
        a, b, c = k01, k11, 2 * k02
    if (k00 * c * c - k01 * a * c + k02 * a * a
            or k10 * c * c - (k01 * b + k11 * a) * c + 2 * k02 * a * b
            or k20 * c * c - k11 * b * c + k02 * b * b):
        if not dv:
            # A double root off the wall: two root lines cross at ustar,
            # and the threshold may be affine on each side of it.
            raise _SplitRequest(ustar)
        raise IrrationalThreshold("threshold is not affine in u")
    return r, _line(a, b, c)


def _constraints(curves, n: dict, pv) -> list:
    """Per lattice curve (curve, triple), nonnegative exactly on the chamber:
    its coefficient in N if it is in the support, ``n``'s keys, else P . c."""
    return [(c, n.get(c, t)) for c, t in zip(curves, pv)]


def _quadratic(xs: list, ys: list) -> tuple:
    """sum_i x_i y_i over triples x_i, y_i of affine forms, as the six
    integers (k00, k10, k01, k20, k11, k02) of sum k_ij u^i v^j; P^2 is
    sum_i P_i (P . C_i), the triples of P and of its pairing vector."""
    k00 = k10 = k01 = k20 = k11 = k02 = 0
    for (a, b, c), (x, y, z) in zip(xs, ys):
        k00 += a * x
        k10 += a * y + b * x
        k01 += a * z + c * x
        k20 += b * y
        k11 += b * z + c * y
        k02 += c * z
    return k00, k10, k01, k20, k11, k02


def _in_v(k: tuple, den: int) -> tuple[Poly, Poly, Poly]:
    """``_quadratic``'s six integers ``k`` over ``den`` as the form's
    coefficients of v^0, v^1 and v^2, polynomials in u: the integrand of
    ``exactcore.double_integral``."""
    k00, k10, k01, k20, k11, k02 = k
    return (Poly._of([k00, k10, k20], den), Poly._of([k01, k11], den),
            Poly._of([k02], den))


def _family_square(lat: SurfaceLattice, family: dict) -> Poly:
    """D(u)^2 as a Poly in u, D affine in u: ``_quadratic`` of D's triples
    and its pairing vector, ``_parts`` with no support, over den^2 g."""
    vec, den = _triples(lat, _affine_family(family, "family"), {})
    return _in_v(_quadratic(vec, _parts(lat, vec, [])[2]),
                 den * den * lat._gram_den)[0]


def parametric_surface_zariski(lat: SurfaceLattice, family: dict[str, Poly],
                               direction: dict[str, Fraction],
                               u_interval: Interval,
                               _depth: int = 0) -> list[Chamber2D]:
    """Chamber decomposition of D(u) + v * direction over ``u_interval``.

    ``family`` maps curve names to the coefficients of D(u), polynomials
    affine in u, and ``direction`` maps curve names to rationals.
    Scanning starts at v = 0 and stops at the pseudoeffective threshold,
    i.e. where the volume of the positive part first vanishes; a family
    that stays big raises Unbounded.
    The u-interval is split wherever two walls cross inside it, and
    wherever a constraint changes sign along a wall (``_verify_chambers``).
    """
    if _depth > 12:
        raise NoConvergence("chamber recursion too deep")
    family = _affine_family(family, "family")
    try:
        chambers = _scan(lat, family, direction, u_interval)
        _verify_chambers(chambers)
        return chambers
    except _SplitRequest as req:
        at = req.at
        if not (u_interval.lo < at < u_interval.hi):
            raise WallDegeneracy(
                f"cannot separate walls at u = {rat_str(at)}")
        left = parametric_surface_zariski(
            lat, family, direction, Interval(u_interval.lo, at), _depth + 1)
        right = parametric_surface_zariski(
            lat, family, direction, Interval(at, u_interval.hi), _depth + 1)
        return left + right


def _scan(lat: SurfaceLattice, family: dict[str, Poly],
          direction: dict[str, Fraction],
          u_interval: Interval) -> list[Chamber2D]:
    vec, den = _triples(lat, family, direction)
    curves, gram_den = lat.curves, lat._gram_den
    ustar = u_interval.midpoint()
    su, sq = ustar.numerator, ustar.denominator
    _, n0, _ = _decompose(
        lat, [(a * sq + b * su, 0, 0) for a, b, _ in vec], den * sq)
    support = [c for c in curves if c in n0]
    v_cur = Fraction(0)
    wall_cur = Poly()
    chambers: list[Chamber2D] = []
    for _ in range(6 * len(curves) + 12):
        p, n, pv, r = _parts(lat, vec, support)
        # The sample (ustar, v_cur) as integers (x, y) / d.
        d = sq * v_cur.denominator
        x = su * v_cur.denominator
        y = v_cur.numerator * sq
        # An event is a constraint (a + b*u + c*v) / den falling to 0 at
        # the sample; its curve enters or leaves the support there.
        events: list[tuple[Fraction, str, tuple[int, int, int]]] = []
        for curve, t in _constraints(curves, n, pv):
            a, b, c = t
            val = a * d + b * x + c * y
            if val < 0:
                raise NoConvergence(
                    f"constraint of {curve} negative inside a chamber")
            if c < 0:
                events.append((Fraction(a * d + b * x, -c * d), curve, t))
            elif val == 0 and c == 0 and b != 0 and curve not in support:
                raise _SplitRequest(ustar)
        scale = den * r
        vol = _quadratic(p, pv)
        next_wall = min((e[0] for e in events), default=None)
        threshold = _vol_threshold(vol, ustar, v_cur, next_wall)
        last = threshold is not None and (next_wall is None
                                          or threshold[0] <= next_wall)
        if last:
            end, wall_sym = threshold
        elif next_wall is None:
            raise Unbounded("family stays big: no wall and no threshold")
        else:
            triggers = {c: t for v, c, t in events if v == next_wall}
            wall_sym, *others = {_line(*t) for t in triggers.values()}
            end = next_wall
            if others or (end == v_cur and wall_sym != wall_cur):
                raise _SplitRequest(ustar)
        if end > v_cur:
            chambers.append(Chamber2D(u_interval, wall_cur, wall_sym, vol,
                                      curves, scale, gram_den, p, n, pv))
        if last:
            return chambers
        # Each trigger toggles its own curve, so the support changes.
        support = [c for c in curves if (c in support) != (c in triggers)]
        v_cur = end
        wall_cur = wall_sym
    raise NoConvergence("wall scan did not terminate")


def _verify_chambers(chambers: list[Chamber2D]):
    """Corner checks, in integers: wall order on every chamber, then
    orthogonality and the sign of every constraint (``_constraints``).

    The width v_hi - v_lo is (k0 + k1*u) / (lo.den * hi.den), so the
    signs of k0*q + k1*p at the two ends u = p/q decide it; a width
    negative at one end only means the walls cross inside the u-interval,
    and the scan splits where it vanishes, u = -k0/k1.  Until every
    chamber's walls are in order, a corner may lie off the true region,
    so no corner sign is read before that.

    Every constraint is affine, so ``Chamber2D.nonnegative`` proves its
    sign on the whole chamber from the four corners.  A constraint
    negative at a corner asks for a split instead of failing.  The scan
    proved it nonnegative along the sample segment u = u* between the
    walls, so along the wall through that corner, (w0 + w1*u) / wd, it
    changes sign between the corner and u*: its integers (a, b, c) vanish
    there at u = -(a*wd + c*w0) / (b*wd + c*w1), strictly inside the
    u-interval, and each side is scanned afresh.  NoConvergence stays for
    the case where no such u exists.
    """
    for ch in chambers:
        (_, (l0, l1, ld)), (_, (h0, h1, hd)) = ch._corner_points[:2]
        k0, k1 = h0 * ld - l0 * hd, h1 * ld - l1 * hd
        s0, s1 = (k0 * u.denominator + k1 * u.numerator
                  for u in (ch.u_interval.lo, ch.u_interval.hi))
        if s0 < 0 or s1 < 0:
            if s0 <= 0 and s1 <= 0:
                raise WallDegeneracy("walls in the wrong order on "
                                     f"the whole of {ch.u_interval}")
            raise _SplitRequest(Fraction(-k0, k1))
    for ch in chambers:
        for curve, t in zip(ch.curves, ch.pv):
            if curve in ch.n and any(t):
                raise NoConvergence(f"orthogonality failed for {curve}")
        for curve, (a, b, c) in _constraints(ch.curves, ch.n, ch.pv):
            wall = _negative_corner(ch._corner_points, a, b, c)
            if wall is None:
                continue
            w0, w1, wd = wall
            slope = b * wd + c * w1
            if slope:
                at = Fraction(-(a * wd + c * w0), slope)
                if ch.u_interval.lo < at < ch.u_interval.hi:
                    raise _SplitRequest(at)
            raise NoConvergence(
                f"constraint of {curve} negative at a chamber corner")


# -- threefold chamber verification ----------------------------------------


class ThreefoldChamber(_Record, frozen=True):
    """One supplied chamber of a threefold decomposition: a u-interval,
    the birational model it lives on, and affine positive/negative parts."""

    interval: Interval
    model: str
    positive: dict[str, Poly]
    negative: dict[str, Poly]


def _ray_vectors(model: ToricModel, families: dict):
    """The families {label: family} as integer vectors {ray: (a, b)}, each
    coefficient (a + b*u) / den over one common den > 0, and den."""
    polys = [model.normalize_divisor(_affine_family(f, what))
             for what, f in families.items()]
    den = math.lcm(*(c.den for f in polys for c in f.values()))
    return [{k: tuple(x * (den // c.den) for x in _affine(c))
             for k, c in f.items()} for f in polys], den


def threefold_chamber_volume(models: dict[str, ToricModel],
                             chambers: list[ThreefoldChamber],
                             total: dict[str, Poly]) -> PiecewisePolynomial:
    """Verify a supplied chamber decomposition and return vol(u) = P(u)^3.

    Per chamber four conditions are proved in ``int`` (``_ray_vectors``):
    P + N is the family in the degree lattice; N has a nonnegative
    ``minimum``; P is nef at both ends, read as q * den * P(p/q) (P is
    affine in u); and P^2 . F_k is identically 0 for each ray k in the
    support of N.  That the chambers tile one interval and their cubics
    agree at the walls is ``PiecewisePolynomial``'s own check, which
    fails only when chambers on different models disagree: on one model,
    P^3 is the volume, and a volume is continuous.  One integer vector
    w_k = P^2 . F_k (``facet_products``) gives both vol = P^3 =
    sum_k P_k w_k and the support check.  For P nef and big, P^2 . F_k
    is twice the normalized area of the face of the polytope P_P with
    normal v_k (Fulton, Introduction to Toric Varieties, Sec. 5.3).  So
    no such face is a facet, P_P is cut out by the rays where P is the
    family, and vol = 6 vol(P_P) = P^3.
    """
    pieces: list[tuple[Interval, Poly]] = []
    for ch in chambers:
        label = f"chamber {ch.interval} on {ch.model}"
        model = models.get(ch.model)
        if model is None:
            raise DecompositionMismatch(f"unknown model {ch.model!r}")
        (pos, neg, fam), den = _ray_vectors(model, {
            f"{label}: positive part": ch.positive,
            f"{label}: negative part": ch.negative,
            f"{label}: decomposed family": total})
        if any(sum(g * (pos.get(i, (0, 0))[t] + neg.get(i, (0, 0))[t]
                        - fam.get(i, (0, 0))[t]) for i, g in enumerate(row))
               for row in model.grading for t in (0, 1)):
            raise DecompositionMismatch(
                f"{label}: P + N is not the decomposed family")
        for k, c in ch.negative.items():
            if minimum(Poly.const(c), ch.interval) < 0:
                raise DecompositionMismatch(
                    f"{label}: negative part coefficient of {k} < 0")
        for u in (ch.interval.lo, ch.interval.hi):
            p, q = u.numerator, u.denominator
            ok, violated = model.nef_check(
                {i: a * q + b * p for i, (a, b) in pos.items()})
            if not ok:
                raise NefViolation(
                    f"{label}: P({rat_str(u)}) negative on {violated}")
        w, scale = model.facet_products(den, pos, pos.keys() | neg.keys())
        if any((a or b) and any(w[k]) for k, (a, b) in neg.items()):
            raise DecompositionMismatch(
                f"{label}: P^2 . F_k is not 0 on the support of N")
        num = [0] * 4
        for k, (a, b) in pos.items():
            for t, c in enumerate(w[k]):
                num[t] += a * c
                num[t + 1] += b * c
        pieces.append((ch.interval, Poly._of(num, den * scale)))
    if not pieces:
        raise DecompositionMismatch("no chambers to verify")
    return PiecewisePolynomial(pieces)


def pseudoeffective_threshold(model: ToricModel,
                              family: dict[str, Poly]) -> Fraction:
    """Largest u with the family (a + b*u) / den still effective: the least
    -c0/c1 over the effective coordinates c0 of a and c1 of b with c1 < 0."""
    (fam,), _ = _ray_vectors(model, {"family": family})
    c0s = model.effective_coordinates({k: a for k, (a, _) in fam.items()})
    c1s = model.effective_coordinates({k: b for k, (_, b) in fam.items()})
    bounds = [-c0 / c1 for c0, c1 in zip(c0s, c1s) if c1 < 0]
    if not bounds:
        raise Unbounded("no degree coordinate decreases in u")
    return min(bounds)
