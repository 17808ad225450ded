"""Zariski decompositions, exact and parametric.

Three layers:

* ``surface_zariski`` -- the classical iterative decomposition of a single
  divisor on a surface given by a named curve basis and its Gram matrix.
* ``parametric_surface_zariski`` -- chamber discovery for a divisor family
  affine in the outer parameter ``u`` and the inner parameter ``v``.  The
  scan runs at an exact rational sample of ``u`` from v = 0 to the
  pseudoeffective threshold, where the volume of P vanishes; it re-solves
  each chamber symbolically and splits the ``u``-interval where walls cross.
* ``threefold_chamber_volume`` -- verification (not discovery) of supplied
  chamber decompositions on threefold models, returning the exact
  piecewise-cubic volume function.

Affinity is an invariant, checked once where a family enters the engine:
``_affine_family`` lifts every coefficient to a Poly and raises
``NonAffineFamily`` for a term u^i v^j with i + j > 1.  Solving the
support system is linear, so positive parts, negative parts and pairings
stay affine, every wall is a line v = a + b*u, and the volume P^2 has
total degree 2.  A chamber {u0 <= u <= u1, v_lo(u) <= v <= v_hi(u)} is
then a convex polygon, and by the corner lemma a sign check at its four
corners is a proof.  So every sign claim on a chamber goes through
``Chamber2D.nonnegative``, and every sign claim on an interval (a volume
before the next wall, a threefold negative part) through the exact sign
oracle ``exactcore.minimum``.

The scan decides in integers: ``_affine`` reads an affine form as the
numerators (a, b, c) of (a + b*u + c*v) / den, den > 0, so at a point
(x, y) / d its sign is that of a*d + b*x + c*y.  Fractions and Polys are
built only for what the scan hands on: event positions, roots and walls.

Each lattice curve carries one affine constraint (``_constraints``): its
coefficient in N if it is in the support, its pairing with P if not.  The
scan raises v until a constraint falls to 0; that line is the next wall,
and every curve whose constraint falls there toggles in or out of the
support.  ``_verify_chambers`` proves the same constraints nonnegative.

Each chamber is solved once: the scan reads its events, walls and volume
from one pairing vector ``{c: P . c}``, which the returned ``Chamber2D``
hands down to the corner checks and the flag integrals.  The inverse of
each nonsingular support Gram block is cached on its ``SurfaceLattice``.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from . import KstabError, _Record, _linalg
from .exactcore import (ContinuityWarning, Interval, MalformedInput,
                        PiecewisePolynomial, Poly, minimum, rat, rat_str,
                        sqrt_rat)
from .toric import ToricModel


class ZariskiError(KstabError):
    pass


class NoConvergence(ZariskiError):
    """The iterative decomposition failed to stabilise."""


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


class DiscontinuousVolume(ZariskiError):
    pass


class NonAffineFamily(ZariskiError):
    """A family coefficient with a term of total degree > 1 in (u, v)."""


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

    Construction also builds a name -> index map and, per curve, the sparse
    row of its nonzero Gram entries.  ``_inverses`` caches the inverse of
    each nonsingular support Gram block for ``_support_solve``; it lives and
    dies with the instance.
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
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_index",
                           {c: i for i, c in enumerate(self.curves)})
        object.__setattr__(self, "_rows", tuple(
            {t: x for t, x in zip(self.curves, row) if x} for row in g))
        object.__setattr__(self, "_inverses", {})

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ZariskiError(f"lattice has no curve named {name!r}")

    def pairing(self, d: dict, name: str):
        """Intersection of a divisor (coefficient map) with a basis curve.

        Coefficients may be Fractions or parameter polynomials.
        """
        row = self._rows[self.index(name)]
        total = Fraction(0)
        for k, c in d.items():
            g = row.get(k)
            if g is not None:
                total = c * g + total
            else:
                self.index(k)  # an unknown curve raises
        return total

    def pairings(self, d: dict) -> dict:
        """``{c: d . c}`` for every curve c, in one pass over ``d``."""
        out = dict.fromkeys(self.curves, Fraction(0))
        for k, c in d.items():
            for t, g in self._rows[self.index(k)].items():
                out[t] = c * g + out[t]
        return out

    def dot(self, d1: dict, d2: dict):
        """Intersection of two divisors: sum of c1 * (d2 . k1) over d1."""
        return _contract(d1, self.pairings(d2))


def _contract(d: dict, pairings: dict):
    """Sum of c * pairings[k] over the terms of ``d``, one product per
    nonzero pairing; with ``pairings`` the pairing vector of P and ``d``
    = P this is the volume P^2."""
    total = Fraction(0)
    for k, c in d.items():
        g = pairings[k]
        if g:
            total = c * g + total
    return total


def _is_negative_definite(lat: SurfaceLattice, support: list[str]) -> bool:
    idx = [lat.index(s) for s in support]
    for k in range(1, len(idx) + 1):
        sub = [[lat.gram[i][j] for j in idx[:k]] for i in idx[:k]]
        if (-1) ** k * _linalg.det(sub) <= 0:
            return False
    return True


def _support_inverse(lat: SurfaceLattice, support: list[str]):
    """The rows of the inverse of the Gram block of ``support``, each as a
    ``{t: entry}`` map, cached on ``lat``.

    A singular block raises NoConvergence on every call and is never
    stored.
    """
    key = tuple(support)
    inv = lat._inverses.get(key)
    if inv is None:
        idx = [lat.index(s) for s in support]
        rows = _linalg.inverse([[lat.gram[i][j] for i in idx] for j in idx])
        if rows is None:
            raise NoConvergence(f"singular Gram submatrix for {support}")
        inv = lat._inverses[key] = [dict(zip(support, row)) for row in rows]
    return inv


def _support_solve(lat: SurfaceLattice, d: dict, support: list[str]) -> dict:
    """The coefficients N on ``support`` with (d - N) . t = 0 for every
    support curve t; ``d`` may have Fraction or Poly coefficients."""
    if not support:
        return {}
    rhs = {t: lat.pairing(d, t) for t in support}
    return {s: _contract(row, rhs)
            for s, row in zip(support, _support_inverse(lat, support))}


def surface_zariski(lat: SurfaceLattice, d: dict) -> tuple[dict, dict]:
    """Zariski decomposition ``d = P + N`` on a surface, exactly.

    Curves pairing negatively with the running positive part are added to
    the support and the orthogonality system is re-solved, in lattice
    order, until P pairs nonnegatively with every listed curve.
    """
    d = {k: rat(v) for k, v in d.items()}
    support: list[str] = []
    for _ in range(len(lat.curves) + 2):
        coeffs = _support_solve(lat, d, support)
        p = _subtract(d, coeffs)
        pv = lat.pairings(p)
        negatives = [c for c in lat.curves if c not in support and pv[c] < 0]
        if not negatives:
            break
        support.extend(negatives)
    else:
        raise NoConvergence("support did not stabilise")
    if any(v < 0 for v in coeffs.values()):
        raise NoConvergence(
            f"negative part has a negative coefficient: {coeffs}")
    n = {k: v for k, v in coeffs.items() if v}
    if n and not _is_negative_definite(lat, list(n)):
        warnings.warn(
            f"support {sorted(n)} is not negative definite",
            NegativeDefiniteSupportWarning, stacklevel=2)
    return p, n


def _subtract(d: dict, n: dict) -> dict:
    out = dict(d)
    for k, c in n.items():
        out[k] = out.get(k, Fraction(0)) - c
    return {k: v for k, v in out.items() if v}


_AFFINE_TERMS = frozenset({(0, 0), (1, 0), (0, 1)})


def _affine_family(d: dict, what: str) -> dict[str, Poly]:
    """``d`` with every coefficient lifted to a Poly and checked affine in
    (u, v); a term u^i v^j with i + j > 1 raises NonAffineFamily."""
    out = {k: Poly.const(c) for k, c in d.items()}
    for k, p in out.items():
        if not p.num.keys() <= _AFFINE_TERMS:
            raise NonAffineFamily(
                f"{what}: coefficient {p!r} of {k} is not affine in (u, v)")
    return out


def _affine(g: Poly) -> tuple[int, int, int]:
    """The integers (a, b, c) with g = (a + b*u + c*v) / g.den, g.den > 0;
    any other term raises NonAffineFamily, so no form is misread."""
    num = g.num
    if not num.keys() <= _AFFINE_TERMS:
        raise NonAffineFamily(f"{g!r} is not affine in (u, v)")
    return num.get((0, 0), 0), num.get((1, 0), 0), num.get((0, 1), 0)


class Chamber2D(_Record):
    """One chamber of a parametric surface decomposition.

    The region is ``u in u_interval``, ``v_lo(u) <= v <= v_hi(u)`` with
    affine walls; P and N carry coefficients affine in (u, v).  The scan
    that found the chamber also hands down P's pairing vector ``{c: P . c}``
    over every lattice curve and its volume P^2, so the corner checks and
    the flag integrals never pair P again.
    """

    u_interval: Interval
    v_lo: Poly
    v_hi: Poly
    positive: dict[str, Poly]
    negative: dict[str, Poly]
    support: tuple[str, ...]
    pairings: dict[str, Poly | Fraction]
    volume: Poly

    def corners(self) -> list[tuple[Fraction, Fraction]]:
        """The corners (u, v): v_lo then v_hi at u0, then at u1."""
        return [(u, wall.eval(u=u, v=0))
                for u in (self.u_interval.lo, self.u_interval.hi)
                for wall in (self.v_lo, self.v_hi)]

    def nonnegative(self, g: Poly) -> bool:
        """Whether the affine form ``g`` is >= 0 on the whole chamber.

        Corner lemma: once v_lo <= v_hi at u0 and at u1, the chamber is
        the convex hull of its four corners, because its walls are lines.
        A function affine in (u, v) attains its minimum over a convex
        polygon at a corner.  At u = p/q on the wall (w0 + w1*u) / wd the
        corner is (p*wd, w0*q + w1*p) / (q*wd), so g's sign there is an
        integer's.
        """
        a, b, c = _affine(g)
        walls = [(_affine(w), w.den) for w in (self.v_lo, self.v_hi)]
        for u in (self.u_interval.lo, self.u_interval.hi):
            p, q = u.numerator, u.denominator
            at_u = a * q + b * p
            for (w0, w1, _), wd in walls:
                if at_u * wd + c * (w0 * q + w1 * p) < 0:
                    return False
        return True


def _family_at(family: dict[str, Poly], u: Fraction, v: Fraction) -> dict:
    out = {}
    for k, p in family.items():
        val = p.eval(u=u, v=v)
        if val:
            out[k] = val
    return out


def _symbolic_parts(lat: SurfaceLattice, family: dict[str, Poly],
                    support: list[str]) -> tuple[dict, dict]:
    """Solve the orthogonality system over Q[u, v] for a fixed support."""
    n = {s: Poly.const(c)
         for s, c in _support_solve(lat, family, support).items() if c}
    return _subtract(family, n), n


def _symbolic_wall(constraint: Poly) -> Poly:
    """The line v = -(a + b*u) / c on which the affine constraint
    (a + b*u + c*v) / den vanishes; callers pass only constraints with
    c != 0."""
    a, b, c = _affine(constraint)
    sign = -1 if c > 0 else 1
    return Poly._of({e: sign * n for e, n in (((0, 0), a), ((1, 0), b))
                     if n}, abs(c))


def _vol_threshold(vol: Poly, ustar: Fraction, v_cur: Fraction,
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

    The decisions read c0, c1, c2, the integer numerators of vol at
    ustar, over one positive denominator, so signs and roots are vol's.
    A volume of degree > 2 in v raises MalformedInput.
    """
    at_ustar = vol.eval(u=ustar).num
    if any(j > 2 for _, j in at_ustar):
        raise MalformedInput(f"volume {vol!r} has degree > 2 in v")
    c0, c1, c2 = (at_ustar.get((0, j), 0) for j in range(3))
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
        if hi is None or minimum(Poly.from_coeffs([c0, c1, c2]),
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

    dv = vol.derivative("v")
    b = dv.eval(u=ustar, v=r)
    if b:
        slope = -vol.derivative("u").eval(u=ustar, v=r) / b
        wall = Poly.affine(r - slope * ustar, slope)
    else:
        wall = _symbolic_wall(dv)
    if vol.subs_v(wall):
        if not b:
            # A double root off the wall: two root lines cross at ustar,
            # and the threshold may be affine on each side of it.
            raise _SplitRequest(ustar)
        raise IrrationalThreshold("threshold is not affine in u")
    return r, wall


def _constraints(support, negative: dict, pairings: dict) -> dict[str, Poly]:
    """One affine constraint per lattice curve, nonnegative exactly on the
    chamber: the curve's coefficient in N if it is in ``support``, its
    pairing with P if it is not.  ``pairings`` fixes the lattice order."""
    return {c: Poly.const(negative.get(c, 0) if c in support else g)
            for c, g in pairings.items()}


def parametric_surface_zariski(lat: SurfaceLattice, family: dict[str, Poly],
                               u_interval: Interval,
                               _depth: int = 0) -> list[Chamber2D]:
    """Chamber decomposition of ``family(u, v)`` over ``u_interval``.

    ``family`` maps curve names to polynomials affine in (u, v).
    Scanning starts at v = 0 and stops at the pseudoeffective threshold,
    i.e. where the volume of the positive part first vanishes; a family
    that stays big raises Unbounded.
    The u-interval is split wherever two walls cross inside it.
    """
    if _depth > 12:
        raise NoConvergence("chamber recursion too deep")
    family = _affine_family(family, "family")
    try:
        chambers = _scan(lat, family, u_interval)
        _verify_chambers(chambers)
        return chambers
    except _SplitRequest as req:
        at = req.at
        if not (u_interval.lo < at < u_interval.hi):
            raise WallDegeneracy(
                f"cannot separate walls at u = {rat_str(at)}")
        left = parametric_surface_zariski(
            lat, family, Interval(u_interval.lo, at), _depth + 1)
        right = parametric_surface_zariski(
            lat, family, Interval(at, u_interval.hi), _depth + 1)
        return left + right


def _scan(lat: SurfaceLattice, family: dict[str, Poly],
          u_interval: Interval) -> list[Chamber2D]:
    ustar = u_interval.midpoint()
    _, n0 = surface_zariski(lat, _family_at(family, ustar, Fraction(0)))
    support = [c for c in lat.curves if c in n0]
    v_cur = Fraction(0)
    wall_cur = Poly()
    chambers: list[Chamber2D] = []
    for _ in range(6 * len(lat.curves) + 12):
        p_sym, n_sym = _symbolic_parts(lat, family, support)
        pv = lat.pairings(p_sym)
        # The sample (ustar, v_cur) as integers (x, y) / d.
        d = ustar.denominator * v_cur.denominator
        x = ustar.numerator * v_cur.denominator
        y = v_cur.numerator * ustar.denominator
        # An event is a constraint (a + b*u + c*v) / den falling to 0 at
        # the sample; its curve enters or leaves the support there.
        events: list[tuple[Fraction, str, Poly]] = []
        for curve, g in _constraints(support, n_sym, pv).items():
            a, b, c = _affine(g)
            val = a * d + b * x + c * y
            if val < 0:
                raise NoConvergence(
                    f"constraint of {curve} negative inside a chamber")
            if c < 0:
                events.append((Fraction(a * d + b * x, -c * d), curve, g))
            elif val == 0 and c == 0 and b != 0 and curve not in support:
                raise _SplitRequest(ustar)
        vol = Poly.const(_contract(p_sym, pv))
        next_wall = min((e[0] for e in events), default=None)
        threshold = _vol_threshold(vol, ustar, v_cur, next_wall)
        if threshold is not None and (next_wall is None
                                      or threshold[0] <= next_wall):
            r, wall_sym = threshold
            if r > v_cur:
                chambers.append(Chamber2D(u_interval, wall_cur, wall_sym,
                                          p_sym, n_sym, tuple(support),
                                          pv, vol))
            return chambers
        if next_wall is None:
            raise Unbounded("family stays big: no wall and no threshold")

        triggers = {c: g for v, c, g in events if v == next_wall}
        wall_sym, *others = {_symbolic_wall(g) for g in triggers.values()}
        if others:
            raise _SplitRequest(ustar)
        if next_wall > v_cur:
            chambers.append(Chamber2D(u_interval, wall_cur, wall_sym,
                                      p_sym, n_sym, tuple(support), pv, vol))
        elif wall_sym != wall_cur:
            raise _SplitRequest(ustar)
        # Each trigger toggles its own curve, so the support changes.
        support = [c for c in lat.curves if (c in support) != (c in triggers)]
        v_cur = next_wall
        wall_cur = wall_sym
    raise NoConvergence("wall scan did not terminate")


def _verify_chambers(chambers: list[Chamber2D]):
    """Corner checks: wall order on every chamber, then orthogonality and
    the sign of every constraint (``_constraints``).

    The width v_hi - v_lo is affine in u, so its signs at the two ends
    decide it; a width negative at one end only means the walls cross
    inside the u-interval, and the scan splits where it vanishes.  Every
    constraint is affine, so ``Chamber2D.nonnegative`` proves its sign on
    the whole chamber from the four corners.  Until every chamber's walls
    are in order, a corner may lie off the true region, so no corner sign
    is read before that.
    """
    for ch in chambers:
        (u0, lo0), (_, hi0), (u1, lo1), (_, hi1) = ch.corners()
        w0, w1 = hi0 - lo0, hi1 - lo1
        if w0 < 0 or w1 < 0:
            if w0 <= 0 and w1 <= 0:
                raise WallDegeneracy("walls in the wrong order on "
                                     f"the whole of {ch.u_interval}")
            raise _SplitRequest(u0 + (u1 - u0) * w0 / (w0 - w1))
    for ch in chambers:
        for s in ch.support:
            if ch.pairings[s]:
                raise NoConvergence(f"orthogonality failed for {s}")
        for c, g in _constraints(ch.support, ch.negative,
                                 ch.pairings).items():
            if not ch.nonnegative(g):
                raise NoConvergence(
                    f"constraint of {c} negative at a chamber corner")


# -- threefold chamber verification ----------------------------------------


class ThreefoldChamber(_Record, frozen=True):
    """One supplied chamber of a threefold decomposition: a u-interval,
    the birational model it lives on, and affine positive/negative parts."""

    interval: Interval
    model: str
    positive: dict[str, Poly]
    negative: dict[str, Poly]


def threefold_chamber_volume(models: dict[str, ToricModel],
                             chambers: list[ThreefoldChamber],
                             total: dict[str, Poly]) -> PiecewisePolynomial:
    """Verify a supplied chamber decomposition and return vol(u) = P(u)^3.

    Per chamber the four defining conditions are proved exactly: P is nef
    against the model's Mori generators at both endpoints (P is affine in
    u, so the endpoints decide the whole interval), every coefficient of N
    has a nonnegative ``minimum`` on the interval, P + N agrees with the
    total family in the degree lattice, and the resulting cubic pieces
    match at the walls (small modifications preserve the volume).
    """
    total = _affine_family(total, "decomposed family")
    pieces = []
    ordered = sorted(chambers, key=lambda c: (c.interval.lo, c.interval.hi))
    for ch in ordered:
        model = models.get(ch.model)
        if model is None:
            raise DecompositionMismatch(f"unknown model {ch.model!r}")
        label = f"chamber {ch.interval} on {ch.model}"
        pos = _affine_family(ch.positive, f"{label}: positive part")
        neg = _affine_family(ch.negative, f"{label}: negative part")
        combined = dict(pos)
        for k, c in neg.items():
            combined[k] = combined.get(k, Poly()) + c
        if model.degree(combined) != model.degree(total):
            raise DecompositionMismatch(
                f"{label}: P + N is not the decomposed family")
        for k, c in neg.items():
            if minimum(c, ch.interval) < 0:
                raise DecompositionMismatch(
                    f"{label}: negative part coefficient of {k} < 0")
        for u in (ch.interval.lo, ch.interval.hi):
            ok, violated = model.nef_check(
                {k: c.eval(u=u, v=0) for k, c in pos.items()})
            if not ok:
                raise NefViolation(
                    f"{label}: P({rat_str(u)}) negative on {violated}")
        vol = Poly.const(model.intersection_form(pos, pos, pos))
        pieces.append((ch.interval, vol))
    # Small modifications preserve the volume, so a jump at a wall is an
    # error here, not the warning that PiecewisePolynomial gives.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ContinuityWarning)
        try:
            return PiecewisePolynomial(pieces)
        except ContinuityWarning as exc:
            raise DiscontinuousVolume(f"volume {exc}") from None


def pseudoeffective_threshold(model: ToricModel,
                              family: dict[str, Poly]) -> Fraction:
    """Largest u with the family still effective, from exact affine
    coordinates in the effective-generator basis."""
    family = _affine_family(family, "family")
    bound = None
    for coord in model.effective_coordinates(family):
        c0, c1, _ = _affine(Poly.const(coord))
        if c1 < 0:
            b = Fraction(-c0, c1)
            bound = b if bound is None else min(bound, b)
    if bound is None:
        raise Unbounded("no degree coordinate decreases in u")
    return bound
