"""Zariski decompositions, exact and parametric.

Three layers:

* ``surface_zariski`` -- the classical iterative decomposition of a single
  divisor on a surface given by a named curve basis and its Gram matrix.
* ``parametric_surface_zariski`` -- chamber discovery for a divisor family
  that is affine in the outer parameter ``u`` and the inner parameter
  ``v``.  The scan runs at an exact rational sample of ``u``, re-solves
  each chamber symbolically, and splits the ``u``-interval whenever walls
  cross, so every returned chamber carries exact affine data verified at
  its corners.
* ``threefold_chamber_volume`` -- verification (not discovery) of supplied
  chamber decompositions on threefold models, returning the exact
  piecewise-cubic volume function.

The inner scan terminates where the volume of the positive part vanishes;
that point is the pseudoeffective threshold of the family.

Affinity is an invariant, checked once where a family enters the engine:
``_affine_family`` lifts every coefficient to a Poly and raises
``NonAffineFamily`` for a term u^i v^j with i + j > 1.  Solving the
support system is linear, so positive parts, negative parts and pairings
stay affine, every wall is a line v = a + b*u, and the volume P^2 has
total degree 2.  A chamber {u0 <= u <= u1, v_lo(u) <= v <= v_hi(u)} is
then a convex polygon, and the corner lemma (``Chamber2D.corners``) makes
every sign check at its corners a proof.

Each chamber is solved once.  The scan builds the pairing vector
``{c: P . c}`` of the chamber's positive part in one pass and reads its
events, walls and the volume P^2 from it; the returned ``Chamber2D``
carries that vector and that volume down to the corner checks and the flag
integrals.  The inverse of each nonsingular support Gram block is cached on
its ``SurfaceLattice`` instance, so it lives exactly as long as the lattice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from . import KstabError, _linalg
from .exactcore import (ContinuityWarning, Interval, PiecewisePolynomial, Poly,
                        rat, rat_str, sqrt_rat)
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


@dataclass(frozen=True)
class SurfaceLattice:
    """A surface intersection lattice: named curves plus their Gram matrix.

    Construction also builds a name -> index map and, per curve, the sparse
    row of its nonzero Gram entries.  ``_inverses`` caches the inverse of
    each nonsingular support Gram block for ``_support_solve``; it lives and
    dies with the instance.
    """

    curves: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)
    _inverses: dict = field(init=False, repr=False, compare=False)

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

    def square(self, d: dict):
        return self.dot(d, d)


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
        rows = [[lat.gram[i][j] for i in idx] for j in idx]
        if _linalg.det(rows) == 0:
            raise NoConvergence(f"singular Gram submatrix for {support}")
        inv = lat._inverses[key] = [dict(zip(support, row))
                                    for row in _linalg.inverse(rows)]
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


def _affine_family(d: dict, what: str) -> dict[str, Poly]:
    """``d`` with every coefficient lifted to a Poly and checked affine in
    (u, v); a term u^i v^j with i + j > 1 raises NonAffineFamily."""
    out = {k: Poly.const(c) for k, c in d.items()}
    for k, p in out.items():
        if any(i + j > 1 for i, j in p.terms):
            raise NonAffineFamily(
                f"{what}: coefficient {p!r} of {k} is not affine in (u, v)")
    return out


@dataclass
class Chamber2D:
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
        """The corners (u, v): v_lo then v_hi at u0, then at u1.

        Corner lemma: once v_lo <= v_hi at u0 and at u1, the chamber is
        the convex hull of these four points, because its walls are
        lines.  A function affine in (u, v) attains its minimum over a
        convex polygon at a corner, so one that is nonnegative at the
        four corners is nonnegative on the whole chamber.
        """
        return [(u, wall.eval(u=u, v=0))
                for u in (self.u_interval.lo, self.u_interval.hi)
                for wall in (self.v_lo, self.v_hi)]


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
    """The line v = w(u) on which an affine constraint vanishes; callers
    pass only constraints with a nonzero v-slope."""
    return constraint.eval(v=0) * (-1 / constraint.coefficient(0, 1))


def _vol_threshold(vol: Poly, ustar: Fraction, v_cur: Fraction,
                   limit: Fraction | None) -> tuple[Fraction, Poly] | None:
    """Smallest v >= v_cur with vol = 0, as (numeric, symbolic wall).

    Returns None when the volume stays positive up to ``limit`` (or
    forever when limit is None and the quadratic never vanishes).  The
    wall is the line through the root (ustar, r) with the slope
    -d_u vol / d_v vol there, or, at a double root, the line d_v vol = 0.
    It is accepted only if vol vanishes on it identically; a root that is
    not affine in u (two root lines crossing at ustar among them) raises
    IrrationalThreshold.
    """
    at_ustar = vol.eval(u=ustar)
    c0, c1, c2 = (at_ustar.coefficient(0, j) for j in range(3))

    def value(v):
        return c2 * v * v + c1 * v + c0

    if c2 == 0 and c1 == 0:
        if c0 == 0:
            return v_cur, Poly.const(v_cur)
        return None
    if value(v_cur) == 0:
        slope = 2 * c2 * v_cur + c1
        if slope <= 0:
            return v_cur, Poly.const(v_cur)
        raise NoConvergence("volume vanishes then grows; bad family")
    if value(v_cur) < 0:
        raise NoConvergence("negative volume inside a chamber")

    roots: list[Fraction] = []
    if c2 == 0:
        r = -c0 / c1
        if r > v_cur:
            roots.append(r)
    else:
        disc = c1 * c1 - 4 * c2 * c0
        if disc >= 0:
            s = sqrt_rat(disc)
            if s is None:
                # Irrational roots only matter if one lies before the limit.
                if _quadratic_dips(c2, c1, c0, v_cur, limit):
                    raise IrrationalThreshold(
                        "volume vanishes at an irrational parameter")
                return None
            for sign in (1, -1):
                r = (-c1 + sign * s) / (2 * c2)
                if r > v_cur:
                    roots.append(r)
    if not roots:
        return None
    r = min(roots)
    if limit is not None and r > limit:
        return None

    dv = vol.derivative("v")
    b = dv.eval(u=ustar, v=r)
    if b:
        slope = -vol.derivative("u").eval(u=ustar, v=r) / b
        wall = Poly.affine(r - slope * ustar, slope)
    else:
        wall = _symbolic_wall(dv)
    if vol.subs_v(wall):
        raise IrrationalThreshold("threshold is not affine in u")
    return r, wall


def _quadratic_dips(c2, c1, c0, v_cur, limit) -> bool:
    """Does c2 v^2 + c1 v + c0 become <= 0 somewhere in (v_cur, limit]?"""
    if limit is None and c2 < 0:
        return True  # a concave quadratic falls without bound
    probes = []
    if limit is not None:
        probes.append(limit)
    if c2 != 0:
        vertex = -c1 / (2 * c2)
        if vertex > v_cur and (limit is None or vertex <= limit):
            probes.append(vertex)
    for v in probes:
        if c2 * v * v + c1 * v + c0 <= 0:
            return True
    return False


def parametric_surface_zariski(lat: SurfaceLattice, family: dict[str, Poly],
                               u_interval: Interval,
                               v_max: Poly | None = None,
                               _depth: int = 0) -> list[Chamber2D]:
    """Chamber decomposition of ``family(u, v)`` over ``u_interval``.

    ``family`` maps curve names to polynomials affine in (u, v).
    Scanning starts at v = 0 and stops at the pseudoeffective threshold,
    i.e. where the volume of the positive part first vanishes (or at
    ``v_max``, a polynomial of degree at most 1 in u, when supplied).
    Walls are discovered at an exact rational sample of u, re-solved
    symbolically, and the u-interval is split whenever two walls cross
    inside it.
    """
    if _depth > 12:
        raise NoConvergence("chamber recursion too deep")
    family = _affine_family(family, "family")
    try:
        chambers = _scan(lat, family, u_interval, v_max)
        _verify_chambers(chambers)
        return chambers
    except _SplitRequest as req:
        at = req.at
        if not (u_interval.lo < at < u_interval.hi):
            raise WallDegeneracy(
                f"cannot separate walls at u = {rat_str(at)}")
        left = parametric_surface_zariski(
            lat, family, Interval(u_interval.lo, at), v_max, _depth + 1)
        right = parametric_surface_zariski(
            lat, family, Interval(at, u_interval.hi), v_max, _depth + 1)
        return left + right


def _scan(lat: SurfaceLattice, family: dict[str, Poly],
          u_interval: Interval, v_max: Poly | None) -> list[Chamber2D]:
    ustar = u_interval.midpoint()
    _, n0 = surface_zariski(lat, _family_at(family, ustar, Fraction(0)))
    support = [c for c in lat.curves if c in n0]
    v_cur = Fraction(0)
    wall_cur = Poly()
    chambers: list[Chamber2D] = []
    for _ in range(6 * len(lat.curves) + 12):
        p_sym, n_sym = _symbolic_parts(lat, family, support)
        pv = lat.pairings(p_sym)
        # Candidate walls: external curves entering, support coefficients
        # leaving, and the supplied outer bound.
        events: list[tuple[Fraction, str, str]] = []
        for c in lat.curves:
            if c in support:
                continue
            g = Poly.const(pv[c])
            if not g:
                continue
            val, slope = g.eval(u=ustar, v=v_cur), g.coefficient(0, 1)
            if val < 0:
                raise NoConvergence(
                    f"negative pairing with {c} inside a chamber")
            if slope < 0 and not (val == 0 and slope == 0):
                events.append((v_cur + val / (-slope), "enter", c))
            elif val == 0 and slope == 0 and g.degree("u") > 0:
                raise _SplitRequest(ustar)
        for s in support:
            n_c = n_sym.get(s, Poly())
            val, slope = n_c.eval(u=ustar, v=v_cur), n_c.coefficient(0, 1)
            if val < 0:
                raise NoConvergence(
                    f"negative coefficient for {s} inside a chamber")
            if slope < 0 and val > 0:
                events.append((v_cur + val / (-slope), "leave", s))
            elif val == 0 and slope < 0:
                events.append((v_cur, "leave", s))
        limit_num = None
        if v_max is not None:
            limit_num = v_max.eval(u=ustar, v=0)
            events.append((limit_num, "stop", ""))

        vol = Poly.const(_contract(p_sym, pv))
        next_wall = min((e[0] for e in events), default=None)
        threshold = _vol_threshold(vol, ustar, v_cur,
                                   next_wall if next_wall is not None
                                   else limit_num)
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

        triggers = [e for e in events if e[0] == next_wall]
        stoppers = [e for e in triggers if e[1] == "stop"]
        walls = []
        for _, kind, name in triggers:
            if kind == "enter":
                walls.append(_symbolic_wall(pv[name]))
            elif kind == "leave":
                walls.append(_symbolic_wall(n_sym[name]))
            else:
                walls.append(v_max)
        wall_sym = walls[0]
        for w in walls[1:]:
            if w != wall_sym:
                raise _SplitRequest(ustar)
        if next_wall > v_cur:
            chambers.append(Chamber2D(u_interval, wall_cur, wall_sym,
                                      p_sym, n_sym, tuple(support), pv, vol))
        elif wall_sym != wall_cur:
            raise _SplitRequest(ustar)
        if stoppers:
            return chambers
        new_support = list(support)
        for _, kind, name in triggers:
            if kind == "enter" and name not in new_support:
                new_support.append(name)
            elif kind == "leave" and name in new_support:
                new_support.remove(name)
        if new_support == support and next_wall == v_cur:
            raise NoConvergence("no progress at a wall")
        support = [c for c in lat.curves if c in new_support]
        v_cur = next_wall
        wall_cur = wall_sym
    raise NoConvergence("wall scan did not terminate")


def _verify_chambers(chambers: list[Chamber2D]):
    """Corner checks: wall ordering, positivity, orthogonality.

    The width v_hi - v_lo, every pairing P . c and every coefficient of N
    is affine, so by the corner lemma of ``Chamber2D.corners`` each check
    at the four corners is a proof for the whole chamber.  A width that
    is negative at one end only means the walls cross inside the
    u-interval, and the scan splits where the affine width vanishes.
    """
    for ch in chambers:
        corners = ch.corners()
        (u0, lo0), (_, hi0), (u1, lo1), (_, hi1) = corners
        w0, w1 = hi0 - lo0, hi1 - lo1
        if w0 < 0 or w1 < 0:
            if w0 <= 0 and w1 <= 0:
                raise WallDegeneracy("walls in the wrong order on "
                                     f"the whole of {ch.u_interval}")
            raise _SplitRequest(u0 + (u1 - u0) * w0 / (w0 - w1))
        for s in ch.support:
            if ch.pairings[s]:
                raise NoConvergence(f"orthogonality failed for {s}")
        for u, v in corners:
            for c, g in ch.pairings.items():
                gval = g.eval(u=u, v=v) if isinstance(g, Poly) else g
                if gval < 0:
                    raise NoConvergence(
                        f"P negative against {c} at a chamber corner")
            for s, coeff in ch.negative.items():
                nval = coeff.eval(u=u, v=v)
                if nval < 0:
                    raise NoConvergence(
                        f"negative part coefficient of {s} at a corner")


# -- threefold chamber verification ----------------------------------------


@dataclass(frozen=True)
class ThreefoldChamber:
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
    against the model's Mori generators at both endpoints, N is effective
    there (both affine in u, so the endpoints decide the whole interval),
    P + N agrees with the total family in the degree lattice, and the
    resulting cubic pieces match at the walls (small modifications preserve
    the volume).
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
        for u in (ch.interval.lo, ch.interval.hi):
            for k, c in neg.items():
                if c.eval(u=u, v=0) < 0:
                    raise DecompositionMismatch(
                        f"{label}: negative part coefficient of {k} < 0")
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
        coord = Poly.const(coord)
        c1 = coord.coefficient(1, 0)
        c0 = coord.coefficient(0, 0)
        if c1 < 0:
            b = -c0 / c1
            bound = b if bound is None else min(bound, b)
    if bound is None:
        raise Unbounded("no degree coordinate decreases in u")
    return bound
