"""Zariski decompositions, exact and parametric.

Three layers:

* ``surface_zariski`` -- the classical iterative decomposition of a single
  divisor on a surface given by a named curve basis and its Gram matrix.
* ``parametric_surface_zariski`` -- chamber discovery for a divisor family
  that is affine in the outer parameter ``u`` and the inner parameter
  ``v``.  The scan runs at an exact rational sample of ``u``, re-solves
  each chamber symbolically, and splits the ``u``-interval whenever walls
  cross, so every returned chamber carries exact affine data verified at
  its vertices.
* ``threefold_chamber_volume`` -- verification (not discovery) of supplied
  chamber decompositions on threefold models, returning the exact
  piecewise-cubic volume function.

The inner scan terminates where the volume of the positive part vanishes;
that point is the pseudoeffective threshold of the family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import KstabError, _linalg
from .exactcore import (Interval, PiecewisePolynomial, Poly, rat, rat_str,
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


class NegativeDefiniteSupportWarning(UserWarning):
    """The support of the negative part has a Gram matrix that is not
    negative definite; the decomposition is reported anyway."""


class _SplitRequest(Exception):
    def __init__(self, at: Fraction):
        self.at = at


@dataclass(frozen=True)
class SurfaceLattice:
    """A surface intersection lattice: named curves plus their Gram matrix."""

    curves: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.curves)
        g = tuple(tuple(rat(x) for x in row) for row in self.gram)
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("Gram matrix shape does not match curve list")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix is not symmetric")
        object.__setattr__(self, "gram", g)

    def index(self, name: str) -> int:
        try:
            return self.curves.index(name)
        except ValueError:
            raise ZariskiError(f"lattice has no curve named {name!r}")

    def pairing(self, d: dict, name: str):
        """Intersection of a divisor (coefficient map) with a basis curve.

        Coefficients may be Fractions or parameter polynomials.
        """
        j = self.index(name)
        total = Fraction(0)
        for k, c in d.items():
            g = self.gram[self.index(k)][j]
            if g:
                total = c * g + total
        return total

    def dot(self, d1: dict, d2: dict):
        """Intersection of two divisors: sum of c1 * (d2 . k1) over d1,
        one product per term of ``d1``."""
        total = Fraction(0)
        for k1, c1 in d1.items():
            g = self.pairing(d2, k1)
            if g:
                total = c1 * g + total
        return total

    def square(self, d: dict):
        return self.dot(d, d)


def _is_negative_definite(lat: SurfaceLattice, support: list[str]) -> bool:
    idx = [lat.index(s) for s in support]
    for k in range(1, len(idx) + 1):
        sub = [[lat.gram[i][j] for j in idx[:k]] for i in idx[:k]]
        if (-1) ** k * _linalg.det(sub) <= 0:
            return False
    return True


def surface_zariski(lat: SurfaceLattice, d: dict) -> tuple[dict, dict]:
    """Zariski decomposition ``d = P + N`` on a surface, exactly.

    Curves pairing negatively with the running positive part are added to
    the support and the orthogonality system is re-solved, in lattice
    order, until P pairs nonnegatively with every listed curve.
    """
    d = {k: rat(v) for k, v in d.items()}
    support: list[str] = []
    coeffs: dict[str, Fraction] = {}
    for _ in range(len(lat.curves) + 2):
        if support:
            rows = [[lat.gram[lat.index(s)][lat.index(t)] for s in support]
                    for t in support]
            rhs = [lat.pairing(d, t) for t in support]
            sol = _linalg.solve(rows, rhs)
            if sol is None or _linalg.det(rows) == 0:
                raise NoConvergence(
                    f"singular support system for {support}")
            coeffs = dict(zip(support, sol))
        else:
            coeffs = {}
        p = _subtract(d, coeffs)
        negatives = [c for c in lat.curves
                     if c not in support and lat.pairing(p, c) < 0]
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
    return {k: v for k, v in out.items() if not _is_zero(v)}


def _is_zero(x) -> bool:
    if isinstance(x, Poly):
        return not x.terms
    return x == 0


@dataclass
class Chamber2D:
    """One chamber of a parametric surface decomposition.

    The region is ``u in u_interval``, ``v_lo(u) <= v <= v_hi(u)`` with
    polynomial walls; P and N carry coefficients polynomial in (u, v).
    """

    u_interval: Interval
    v_lo: Poly
    v_hi: Poly
    positive: dict[str, Poly]
    negative: dict[str, Poly]
    support: tuple[str, ...]


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
    if not support:
        return ({k: p for k, p in family.items() if p}, {})
    rows = [[lat.gram[lat.index(s)][lat.index(t)] for s in support]
            for t in support]
    rhs = [lat.pairing(family, t) for t in support]
    if _linalg.det(rows) == 0:
        raise NoConvergence(f"singular Gram submatrix for {support}")
    sol = _linalg.solve(rows, rhs)
    n = {s: (c if isinstance(c, Poly) else Poly.const(c))
         for s, c in zip(support, sol)}
    p = {}
    for k in set(family) | set(n):
        val = family.get(k, Poly()) - n.get(k, Poly())
        if val:
            p[k] = val
    return p, {k: v for k, v in n.items() if v}


def _affine_in_v(p: Poly, ustar: Fraction, v0: Fraction) -> tuple[Fraction, Fraction]:
    """Value and v-slope of an affine-in-v polynomial at (ustar, v0)."""
    if p.degree("v") > 1:
        raise ZariskiError("constraint unexpectedly nonlinear in v")
    slope = p.derivative("v").eval(u=ustar, v=0)
    value = p.eval(u=ustar, v=v0)
    return value, slope


def _v_slope_poly(p: Poly) -> Poly:
    return p.derivative("v")


def _symbolic_wall(constraint: Poly, ustar: Fraction) -> Poly:
    """Solve an affine-in-v constraint for v as a polynomial in u."""
    slope = _v_slope_poly(constraint)
    if slope.degree("u") > 0:
        # Slope varies with u; the wall is not polynomial in u.  The scan
        # splits at a degenerate sample instead of guessing.
        raise _SplitRequest(ustar)
    b = slope.eval(u=0, v=0)
    if b == 0:
        raise _SplitRequest(ustar)
    a = constraint.eval(v=0)
    if isinstance(a, Poly):
        return Poly({(e[0], 0): -c / b for e, c in a.terms.items()})
    return Poly.const(-a / b)


def _poly_divide(num: Poly, den: Poly) -> Poly | None:
    """Exact division of univariate polynomials in u, or None."""
    if not den:
        return None
    nc = num.coeffs("u")
    dc = den.coeffs("u")
    out = [Fraction(0)] * (max(len(nc) - len(dc) + 1, 1))
    rem = list(nc)
    for k in range(len(nc) - len(dc), -1, -1):
        if len(rem) < len(dc) + k:
            continue
        lead = rem[len(dc) - 1 + k]
        q = lead / dc[-1]
        out[k] = q
        for i, c in enumerate(dc):
            rem[i + k] -= q * c
    if any(rem[len(dc) - 1:]):
        return None
    if any(rem[:len(dc) - 1]):
        return None
    return Poly.from_coeffs(out, "u")


def _poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root of a univariate polynomial in u, or None."""
    if not p:
        return Poly()
    cs = p.coeffs("u")
    deg = len(cs) - 1
    if deg % 2:
        return None
    half = deg // 2
    lead = sqrt_rat(cs[-1])
    if lead is None:
        return None
    root = [Fraction(0)] * (half + 1)
    root[half] = lead
    # Match coefficients downward; verify at the end.
    for k in range(half - 1, -1, -1):
        acc = Fraction(0)
        for i in range(k + 1, half):
            j = k + half - i
            if j <= half:
                acc += root[i] * root[j]
        root[k] = (cs[k + half] - acc) / (2 * lead)
    cand = Poly.from_coeffs(root, "u")
    if cand * cand == p:
        return cand
    if (-cand) * (-cand) == p:
        return -cand
    return None


def _vol_threshold(vol: Poly, ustar: Fraction, v_cur: Fraction,
                   limit: Fraction | None) -> tuple[Fraction, Poly] | None:
    """Smallest v >= v_cur with vol = 0, as (numeric, symbolic wall).

    Returns None when the volume stays positive up to ``limit`` (or
    forever when limit is None and the quadratic never vanishes).
    """
    c2p = Poly({(e[0], 0): c for e, c in vol.terms.items() if e[1] == 2})
    c1p = Poly({(e[0], 0): c for e, c in vol.terms.items() if e[1] == 1})
    c0p = Poly({(e[0], 0): c for e, c in vol.terms.items() if e[1] == 0})
    if vol.degree("v") > 2:
        raise ZariskiError("volume unexpectedly of degree > 2 in v")
    c2 = c2p.eval(u=ustar, v=0)
    c1 = c1p.eval(u=ustar, v=0)
    c0 = c0p.eval(u=ustar, v=0)

    def value(v):
        return c2 * v * v + c1 * v + c0

    if c2 == 0 and c1 == 0:
        if c0 == 0:
            return _symbolic_vanishing(v_cur)
        return None
    if value(v_cur) == 0:
        slope = 2 * c2 * v_cur + c1
        if slope <= 0:
            return _symbolic_vanishing(v_cur)
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

    # Reconstruct the root as a polynomial wall in u.
    if c2p.degree("u") > 0:
        raise _SplitRequest(ustar)
    c2s = c2p.eval(u=0, v=0)
    if c2s == 0:
        quot = _poly_divide(-c0p, c1p)
        if quot is None:
            raise IrrationalThreshold("threshold is not polynomial in u")
        return r, quot
    disc_p = c1p * c1p - 4 * c2s * c0p
    s_p = _poly_sqrt(disc_p)
    if s_p is None:
        raise IrrationalThreshold("threshold is not polynomial in u")
    for sign in (1, -1):
        wall = (-c1p + sign * s_p) * (Fraction(1) / (2 * c2s))
        if wall.eval(u=ustar, v=0) == r:
            return r, wall
    raise IrrationalThreshold("threshold root reconstruction failed")


def _symbolic_vanishing(v_cur: Fraction) -> tuple[Fraction, Poly]:
    return v_cur, Poly.const(v_cur)


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

    ``family`` maps curve names to polynomials in (u, v), affine in v.
    Scanning starts at v = 0 and stops at the pseudoeffective threshold,
    i.e. where the volume of the positive part first vanishes (or at
    ``v_max`` when supplied).  Walls are discovered at an exact rational
    sample of u, re-solved symbolically, and the u-interval is split
    whenever two walls cross inside it.
    """
    if _depth > 12:
        raise NoConvergence("chamber recursion too deep")
    family = {k: (p if isinstance(p, Poly) else Poly.const(p))
              for k, p in family.items()}
    try:
        chambers = _scan(lat, family, u_interval, v_max)
        _verify_chambers(lat, family, chambers)
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
        # Candidate walls: external curves entering, support coefficients
        # leaving, and the supplied outer bound.
        events: list[tuple[Fraction, str, str]] = []
        for c in lat.curves:
            if c in support:
                continue
            g = lat.pairing(p_sym, c)
            g = g if isinstance(g, Poly) else Poly.const(g)
            if not g:
                continue
            val, slope = _affine_in_v(g, ustar, v_cur)
            if val < 0:
                raise NoConvergence(
                    f"negative pairing with {c} inside a chamber")
            if slope < 0 and not (val == 0 and slope == 0):
                events.append((v_cur + val / (-slope), "enter", c))
            elif val == 0 and slope == 0 and g.degree("u") > 0:
                raise _SplitRequest(ustar)
        for s in support:
            n_c = n_sym.get(s, Poly())
            val, slope = _affine_in_v(n_c, ustar, v_cur)
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

        vol = lat.dot(p_sym, p_sym)
        vol = vol if isinstance(vol, Poly) else Poly.const(vol)
        next_wall = min((e[0] for e in events), default=None)
        threshold = _vol_threshold(vol, ustar, v_cur,
                                   next_wall if next_wall is not None
                                   else limit_num)
        if threshold is not None and (next_wall is None
                                      or threshold[0] <= next_wall):
            r, wall_sym = threshold
            if r > v_cur:
                chambers.append(Chamber2D(u_interval, wall_cur, wall_sym,
                                          p_sym, n_sym, tuple(support)))
            return chambers
        if next_wall is None:
            raise Unbounded("family stays big: no wall and no threshold")

        triggers = [e for e in events if e[0] == next_wall]
        stoppers = [e for e in triggers if e[1] == "stop"]
        walls = []
        for _, kind, name in triggers:
            if kind == "enter":
                walls.append(_symbolic_wall(lat.pairing(p_sym, name), ustar))
            elif kind == "leave":
                walls.append(_symbolic_wall(n_sym.get(name, Poly()), ustar))
            else:
                walls.append(v_max)
        wall_sym = walls[0]
        for w in walls[1:]:
            if w != wall_sym:
                raise _SplitRequest(ustar)
        if next_wall > v_cur:
            chambers.append(Chamber2D(u_interval, wall_cur, wall_sym,
                                      p_sym, n_sym, tuple(support)))
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


def _verify_chambers(lat: SurfaceLattice, family: dict[str, Poly],
                     chambers: list[Chamber2D]):
    """Vertex checks: wall ordering, positivity, orthogonality.

    Affine data makes checks at chamber corners sufficient.  A wall
    crossing inside the u-interval triggers a split of the scan.
    """
    for ch in chambers:
        u0, u1 = ch.u_interval.lo, ch.u_interval.hi
        width = ch.v_hi - ch.v_lo
        for u in (u0, u1):
            w = width.eval(u=u, v=0)
            if w < 0:
                root = _affine_root_between(width, u0, u1)
                raise _SplitRequest(root)
        pairings = {c: lat.pairing(ch.positive, c) for c in lat.curves}
        for s in ch.support:
            if not _is_zero(pairings[s]):
                raise NoConvergence(f"orthogonality failed for {s}")
        for u in (u0, u1):
            for vp in (ch.v_lo, ch.v_hi):
                v = vp.eval(u=u, v=0)
                for c, g in pairings.items():
                    gval = g.eval(u=u, v=v) if isinstance(g, Poly) else g
                    if gval < 0:
                        raise NoConvergence(
                            f"P negative against {c} at a chamber vertex")
                for s, coeff in ch.negative.items():
                    nval = coeff.eval(u=u, v=v)
                    if nval < 0:
                        raise NoConvergence(
                            f"negative part coefficient of {s} at a vertex")


def _affine_root_between(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    if p.degree("u") != 1:
        raise WallDegeneracy("cannot locate a wall crossing exactly")
    c1 = p.coefficient(1, 0)
    c0 = p.coefficient(0, 0)
    root = -c0 / c1
    if not (lo < root < hi):
        raise WallDegeneracy("wall crossing outside the sample interval")
    return root


# -- threefold chamber verification ----------------------------------------


@dataclass(frozen=True)
class ThreefoldChamber:
    """One supplied chamber of a threefold decomposition: a u-interval,
    the birational model it lives on, and affine positive/negative parts."""

    interval: Interval
    model: str
    positive: dict[str, Poly]
    negative: dict[str, Poly]


def _degree_form(model: ToricModel, d: dict[str, Poly]):
    idx = {k: model.divisor_index(k) for k in d}
    return tuple(
        sum((c * row[idx[k]] for k, c in d.items()), Poly())
        for row in model.grading)


def _as_poly_div(d: dict) -> dict[str, Poly]:
    return {k: (p if isinstance(p, Poly) else Poly.const(p))
            for k, p in d.items()}


def threefold_chamber_volume(models: dict[str, ToricModel],
                             chambers: list[ThreefoldChamber],
                             total: dict[str, Poly]) -> PiecewisePolynomial:
    """Verify a supplied chamber decomposition and return vol(u) = P(u)^3.

    Per chamber the four defining conditions are proved exactly: P is nef
    against the model's Mori generators at both endpoints, N is effective,
    P + N agrees with the total family in the degree lattice, and the
    resulting cubic pieces match at the walls (small modifications preserve
    the volume).
    """
    total = _as_poly_div(total)
    pieces = []
    ordered = sorted(chambers, key=lambda c: (c.interval.lo, c.interval.hi))
    for ch in ordered:
        model = models.get(ch.model)
        if model is None:
            raise DecompositionMismatch(f"unknown model {ch.model!r}")
        pos = _as_poly_div(ch.positive)
        neg = _as_poly_div(ch.negative)
        label = f"chamber {ch.interval} on {ch.model}"
        combined = dict(pos)
        for k, c in neg.items():
            combined[k] = combined.get(k, Poly()) + c
        if _degree_form(model, combined) != _degree_form(model, total):
            raise DecompositionMismatch(
                f"{label}: P + N is not the decomposed family")
        for u in (ch.interval.lo, ch.interval.hi):
            for k, c in neg.items():
                if c.eval(u=u, v=0) < 0:
                    raise DecompositionMismatch(
                        f"{label}: negative part coefficient of {k} < 0")
            pu = {model.divisor_index(k): c.eval(u=u, v=0)
                  for k, c in pos.items()}
            ok, violated = model.nef_check({i: c for i, c in pu.items() if c})
            if not ok:
                raise NefViolation(
                    f"{label}: P({rat_str(u)}) negative on {violated}")
        vol = model.intersection_form(pos, pos, pos)
        vol = vol if isinstance(vol, Poly) else Poly.const(vol)
        pieces.append((ch.interval, vol))
    for (iv1, p1), (iv2, p2) in zip(pieces, pieces[1:]):
        if iv1.hi == iv2.lo:
            left = p1.eval(u=iv1.hi, v=0)
            right = p2.eval(u=iv2.lo, v=0)
            if left != right:
                raise DiscontinuousVolume(
                    f"volume jumps at u = {rat_str(iv1.hi)}: "
                    f"{rat_str(left)} vs {rat_str(right)}")
    return PiecewisePolynomial(pieces, var="u", check_continuity=False)


def pseudoeffective_threshold(model: ToricModel, family: dict[str, Poly],
                              generators=None) -> Fraction:
    """Largest u with the family still effective, from exact affine
    coordinates in the effective-generator basis."""
    family = _as_poly_div(family)
    names = generators if generators is not None else model.effective_generators
    gen_divs = [{model.divisor_index(n): Fraction(1)} for n in names]
    cols = [model.degree(g) for g in gen_divs]
    rows = [[cols[j][r] for j in range(len(cols))]
            for r in range(len(model.grading))]
    coords = _linalg.solve(rows, list(_degree_form(model, family)))
    if coords is None:
        raise DecompositionMismatch("family degree outside the generator span")
    bound = None
    for coord in coords:
        coord = coord if isinstance(coord, Poly) else Poly.const(coord)
        if coord.degree("u") > 1:
            raise ZariskiError("threshold needs affine degree coordinates")
        c1 = coord.coefficient(1, 0)
        c0 = coord.coefficient(0, 0)
        if c1 < 0:
            b = -c0 / c1
            bound = b if bound is None else min(bound, b)
    if bound is None:
        raise Unbounded("no degree coordinate decreases in u")
    return bound
