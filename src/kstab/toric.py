"""Toric models: fans with a Cox grading, exact intersection numbers of
boundary divisors, nef and effective-cone tests, and polytope barycenters.

A model is a simplicial fan of dimension 2 or 3 given by its rays and
maximal cones, together with an integer grading matrix whose columns are
the divisor-class degrees of the boundary divisors.  The grading is checked
against the fan on construction, so two divisors are linearly equivalent
exactly when their degree vectors agree.  A repeated divisor in a product
is rewritten through a principal divisor div(chi^m) = sum_k <m, v_k> F_k
(Fulton, Introduction to Toric Varieties, Ch. 5).

Divisor classes are finite maps ``ray index -> Fraction``; curve classes
are stored through their pairing vector against the boundary divisors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key

from . import _linalg
from .exactcore import rat

Divisor = dict[int, Fraction]


class ToricError(Exception):
    """Base class for toric-layer errors."""


class IndexOutOfRange(ToricError):
    pass


class GradingMismatch(ToricError):
    """The grading does not present the class group of the fan."""


class SingularBasis(ToricError):
    """Effective-cone generator degrees do not form a basis."""


class DegeneratePolytope(ToricError):
    """The vertex set spans no 3-dimensional volume."""


def divisor(coeffs: dict) -> Divisor:
    """Normalize a divisor mapping, dropping zero coefficients."""
    out: Divisor = {}
    for k, c in coeffs.items():
        c = rat(c)
        if c:
            out[int(k)] = c
    return out


@dataclass(frozen=True)
class CurveClass:
    """A curve known through its intersection numbers with the F_i."""

    name: str
    pairing: tuple[Fraction, ...]

    def dot(self, d: Divisor) -> Fraction:
        return sum((c * self.pairing[i] for i, c in d.items()), Fraction(0))


class ToricModel:
    """One birational model: rays, maximal cones, grading, cone data.

    ``curves`` names the 1-dimensional toric strata F_i . F_j used as Mori
    generators; their pairing vectors are derived from the intersection
    tensor, not supplied by hand.
    """

    def __init__(self, name: str, rays, max_cones, grading,
                 curves: dict[str, tuple[int, int]] | None = None,
                 mori_generators: tuple[str, ...] = (),
                 effective_generators: tuple[str, ...] = (),
                 aliases: dict[str, int] | None = None):
        self.name = name
        self.aliases = dict(aliases or {})
        self.rays = tuple(tuple(int(x) for x in v) for v in rays)
        self.dim = len(self.rays[0])
        if self.dim not in (2, 3):
            raise ToricError("only surface and threefold fans are supported")
        if any(len(v) != self.dim for v in self.rays):
            raise ToricError("rays of mixed dimension")
        self.max_cones = tuple(frozenset(int(i) for i in c) for c in max_cones)
        # Reciprocal multiplicity 1/|det| of each maximal cone.
        self._inv_mult: dict[frozenset[int], Fraction] = {}
        for cone in self.max_cones:
            if len(cone) != self.dim:
                raise ToricError(f"maximal cone {set(cone)} has wrong size")
            d = _linalg.det([self.rays[i] for i in sorted(cone)])
            if d == 0:
                raise ToricError(f"cone rays {set(cone)} are dependent")
            self._inv_mult[cone] = 1 / abs(d)
        grading = [list(map(int, row)) for row in grading]
        if any(len(row) < len(self.rays) for row in grading):
            raise ToricError("grading narrower than the ray count")
        # Columns beyond the ray count (extra fixture coordinates) are
        # irrelevant for intersection numbers and dropped here.
        self.grading = tuple(tuple(row[:len(self.rays)]) for row in grading)
        self._check_grading()
        self.curve_specs = {k: (int(i), int(j))
                            for k, (i, j) in (curves or {}).items()}
        self.mori_generators = tuple(mori_generators)
        self.effective_generators = tuple(effective_generators)
        self._prod_cache: dict[tuple[int, ...], Fraction] = {}
        self._rep_cache: dict[tuple[int, frozenset[int]], Divisor] = {}
        self._curve_cache: dict[str, CurveClass] = {}

    def _check_grading(self):
        """The grading's kernel must be exactly the span of the relations
        sum_k v_k[a] F_k, one per lattice coordinate a."""
        for row in self.grading:
            for a in range(self.dim):
                if sum(v[a] * g for v, g in zip(self.rays, row)):
                    raise GradingMismatch(
                        f"grading of {self.name} does not annihilate the"
                        f" relation of lattice coordinate {a}")
        rank, want = _linalg.rank(self.grading), len(self.rays) - self.dim
        if rank != want:
            raise GradingMismatch(
                f"grading of {self.name} has rank {rank}, expected {want}")

    # -- basic queries --------------------------------------------------

    def divisor_index(self, name) -> int:
        if isinstance(name, int):
            self._check_index(name)
            return name
        if name in self.aliases:
            idx = self.aliases[name]
        elif name.startswith("F") and name[1:].isdigit():
            idx = int(name[1:])
        else:
            raise ToricError(f"unknown divisor name {name!r}")
        self._check_index(idx)
        return idx

    def normalize_divisor(self, d: dict) -> dict:
        """Accept divisors keyed by ray index or by 'F<i>' name."""
        out: dict = {}
        for k, c in d.items():
            i = self.divisor_index(k)
            out[i] = out[i] + c if i in out else c
        return out

    def _check_index(self, i: int):
        if not 0 <= i < len(self.rays):
            raise IndexOutOfRange(f"ray index {i} out of range for {self.name}")

    def degree(self, d: Divisor) -> tuple[Fraction, ...]:
        """Degree vector of a divisor under the grading."""
        d = self.normalize_divisor(d)
        return tuple(
            sum((c * row[i] for i, c in d.items()), Fraction(0))
            for row in self.grading)

    # -- intersection numbers --------------------------------------------

    def triple_intersection_distinct(self, i: int, j: int, k: int) -> Fraction:
        """F_i . F_j . F_k for pairwise distinct rays on a threefold fan.

        Zero when the rays span no maximal cone, else the reciprocal of the
        absolute determinant of the three ray vectors (the cone multiplicity).
        """
        if self.dim != 3:
            raise ToricError("triple products need a threefold fan")
        for t in (i, j, k):
            self._check_index(t)
        if len({i, j, k}) != 3:
            raise ToricError("indices must be pairwise distinct")
        return self._distinct_product((i, j, k))

    def _distinct_product(self, indices: tuple[int, ...]) -> Fraction:
        return self._inv_mult.get(frozenset(indices), Fraction(0))

    def _relation_rep(self, i: int, cone: frozenset[int]) -> Divisor:
        """F_i ~ -sum_{k not in cone} <m, v_k> F_k, for a maximal cone
        containing ray i and m with <m, v_j> = [j == i] on its rays."""
        key = (i, cone)
        if key not in self._rep_cache:
            basis = sorted(cone)
            m = _linalg.solve([self.rays[j] for j in basis],
                              [Fraction(j == i) for j in basis])
            rep: Divisor = {}
            for k, v in enumerate(self.rays):
                if k not in cone:
                    c = -sum(x * y for x, y in zip(m, v))
                    if c:
                        rep[k] = c
            self._rep_cache[key] = rep
        return self._rep_cache[key]

    def _monomial(self, multiset: tuple[int, ...]) -> Fraction:
        """Product of boundary divisors indexed by a sorted multiset."""
        if multiset in self._prod_cache:
            return self._prod_cache[multiset]
        value = self._monomial_uncached(multiset)
        self._prod_cache[multiset] = value
        return value

    def _monomial_uncached(self, multiset: tuple[int, ...]) -> Fraction:
        support = frozenset(multiset)
        if len(support) == len(multiset):
            return self._distinct_product(multiset)
        cone = next((c for c in self.max_cones if support <= c), None)
        if cone is None:
            # Boundary divisors sharing no cone do not meet.
            return Fraction(0)
        counts = {i: multiset.count(i) for i in support}
        rep_idx = max(counts, key=lambda i: (counts[i], i))
        rest = list(multiset)
        rest.remove(rep_idx)
        # Each term swaps one copy of F_rep_idx for a ray outside the
        # support, so the repetition falls and the recursion terminates.
        total = Fraction(0)
        for k, c in self._relation_rep(rep_idx, cone).items():
            total += c * self._monomial(tuple(sorted(rest + [k])))
        return total

    def intersection_product(self, *divisors: Divisor) -> Fraction:
        """Multilinear intersection number of ``dim`` divisor classes.

        One copy of a repeated boundary divisor is replaced by a relation
        representative supported off the first maximal cone containing the
        product's support.
        """
        if len(divisors) != self.dim:
            raise ToricError(
                f"{self.name} needs {self.dim} divisors, got {len(divisors)}")
        divisors = tuple(self.normalize_divisor(d) for d in divisors)
        total = Fraction(0)
        for combo in itertools.product(*(d.items() for d in divisors)):
            coeff = Fraction(1)
            idxs = []
            for i, c in combo:
                self._check_index(i)
                coeff *= c
                idxs.append(i)
            if coeff:
                total += coeff * self._monomial(tuple(sorted(idxs)))
        return total

    def intersection_form(self, *divisors):
        """Like intersection_product but with coefficients in any Q-algebra
        (e.g. polynomials in the chamber parameter)."""
        if len(divisors) != self.dim:
            raise ToricError("wrong number of divisor arguments")
        divisors = tuple(self.normalize_divisor(d) for d in divisors)
        total = None
        for combo in itertools.product(*(d.items() for d in divisors)):
            idxs = tuple(sorted(i for i, _ in combo))
            base = self._monomial(idxs)
            if not base:
                continue
            term = base
            for _, c in combo:
                term = c * term
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    # -- curves and cones -------------------------------------------------

    def curve(self, name: str) -> CurveClass:
        """The named 1-stratum F_i . F_j with its derived pairing vector."""
        if name in self._curve_cache:
            return self._curve_cache[name]
        if name not in self.curve_specs:
            raise ToricError(f"model {self.name} defines no curve {name!r}")
        i, j = self.curve_specs[name]
        pairing = tuple(
            self._monomial(tuple(sorted((i, j, k))))
            for k in range(len(self.rays)))
        c = CurveClass(name, pairing)
        self._curve_cache[name] = c
        return c

    def pair_curve_divisor(self, curve: CurveClass | str, d: Divisor) -> Fraction:
        if isinstance(curve, str):
            curve = self.curve(curve)
        return curve.dot(self.normalize_divisor(d))

    def nef_check(self, d: Divisor,
                  generators=None) -> tuple[bool, list[str]]:
        """Pair against the Mori generators; list the violated ones."""
        names = generators if generators is not None else self.mori_generators
        violated = [
            n for n in names if self.pair_curve_divisor(n, d) < 0
        ]
        return (not violated, violated)

    def effective_check(self, d: Divisor, generators=None) -> bool:
        """True when the degree coordinates in the effective-generator
        basis are all nonnegative."""
        return all(x >= 0 for x in self.effective_coordinates(d, generators))

    def effective_coordinates(self, d: Divisor, generators=None):
        names = generators if generators is not None else self.effective_generators
        gen_divs = [divisor({self.divisor_index(n): 1}) for n in names]
        cols = [self.degree(g) for g in gen_divs]
        rows = [[cols[j][r] for j in range(len(cols))]
                for r in range(len(self.grading))]
        if _linalg.rank(rows) < len(cols):
            raise SingularBasis(
                f"effective generators of {self.name} are degree-dependent")
        sol = _linalg.solve(rows, list(self.degree(d)))
        if sol is None:
            raise SingularBasis(
                f"divisor degree outside the generator span on {self.name}")
        return sol


def parse_model(data: dict) -> ToricModel:
    """Build a ToricModel from its fixture dictionary."""
    return ToricModel(
        name=data["name"],
        rays=data["rays"],
        max_cones=data["max_cones"],
        grading=data["grading"],
        curves={k: tuple(v) for k, v in data.get("curves", {}).items()},
        mori_generators=tuple(data.get("mori_generators", ())),
        effective_generators=tuple(data.get("effective_generators", ())),
        aliases={k: int(v) for k, v in data.get("aliases", {}).items()},
    )


# -- polytope barycenter ---------------------------------------------------


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def polytope_barycenter(vertices) -> tuple[Fraction, Fraction, Fraction]:
    """Volume-weighted centroid of the convex hull of rational 3-points.

    The hull facets are found by brute-force supporting-plane search (the
    inputs are small vertex lists), each facet is fanned into triangles,
    and the solid is decomposed into tetrahedra over the vertex centroid.
    The result is independent of the triangulation.
    """
    pts = []
    for v in vertices:
        p = tuple(rat(x) for x in v)
        if len(p) != 3:
            raise ToricError("barycenter requires 3-dimensional points")
        if p not in pts:
            pts.append(p)
    if len(pts) < 4:
        raise DegeneratePolytope("fewer than 4 distinct vertices")
    n = len(pts)
    center = tuple(sum(p[k] for p in pts) / n for k in range(3))

    planes: dict[tuple, list[int]] = {}
    for i, j, k in itertools.combinations(range(n), 3):
        normal = _cross(_sub(pts[j], pts[i]), _sub(pts[k], pts[i]))
        if normal == (0, 0, 0):
            continue
        side = _dot(normal, _sub(center, pts[i]))
        if side == 0:
            continue  # plane through the centroid cannot support the hull
        if side > 0:
            normal = tuple(-x for x in normal)
        offsets = [_dot(normal, _sub(pts[m], pts[i])) for m in range(n)]
        if any(o > 0 for o in offsets):
            continue
        # Canonical key: primitive integer normal plus its offset.
        denom_lcm = 1
        for x in normal:
            denom_lcm = denom_lcm * x.denominator // _gcd(denom_lcm, x.denominator)
        ints = [int(x * denom_lcm) for x in normal]
        g = 0
        for x in ints:
            g = _gcd(g, abs(x))
        prim = tuple(x // g for x in ints)
        off = _dot(tuple(map(Fraction, prim)), pts[i])
        key = (prim, off)
        planes[key] = [m for m, o in enumerate(offsets) if o == 0]

    if not planes:
        raise DegeneratePolytope("vertices are coplanar")

    volume = Fraction(0)
    weighted = [Fraction(0)] * 3
    for (normal, _), members in planes.items():
        ordered = _order_facet([pts[m] for m in members], normal)
        anchor = ordered[0]
        for b, c in zip(ordered[1:], ordered[2:]):
            vol6 = _dot(_sub(anchor, center),
                        _cross(_sub(b, center), _sub(c, center)))
            vol = abs(vol6) / 6
            if vol == 0:
                continue
            volume += vol
            centroid = tuple(
                (center[k] + anchor[k] + b[k] + c[k]) / 4 for k in range(3))
            for k in range(3):
                weighted[k] += vol * centroid[k]
    if volume == 0:
        raise DegeneratePolytope("hull has zero volume")
    return tuple(w / volume for w in weighted)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


def _order_facet(points, normal):
    """Order coplanar points around their centroid, exactly.

    Projects out the largest normal component and sorts by angle with a
    cross-product comparator; no floating point is involved.
    """
    axis = max(range(3), key=lambda k: abs(normal[k]))
    keep = [k for k in range(3) if k != axis]
    flat = [(p[keep[0]], p[keep[1]]) for p in points]
    cx = sum(x for x, _ in flat) / len(flat)
    cy = sum(y for _, y in flat) / len(flat)
    rel = [(x - cx, y - cy) for x, y in flat]

    def half(p):
        return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1

    def compare(a, b):
        pa, pb = rel[a], rel[b]
        ha, hb = half(pa), half(pb)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = pa[0] * pb[1] - pa[1] * pb[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    order = sorted(range(len(points)), key=cmp_to_key(compare))
    return [points[i] for i in order]
