"""Toric models: fans with a Cox grading, exact intersection numbers of
boundary divisors, nef and effective-cone tests, and polytope barycenters.

A model is a simplicial fan of dimension 2 or 3 given by its rays and
maximal cones, together with an integer grading matrix whose columns are
the divisor-class degrees of the boundary divisors.  The grading is checked
against the fan on construction, so two divisors are linearly equivalent
exactly when their degree vectors agree.  A repeated divisor in a product
is rewritten through a principal divisor div(chi^m) = sum_k <m, v_k> F_k
(Fulton, Introduction to Toric Varieties, Ch. 5).

Lattice work is done in ``int``: one integer adjugate per maximal cone
gives its multiplicity and the relations of all its rays, and the
barycenter runs on vertices scaled to integer points.

Divisor classes are finite maps from a ray index, an ``F<i>`` name or an
alias to a coefficient; this module alone resolves the keys.  Degrees,
effective coordinates and the intersection form also take coefficients
in any Q-algebra (e.g. polynomials in the chamber parameter).  Curve
classes are stored through their pairing vector against the boundary
divisors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import KstabError, _linalg
from .exactcore import rat

Divisor = dict[int, Fraction]


class ToricError(KstabError):
    """Base class for toric-layer errors."""


class IndexOutOfRange(ToricError):
    pass


class GradingMismatch(ToricError):
    """The grading does not present the class group of the fan."""


class SingularBasis(ToricError):
    """Effective-cone generator degrees do not form a basis."""


class DegeneratePolytope(ToricError):
    """The vertex set spans no 3-dimensional volume."""


def _int(x, what: str) -> int:
    """A model integer: an exact ``int``.  A float, bool or string raises
    ToricError naming ``what``."""
    if type(x) is not int:
        raise ToricError(f"{what} must be an integer, got {x!r}")
    return x


def _array(values, what: str, nonempty: bool = False):
    """A model array, non-empty if asked; else ToricError naming ``what``."""
    if not isinstance(values, (list, tuple, set, frozenset)) or \
            (nonempty and not values):
        raise ToricError(f"{what} must be a{' non-empty' if nonempty else 'n'}"
                         f" array, got {values!r}")
    return values


def _ints(values, what: str) -> tuple[int, ...]:
    """A row of model integers (see :func:`_int`)."""
    return tuple(_int(x, f"an entry of {what}") for x in _array(values, what))


def _names(values, what: str) -> tuple[str, ...]:
    """A list of model names: an array of strings, never a string."""
    if not isinstance(values, (list, tuple)) or \
            not all(isinstance(x, str) for x in values):
        raise ToricError(f"{what} must be an array of strings, got {values!r}")
    return tuple(values)


def _object(value, what: str) -> dict:
    """A map of model names; an omitted one (None) is empty."""
    if not isinstance(value, (dict, type(None))):
        raise ToricError(f"{what} must be an object, got {value!r}")
    return value or {}


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


def _adjugate(rows):
    """The determinant of a 2x2 or 3x3 integer matrix and the columns w_i
    of its adjugate, so that <rows[j], w_i> = det * [i == j]."""
    if len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        cols = [(b1, -b0), (-a1, a0)]
    else:
        r0, r1, r2 = rows
        cols = [_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)]
    return _dot(rows[0], cols[0]), cols


def _orderings(part) -> int:
    """k!/prod(count!): the orderings of a sorted multiset of k terms."""
    n, run = math.factorial(len(part)), 1
    for (a, _), (b, _) in zip(part, part[1:]):
        run = run + 1 if a == b else 1
        n //= run
    return n


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
        self.aliases = {k: _int(i, f"alias {k!r}")
                        for k, i in _object(aliases, "aliases").items()}
        self.rays = tuple(_ints(v, "a ray") for v in rays)
        self.dim = len(self.rays[0])
        if self.dim not in (2, 3):
            raise ToricError("only surface and threefold fans are supported")
        if any(len(v) != self.dim for v in self.rays):
            raise ToricError("rays of mixed dimension")
        self.max_cones = tuple(frozenset(_ints(c, "a maximal cone"))
                               for c in max_cones)
        # Per maximal cone: det and each ray's adjugate column, and 1/|det|.
        self._cone_adj: dict[frozenset[int], tuple[int, dict[int, tuple]]] = {}
        self._inv_mult: dict[frozenset[int], Fraction] = {}
        for cone in self.max_cones:
            if len(cone) != self.dim:
                raise ToricError(f"maximal cone {set(cone)} has wrong size")
            basis = sorted(cone)
            d, cols = _adjugate([self.rays[i] for i in basis])
            if d == 0:
                raise ToricError(f"cone rays {set(cone)} are dependent")
            self._cone_adj[cone] = (d, dict(zip(basis, cols)))
            self._inv_mult[cone] = Fraction(1, abs(d))
        grading = [_ints(row, "a grading row") for row in grading]
        if any(len(row) < len(self.rays) for row in grading):
            raise ToricError("grading narrower than the ray count")
        # Columns beyond the ray count (extra fixture coordinates) are
        # irrelevant for intersection numbers and dropped here.
        self.grading = tuple(tuple(row[:len(self.rays)]) for row in grading)
        self._check_grading()
        self.curve_specs = {k: _ints(v, f"curve {k!r}")
                            for k, v in _object(curves, "curves").items()}
        for k, v in self.curve_specs.items():
            if len(v) != 2:
                raise ToricError(f"curve {k!r} must name two rays, got {v!r}")
        self.mori_generators = _names(mori_generators, "mori_generators")
        self.effective_generators = _names(effective_generators,
                                           "effective_generators")
        self._prod_cache: dict[tuple[int, ...], Fraction] = {}
        self._rep_cache: dict[tuple[int, frozenset[int]], Divisor] = {}
        self._curve_cache: dict[str, tuple[Fraction, ...]] = {}

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
        """The ray of an ``int``, alias or ``F<i>``; else ToricError."""
        if type(name) is int:
            idx = name
        elif not isinstance(name, str):
            raise ToricError(
                f"divisor name {name!r} is not a string or an integer")
        elif name in self.aliases:
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
        return self._inv_mult.get(frozenset((i, j, k)), Fraction(0))

    def _relation_rep(self, i: int, cone: frozenset[int]) -> Divisor:
        """F_i ~ -sum_{k not in cone} <m, v_k> F_k, for a maximal cone
        containing ray i and m = w_i / det, w_i its adjugate column."""
        key = (i, cone)
        if key not in self._rep_cache:
            d, cols = self._cone_adj[cone]
            rep: Divisor = {}
            for k, v in enumerate(self.rays):
                if k not in cone:
                    num = _dot(cols[i], v)
                    if num:
                        rep[k] = Fraction(-num, d)
            self._rep_cache[key] = rep
        return self._rep_cache[key]

    def _monomial(self, multiset: tuple[int, ...]) -> Fraction:
        """Product of boundary divisors indexed by a sorted multiset."""
        if multiset not in self._prod_cache:
            self._prod_cache[multiset] = self._monomial_uncached(multiset)
        return self._prod_cache[multiset]

    def _monomial_uncached(self, multiset: tuple[int, ...]) -> Fraction:
        support = frozenset(multiset)
        if len(support) == len(multiset):
            return self._inv_mult.get(support, Fraction(0))
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

    def intersection_product(self, *divisors):
        """Multilinear intersection number of ``dim`` divisor classes, with
        coefficients in Q or any Q-algebra (e.g. polynomials in the chamber
        parameter); see :meth:`_expand`.  ``intersection_form`` is the same
        method."""
        return self._expand(divisors)

    intersection_form = intersection_product

    def _expand(self, divisors):
        """The multilinear expansion of a product of ``dim`` divisors: each
        nonzero boundary monomial times its coefficients, summed.

        Arguments equal after normalization form one group.  A group of k
        equal divisors runs over the multisets of k of its terms
        (``combinations_with_replacement``), each weighted by its number of
        orderings k!/prod(count!); the product runs over the groups, so
        distinct arguments are groups of one with weight 1.
        """
        if len(divisors) != self.dim:
            raise ToricError(
                f"{self.name} needs {self.dim} divisors, got {len(divisors)}")
        args = [self.normalize_divisor(d) for d in divisors]
        groups = [d for i, d in enumerate(args) if d not in args[:i]]
        total = Fraction(0)
        for combo in itertools.product(*(
                itertools.combinations_with_replacement(
                    sorted(d.items()), args.count(d))
                for d in groups)):
            term = self._monomial(
                tuple(sorted(i for part in combo for i, _ in part)))
            if term:
                term *= math.prod(map(_orderings, combo))
                for part in combo:
                    for _, c in part:
                        term = c * term
                total = term + total
        return total

    # -- curves and cones -------------------------------------------------

    def curve(self, name: str) -> tuple[Fraction, ...]:
        """The pairing vector (F_i . F_j . F_k for each ray k) of the named
        1-stratum F_i . F_j."""
        if name not in self._curve_cache:
            if name not in self.curve_specs:
                raise ToricError(
                    f"model {self.name} defines no curve {name!r}")
            i, j = self.curve_specs[name]
            self._curve_cache[name] = tuple(
                self._monomial(tuple(sorted((i, j, k))))
                for k in range(len(self.rays)))
        return self._curve_cache[name]

    def pair_curve_divisor(self, curve: str, d: Divisor) -> Fraction:
        pairing = self.curve(curve)
        return sum((c * pairing[i]
                    for i, c in self.normalize_divisor(d).items()),
                   Fraction(0))

    def nef_check(self, d: Divisor) -> tuple[bool, list[str]]:
        """Pair against the Mori generators; list the violated ones."""
        violated = [
            n for n in self.mori_generators
            if self.pair_curve_divisor(n, d) < 0
        ]
        return (not violated, violated)

    def effective_check(self, d: Divisor) -> bool:
        """True when the degree coordinates in the effective-generator
        basis are all nonnegative."""
        return all(x >= 0 for x in self.effective_coordinates(d))

    def effective_coordinates(self, d: Divisor):
        cols = [self.degree({n: 1}) for n in self.effective_generators]
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
        rays=_array(data["rays"], "rays", nonempty=True),
        max_cones=_array(data["max_cones"], "max_cones"),
        grading=_array(data["grading"], "grading"),
        curves=data.get("curves"),
        mori_generators=data.get("mori_generators", ()),
        effective_generators=data.get("effective_generators", ()),
        aliases=data.get("aliases"),
    )


# -- polytope barycenter ---------------------------------------------------


def polytope_barycenter(vertices) -> tuple[Fraction, Fraction, Fraction]:
    """Volume-weighted centroid of the convex hull of rational 3-points.

    The n distinct points are scaled by S = D * n, D the lcm of their
    coordinate denominators, so they and their centroid are integral.  The
    facets come from a brute-force supporting-plane search (inputs are
    small), keyed by primitive normal and offset; each is ordered by a
    monotone chain and fanned into tetrahedra over the centroid, all in
    ``int``.  Coordinate k is W_k / (4 V S), W_k the 6-volume-weighted sum
    of the tetrahedra's vertex sums and V their total 6-volume.  Points
    inside the hull, on a facet or on an edge are allowed and ignored.
    """
    pts = []
    for v in vertices:
        p = tuple(rat(x) for x in v)
        if len(p) != 3:
            raise ToricError("barycenter requires 3-dimensional points")
        pts.append(p)
    pts = list(dict.fromkeys(pts))
    if len(pts) < 4:
        raise DegeneratePolytope("fewer than 4 distinct vertices")
    n = len(pts)
    scale = math.lcm(*(x.denominator for p in pts for x in p)) * n
    pts = [tuple(x.numerator * (scale // x.denominator) for x in p)
           for p in pts]
    # Every scaled coordinate is a multiple of n, so the centroid is exact.
    center = tuple(sum(p[k] for p in pts) // n for k in range(3))

    seen: set[tuple] = set()
    facets: dict[tuple, list] = {}
    for i, j, k in itertools.combinations(range(n), 3):
        normal = _cross(_sub(pts[j], pts[i]), _sub(pts[k], pts[i]))
        if normal == (0, 0, 0):
            continue
        g = math.gcd(*normal)
        normal = tuple(x // g for x in normal)
        off = _dot(normal, pts[i])
        side = _dot(normal, center) - off
        if side == 0:
            continue  # plane through the centroid cannot support the hull
        if side > 0:
            normal, off = tuple(-x for x in normal), -off
        key = (normal, off)
        if key in seen:
            continue
        seen.add(key)
        heights = [_dot(normal, p) - off for p in pts]
        if all(h <= 0 for h in heights):
            facets[key] = [p for p, h in zip(pts, heights) if h == 0]

    vol6_sum = 0
    weighted = [0, 0, 0]
    for (normal, _), members in facets.items():
        anchor, *ring = _facet_cycle(members, normal)
        for b, c in zip(ring, ring[1:]):
            vol6 = abs(_dot(_sub(anchor, center),
                            _cross(_sub(b, center), _sub(c, center))))
            vol6_sum += vol6
            for k in range(3):
                weighted[k] += vol6 * (center[k] + anchor[k] + b[k] + c[k])
    if not vol6_sum:
        raise DegeneratePolytope("vertices are coplanar")
    return tuple(Fraction(w, 4 * vol6_sum * scale) for w in weighted)


def _facet_cycle(points, normal):
    """The vertices of a convex facet in boundary order.

    An exact monotone chain on the projection along the largest normal
    component; only strict turns are kept, so points inside the facet or
    on its edges drop out.
    """
    axis = max(range(3), key=lambda k: abs(normal[k]))
    a, b = (k for k in range(3) if k != axis)

    def turn(o, p, q):
        return (p[a] - o[a]) * (q[b] - o[b]) - (p[b] - o[b]) * (q[a] - o[a])

    ordered = sorted(points, key=lambda p: (p[a], p[b]))
    cycle = []
    for run in (ordered, ordered[::-1]):
        chain: list = []
        for p in run:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        cycle += chain[:-1]
    return cycle
