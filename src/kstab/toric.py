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
barycenter runs on vertices scaled to integer points.  The monomial table
holds L^dim times each degree-dim boundary monomial, L the lcm of the
|det sigma|: an integer, since one relation step rewrites a monomial of
repetition excess e (length minus distinct rays) over ones of excess
e - 1 with coefficients over det sigma, so by induction from 1/|det sigma|
its denominator divides L^(1 + e), and e <= dim - 1.

Divisor classes are finite maps from a ray index, an ``F<i>`` name or an
alias to a coefficient; this module alone resolves the keys.  Degrees
and effective coordinates take rational coefficients; only the
intersection form also takes coefficients in any Q-algebra (e.g.
polynomials in the chamber parameter).  A curve class is stored as the
two rays of its 1-stratum F_i . F_j, which must lie in one 2-cone; every
curve, generator, alias and cone is checked when the model is built.

One integer pairing, ``_pairing``, reads L^dim F_rays . d from the table
over d's support alone, for ``curve``, ``pair_curve_divisor``,
``nef_check`` and ``gram``.  The threefold verifier works on the integer
table directly: for P with coefficients (a + b*u) / den,
``facet_products`` gives w_k = P^2 . F_k as integer quadratics in u over
den^2 L^3, one table read per pair of P's support and ray k, and
``nef_check`` reads the sign of P's pairing with each Mori generator.
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
    return sum([x * y for x, y in zip(a, b)])


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _adjugate(rows):
    """The determinant of a 2x2 or 3x3 integer matrix and the columns w_i
    of its adjugate, so that <rows[j], w_i> = det * [i == j].  It stays
    closed-form: ``_linalg.inverse`` is over ten times slower, and every
    model build makes one call per maximal cone."""
    if len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        cols = [(b1, -b0), (-a1, a0)]
    else:
        r0, r1, r2 = rows
        cols = [_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)]
    return _dot(rows[0], cols[0]), cols


class ToricModel:
    """One birational model: rays, maximal cones, grading, cone data.

    ``curves`` names the 1-dimensional toric strata F_i . F_j used as Mori
    generators; their pairings are read from the integer monomial table,
    not supplied by hand.
    """

    def __init__(self, name: str, rays, max_cones, grading,
                 curves: dict[str, tuple[int, int]] | None = None,
                 mori_generators: tuple[str, ...] = (),
                 effective_generators: tuple[str, ...] = (),
                 aliases: dict[str, int] | None = None):
        self.name = name
        rays = _array(rays, "rays", nonempty=True)
        max_cones = _array(max_cones, "max_cones")
        grading = _array(grading, "grading")
        self.aliases = {k: _int(i, f"alias {k!r}")
                        for k, i in _object(aliases, "aliases").items()}
        self.rays = tuple(_ints(v, "a ray") for v in rays)
        self.dim = len(self.rays[0])
        if self.dim not in (2, 3):
            raise ToricError("only surface and threefold fans are supported")
        if any(len(v) != self.dim for v in self.rays):
            raise ToricError("rays of mixed dimension")
        for k, i in self.aliases.items():
            self._check_index(i, f"aliases: {k!r}: ")
        self.max_cones = tuple(frozenset(_ints(c, "a maximal cone"))
                               for c in max_cones)
        # Per maximal cone: det and each ray's adjugate column.
        self._cone_adj: dict[frozenset[int], tuple[int, dict[int, tuple]]] = {}
        for cone in self.max_cones:
            if len(cone) != self.dim:
                raise ToricError(f"maximal cone {set(cone)} has wrong size")
            for i in cone:
                self._check_index(i, "max_cones: ")
            basis = sorted(cone)
            d, cols = _adjugate([self.rays[i] for i in basis])
            if d == 0:
                raise ToricError(f"cone rays {set(cone)} are dependent")
            self._cone_adj[cone] = (d, dict(zip(basis, cols)))
        self._scale = math.lcm(*(abs(d) for d, _ in
                                 self._cone_adj.values())) ** self.dim
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
            self._check_curve(k, v)
        self.mori_generators = _names(mori_generators, "mori_generators")
        for n in self.mori_generators:
            if n not in self.curve_specs:
                raise ToricError(
                    f"mori_generators: {self.name} defines no curve {n!r}")
        self.effective_generators = _names(effective_generators,
                                           "effective_generators")
        for n in self.effective_generators:
            try:
                self.divisor_index(n)
            except ToricError as e:
                raise type(e)(f"effective_generators: {e}") from None
        self._prod_cache: dict[tuple[int, ...], int] = {}
        self._rep_cache: dict[tuple[int, frozenset[int]], dict[int, int]] = {}

    def _check_curve(self, name: str, v: tuple[int, ...]):
        """A curve names two rays of one 2-cone of a threefold fan, so that
        F_i . F_j is a 1-stratum."""
        if len(v) != 2:
            raise ToricError(f"curves: {name!r} must name two rays, got {v!r}")
        for i in v:
            self._check_index(i, f"curves: {name!r}: ")
        if self.dim != 3 or v[0] == v[1] or \
                not any(set(v) <= c for c in self.max_cones):
            raise ToricError(
                f"curves: {name!r} = F{v[0]} . F{v[1]} is not a 1-stratum"
                f" of {self.name}")

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

    def _check_index(self, i: int, what: str = ""):
        if not 0 <= i < len(self.rays):
            raise IndexOutOfRange(
                f"{what}ray index {i} out of range for {self.name}")

    def degree(self, d: Divisor) -> tuple[Fraction, ...]:
        """Degree vector of a divisor under the grading."""
        d = self.normalize_divisor(d)
        return tuple(
            sum((c * row[i] for i, c in d.items()), Fraction(0))
            for row in self.grading)

    # -- intersection numbers --------------------------------------------

    def triple_intersection_distinct(self, i: int, j: int, k: int) -> Fraction:
        """F_i . F_j . F_k for pairwise distinct rays on a threefold fan,
        by ``intersection_product``: zero when the rays span no maximal
        cone, else the reciprocal of the cone multiplicity."""
        if len({i, j, k}) != 3:
            raise ToricError("indices must be pairwise distinct")
        return self.intersection_product({i: 1}, {j: 1}, {k: 1})

    def _relation_rep(self, i: int, cone: frozenset[int]) -> dict[int, int]:
        """The numerators -<w_i, v_k> over det of F_i ~ -sum_{k not in cone}
        <m, v_k> F_k, for a maximal cone containing ray i and m = w_i / det."""
        if (i, cone) not in self._rep_cache:
            w = self._cone_adj[cone][1][i]
            self._rep_cache[i, cone] = {
                k: -num for k, v in enumerate(self.rays)
                if k not in cone and (num := _dot(w, v))}
        return self._rep_cache[i, cone]

    def _monomial(self, multiset: tuple[int, ...]) -> int:
        """L^dim times the boundary monomial of a sorted multiset."""
        if multiset not in self._prod_cache:
            self._prod_cache[multiset] = self._monomial_uncached(multiset)
        return self._prod_cache[multiset]

    def _monomial_uncached(self, multiset: tuple[int, ...]) -> int:
        support = frozenset(multiset)
        if len(support) == len(multiset):
            cone = self._cone_adj.get(support)
            return self._scale // abs(cone[0]) if cone else 0
        cone = next((c for c in self.max_cones if support <= c), None)
        if cone is None:
            # Boundary divisors sharing no cone do not meet.
            return 0
        rep_idx = max(multiset, key=lambda i: (multiset.count(i), i))
        rest = list(multiset)
        rest.remove(rep_idx)
        # Each term swaps one copy of F_rep_idx for a ray outside the
        # support, so the repetition falls and the recursion terminates.
        total = sum(c * self._monomial(tuple(sorted(rest + [k])))
                    for k, c in self._relation_rep(rep_idx, cone).items())
        q, r = divmod(total, self._cone_adj[cone][0])
        if r:
            raise ToricError(f"{self.name}: L^dim {multiset} is not integral")
        return q

    def intersection_product(self, *divisors):
        """Multilinear intersection number of ``dim`` divisor classes, with
        coefficients in Q or any Q-algebra (e.g. polynomials in the chamber
        parameter); see :meth:`_expand`.  ``intersection_form`` is the same
        method."""
        return self._expand(divisors)

    intersection_form = intersection_product

    def gram(self, classes: list[dict]) -> list[list[Fraction]]:
        """``intersection_product`` of each pair of classes a, b on a
        surface fan: x * ``_pairing((i,), b)`` summed over a, over L^2."""
        if self.dim != 2:
            raise ToricError(f"{self.name} needs {self.dim} divisors, got 2")
        classes = [self.normalize_divisor(d) for d in classes]
        return [[sum(x * self._pairing((i,), b) for i, x in a.items())
                 * Fraction(1, self._scale) for b in classes]
                for a in classes]

    def _pairing(self, rays: tuple[int, ...], d: dict):
        """L^dim times F_rays . d, for dim - 1 rays and a normalized d,
        summed over d's support in the coefficients' own type."""
        return sum(c * self._monomial(tuple(sorted((*rays, k))))
                   for k, c in d.items())

    def _expand(self, divisors):
        """The multilinear expansion of a product of ``dim`` divisors: for
        each choice of one term per argument, the integer monomial of its
        sorted rays times its coefficients, summed over the table and
        divided by L^dim once."""
        if len(divisors) != self.dim:
            raise ToricError(
                f"{self.name} needs {self.dim} divisors, got {len(divisors)}")
        total = 0
        for combo in itertools.product(*(
                self.normalize_divisor(d).items() for d in divisors)):
            term = self._monomial(tuple(sorted(i for i, _ in combo)))
            if term:
                total += math.prod((c for _, c in combo), start=term)
        return total * Fraction(1, self._scale)

    def facet_products(self, den: int, pos: dict[int, tuple[int, int]],
                       rays) -> tuple[dict[int, list[int]], int]:
        """w_k = P^2 . F_k for each ray k of ``rays`` on a threefold fan, P
        the divisor {ray: (a, b)} with coefficients (a + b*u) / den.  Each
        w_k is the three integer coefficients of a quadratic in u over the
        returned scale den^2 L^3, summed once over the pairs i <= j of the
        support of P, weighted 1 or 2."""
        if self.dim != 3:
            raise ToricError("facet products need a threefold fan")
        items = sorted(pos.items())
        pairs = []
        for x, (i, (a, b)) in enumerate(items):
            for j, (c, d) in items[x:]:
                m = 1 if i == j else 2
                pairs.append((i, j, m * a * c, m * (a * d + b * c), m * b * d))
        w = {}
        for k in rays:
            q = [0, 0, 0]
            for i, j, c0, c1, c2 in pairs:
                if t := self._monomial(tuple(sorted((i, j, k)))):
                    q[0] += c0 * t
                    q[1] += c1 * t
                    q[2] += c2 * t
            w[k] = q
        return w, den * den * self._scale

    # -- curves and cones -------------------------------------------------

    def curve(self, name: str) -> tuple[Fraction, ...]:
        """The pairing vector (F_i . F_j . F_k for each ray k) of the named
        1-stratum F_i . F_j, one ``_curve_pairing`` per ray."""
        return tuple(Fraction(self._curve_pairing(name, {k: 1}), self._scale)
                     for k in range(len(self.rays)))

    def _curve_pairing(self, name: str, d: dict):
        """``_pairing`` of a curve's two rays with d, the name checked first."""
        if name not in self.curve_specs:
            raise ToricError(f"model {self.name} defines no curve {name!r}")
        return self._pairing(self.curve_specs[name],
                             self.normalize_divisor(d))

    def pair_curve_divisor(self, curve: str, d: Divisor) -> Fraction:
        return self._curve_pairing(curve, d) * Fraction(1, self._scale)

    def nef_check(self, d: Divisor) -> tuple[bool, list[str]]:
        """Pair against the Mori generators; list the violated ones.  Only
        the sign of each pairing is read, from ``_pairing`` over the
        support of d in the coefficients' own type: for ``int``
        coefficients, no Fraction is built."""
        d = self.normalize_divisor(d)
        violated = [n for n in self.mori_generators
                    if self._pairing(self.curve_specs[n], d) < 0]
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
        rays=data["rays"],
        max_cones=data["max_cones"],
        grading=data["grading"],
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
