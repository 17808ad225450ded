"""Invariant theory of SL2 x SL2 acting on bidegree-(2,2) forms.

The nine coefficients a_ij carry torus weights (2-2i, 2-2j).  Invariant
dimensions are extracted by exact weight counting: a coin-change dynamic
programme over the nine weights counts the degree-k monomials of each
weight.  The closed-form Hilbert series 1/((1-t^2)(1-t^3)(1-t^4)) provides
an independent oracle.  The three generating invariants J2, J3, J4 are the
coefficients of the characteristic polynomial det(T I - M) of an explicit
trace-free 4x4 matrix in the a_ij, obtained from the power traces
tr(M^k) by Newton's identities.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from . import KstabError, _Record, _linalg
from .exactcore import ExactCoreError, interpolate, rat

Coeffs = dict[tuple[int, int], Fraction]

ENUMERATION_BOUND = 12


class InvariantError(KstabError):
    pass


class BoundExceeded(InvariantError):
    pass


def index_pair(key) -> tuple[int, int]:
    """The (i, j) of a coefficient key: an 'ij' string of two ASCII digits
    or a pair (tuple or list) of two non-bool ints, each in 0..2."""
    if isinstance(key, str):
        ok = len(key) == 2 and key.isascii() and key.isdigit()
    else:
        ok = (isinstance(key, (tuple, list)) and len(key) == 2
              and all(type(x) is int for x in key))
    if not ok:
        raise InvariantError(f"key {key!r} is neither 'ij' nor an (i, j) pair")
    i, j = int(key[0]), int(key[1])
    if not (0 <= i <= 2 and 0 <= j <= 2):
        raise InvariantError(f"index ({i}, {j}) out of range")
    return i, j


def coeffs(data: Mapping) -> Coeffs:
    """Normalize a coefficient map keyed by (i, j) pairs or 'ij' strings
    (see :func:`index_pair`)."""
    if not isinstance(data, Mapping):
        raise InvariantError(
            f"coefficients must be a map, got {type(data).__name__}")
    out: Coeffs = {}
    for key, val in data.items():
        i, j = index_pair(key)
        try:
            v = rat(val)
        except ExactCoreError as exc:
            raise InvariantError(f"coefficient {key!r}: {exc}") from None
        if v:
            out[(i, j)] = v
    return out


_WEIGHTS = [(2 - 2 * i, 2 - 2 * j) for i in range(3) for j in range(3)]


def _weight_table(k: int) -> list[dict[tuple[int, int], int]]:
    """table[d] maps a weight sum to the number of degree-d multisets of
    basis weights with that sum, for d = 0..k.

    Coin-change recursion: the weight types are added one at a time, each
    with unlimited multiplicity, so after a type w is added
    table[d] = table[d] (no copy of w) + table[d-1] shifted by w.
    """
    table: list[dict[tuple[int, int], int]] = [{(0, 0): 1}]
    table += [{} for _ in range(k)]
    for w1, w2 in _WEIGHTS:
        for d in range(1, k + 1):
            row = table[d]
            for (s1, s2), n in table[d - 1].items():
                key = (s1 + w1, s2 + w2)
                row[key] = row.get(key, 0) + n
    return table


def invariant_dimension(k: int) -> int:
    """Dimension of the degree-k invariants by weight counting.

    The multiplicity of the trivial representation is
    m(0,0) - m(2,0) - m(0,2) + m(2,2), where m(w) counts the degree-k
    multisets of basis weights summing to w; all four are read from one
    coin-change table (:func:`_weight_table`).
    """
    if k < 0:
        raise InvariantError("degree must be nonnegative")
    if k > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"weight counting is capped at degree {ENUMERATION_BOUND}")
    m = _weight_table(k)[k]
    return (m.get((0, 0), 0) - m.get((2, 0), 0) - m.get((0, 2), 0)
            + m.get((2, 2), 0))


def hilbert_prefix(n: int) -> list[int]:
    """Coefficients 0..n of 1/((1-t^2)(1-t^3)(1-t^4)): partition counts
    into parts 2, 3 and 4."""
    if n < 0:
        raise InvariantError("series length must be nonnegative")
    out = [0] * (n + 1)
    out[0] = 1
    for part in (2, 3, 4):
        for k in range(part, n + 1):
            out[k] += out[k - part]
    return out


def _matrix(c: Coeffs):
    def a(i, j):
        return c.get((i, j), Fraction(0))

    half = Fraction(1, 2)
    return [
        [half * a(1, 1), -a(1, 0), -a(0, 1), 2 * a(0, 0)],
        [a(1, 2), -half * a(1, 1), -2 * a(0, 2), a(0, 1)],
        [a(2, 1), -2 * a(2, 0), -half * a(1, 1), a(1, 0)],
        [2 * a(2, 2), -a(2, 1), -a(1, 2), half * a(1, 1)],
    ]


def char_poly(m) -> list[Fraction]:
    """Coefficients [c1, ..., cn] of det(T I - M) = T^n + c1 T^(n-1) + ...

    Computed exactly from the power traces p_k = tr(M^k) by Newton's
    identities, k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1).  Only
    the powers up to h = ceil(n/2) are formed; p_k for k > h is
    tr(M^h M^(k-h)) = sum_ij (M^h)_ij (M^(k-h))_ji, so an n = 4 matrix
    costs one matrix product.  The work is done on the integer matrix
    N = D M, with D the common denominator of the entries: N has integer
    characteristic coefficients, so the division by k is exact, and
    c_k(M) = c_k(N) / D^k.
    """
    n = len(m)
    den = lcm(*(x.denominator for row in m for x in row))
    im = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    h = (n + 1) // 2
    powers = [im]
    for _ in range(h - 1):
        last = powers[-1]
        powers.append([[sum(last[i][t] * im[t][j] for t in range(n))
                        for j in range(n)] for i in range(n)])
    traces = [sum(p[i][i] for i in range(n)) for p in powers]
    for k in range(h + 1, n + 1):
        a, b = powers[h - 1], powers[k - h - 1]
        traces.append(sum(a[i][j] * b[j][i]
                          for i in range(n) for j in range(n)))
    out: list[int] = []
    for k in range(1, n + 1):
        total = traces[k - 1] + sum(out[t] * traces[k - t - 2]
                                    for t in range(k - 1))
        out.append(-total // k)
    return [Fraction(c, den ** k) for k, c in enumerate(out, 1)]


def peano_invariants(c: Coeffs | dict) -> tuple[Fraction, Fraction, Fraction]:
    """The invariants (J2, J3, J4): characteristic coefficients of the
    associated trace-free matrix, with char(T) = T^4 + J2 T^2 + J3 T + J4."""
    c = coeffs(c)
    c1, c2, c3, c4 = char_poly(_matrix(c))
    if c1 != 0:
        raise InvariantError("associated matrix is unexpectedly not trace-free")
    return c2, c3, c4


class GroupElement(_Record, frozen=True):
    """A pair of exact 2x2 determinant-one matrices."""

    g1: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    g2: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self):
        for g in (self.g1, self.g2):
            det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            if det != 1:
                raise InvariantError("group factors must have determinant 1")

    @classmethod
    def of(cls, g1, g2):
        norm = tuple(tuple(rat(x) for x in row) for row in g1), \
            tuple(tuple(rat(x) for x in row) for row in g2)
        return cls(*norm)


def _sym2(g) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix of Sym^2(g) on the basis x^2, xy, y^2 under the
    row-vector action (x, y) . g = (a x + c y, b x + d y).

    For g = ((a, b), (c, d)), row i holds the image of the i-th monomial:
    [a^2, 2ac, c^2], [ab, ad + bc, cd] and [b^2, 2bd, d^2].
    """
    (a, b), (c, d) = g
    return ((a * a, 2 * a * c, c * c),
            (a * b, a * d + b * c, c * d),
            (b * b, 2 * b * d, d * d))


def act(g: GroupElement, c: Coeffs | dict) -> Coeffs:
    """Coefficients of f((x, y) . g1, (u, v) . g2): the matrix
    S(g1)^T C S(g2), with C = (a_ij) and S the :func:`_sym2` matrices."""
    c = coeffs(c)
    s1, s2 = _sym2(g.g1), _sym2(g.g2)
    cs = [[sum(c.get((i, j), 0) * s2[j][l] for j in range(3))
           for l in range(3)] for i in range(3)]
    return {(k, l): v for k in range(3) for l in range(3)
            if (v := sum(s1[i][k] * cs[i][l] for i in range(3)))}


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    def mul(a, b):
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2))
            for i in range(2))

    return GroupElement(mul(g.g1, h.g1), mul(g.g2, h.g2))


def verify_invariance(c: Coeffs | dict, g: GroupElement) -> bool:
    """Exact equality of the invariants before and after the action."""
    c = coeffs(c)
    return peano_invariants(act(g, c)) == peano_invariants(c)


def random_sl2(rng: random.Random):
    """A determinant-one matrix with small rational entries, via shears."""
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    a, b, c = frac(), frac(), frac()
    # Product of lower and upper shears always has determinant one.
    m00 = 1 + a * b
    m01 = a + c + a * b * c
    m10 = b
    m11 = 1 + b * c
    return ((m00, m01), (m10, m11))


def random_group_element(rng: random.Random) -> GroupElement:
    return GroupElement.of(random_sl2(rng), random_sl2(rng))


def random_coeffs(rng: random.Random) -> Coeffs:
    return {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for i in range(3) for j in range(3)}


def invariance_trials(trials: int, seed: int) -> list[bool]:
    """Seeded random invariance checks; all entries should be True.

    At least one trial is required: an empty run would certify invariance
    vacuously.
    """
    if trials < 1:
        raise InvariantError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        c = random_coeffs(rng)
        g = random_group_element(rng)
        results.append(verify_invariance(c, g))
    return results


def swap_transpose(c: Coeffs | dict) -> Coeffs:
    """The factor-swap involution combined with the index transpose."""
    c = coeffs(c)
    return {(j, i): v for (i, j), v in c.items()}


def independence_rank(c: Coeffs | dict) -> int:
    """Rank of the 3x9 Jacobian of (J2, J3, J4) at the given point.

    Partial derivatives are extracted exactly by univariate interpolation
    along coordinate directions (the invariants are polynomials of degree
    at most 4, so five samples determine each directional slice).  The
    t = 0 sample, the point itself, is shared by all nine directions.
    """
    c = coeffs(c)
    base = peano_invariants(c)
    rows = [[], [], []]
    for i in range(3):
        for j in range(3):
            samples = [(0, base)]
            for t in (1, 2, 3, 4):
                shifted = dict(c)
                shifted[(i, j)] = shifted.get((i, j), Fraction(0)) + t
                samples.append((t, peano_invariants(shifted)))
            for k in range(3):
                poly = interpolate([(t, v[k]) for t, v in samples], 4)
                rows[k].append(poly.coefficient(1, 0))
    return _linalg.rank(rows)
