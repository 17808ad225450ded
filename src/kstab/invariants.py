"""Invariant theory of SL2 x SL2 acting on bidegree-(2,2) forms.

The nine coefficients a_ij carry torus weights (2-2i, 2-2j).  Invariant
dimensions are extracted by exact weight counting: one coin-change table
over the nine weights counts the monomials of each degree and weight.
The closed-form Hilbert series 1/((1-t^2)(1-t^3)(1-t^4)) provides an
independent oracle.  The three generating invariants J2, J3, J4 are the
coefficients of the characteristic polynomial det(T I - M) of an explicit
trace-free 4x4 matrix in the a_ij, obtained from the power traces
tr(M^k) by Newton's identities.  The hot paths run on integers: a form
is an integer matrix A over a denominator d, the group acts on A, and
J2, J3, J4 come from the integer matrix 2d M.  Only public functions
call :func:`coeffs`.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from fractions import Fraction

from . import KstabError, _Record, _linalg
from ._linalg import _integer_form
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


def invariant_dimensions(upto: int) -> list[int]:
    """Dimensions of the degree-0..upto invariants by weight counting.

    In degree d the multiplicity of the trivial representation is
    m(0,0) - m(2,0) - m(0,2) + m(2,2), where m(w) counts the degree-d
    multisets of basis weights summing to w; every degree is read from
    row d of one coin-change table (:func:`_weight_table`).
    """
    if upto < 0:
        raise InvariantError("degree must be nonnegative")
    if upto > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"weight counting is capped at degree {ENUMERATION_BOUND}")
    return [m.get((0, 0), 0) - m.get((2, 0), 0) - m.get((0, 2), 0)
            + m.get((2, 2), 0) for m in _weight_table(upto)]


def invariant_dimension(k: int) -> int:
    """Dimension of the degree-k invariants: see invariant_dimensions."""
    return invariant_dimensions(k)[-1]


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


def _coeff_matrix(c: Coeffs) -> tuple[list[list[int]], int]:
    """The coefficients a_ij as an integer 3x3 matrix over a denominator."""
    return _integer_form([[c.get((i, j), 0) for j in range(3)]
                          for i in range(3)])


def _newton(im: list[list[int]]) -> list[int]:
    """The characteristic coefficients of an integer matrix.

    Computed exactly from the power traces p_k = tr(N^k) by Newton's
    identities, k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1); the
    coefficients are integers, so the division by k is exact.  Only
    the powers up to h = ceil(n/2) are formed; p_k for k > h is
    tr(N^h N^(k-h)) = sum_ij (N^h)_ij (N^(k-h))_ji, so an n = 4 matrix
    costs one matrix product.
    """
    n = len(im)
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
    return out


def _peano(a: list[list[int]], d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(J2, J3, J4) of the form with coefficients a_ij / d, from the
    integer matrix N = 2d M, M the trace-free matrix of the invariants: J_k = c_k(N) / (2d)^k."""
    n = [[a[1][1], -2 * a[1][0], -2 * a[0][1], 4 * a[0][0]],
         [2 * a[1][2], -a[1][1], -4 * a[0][2], 2 * a[0][1]],
         [2 * a[2][1], -4 * a[2][0], -a[1][1], 2 * a[1][0]],
         [4 * a[2][2], -2 * a[2][1], -2 * a[1][2], a[1][1]]]
    _, c2, c3, c4 = _newton(n)  # c1 = -tr(N) = 0
    s = 2 * d
    return Fraction(c2, s * s), Fraction(c3, s ** 3), Fraction(c4, s ** 4)


def peano_invariants(c: Coeffs | dict) -> tuple[Fraction, Fraction, Fraction]:
    """The invariants (J2, J3, J4): characteristic coefficients of the
    associated trace-free matrix, with char(T) = T^4 + J2 T^2 + J3 T + J4."""
    return _peano(*_coeff_matrix(coeffs(c)))


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


def _act(g: GroupElement, a: list[list[int]], d: int):
    """The image of the form a_ij / d: S is quadratic, so for g_i = G_i/e_i
    it is the integer matrix S(G1)^T A S(G2) over d e1^2 e2^2."""
    (g1, e1), (g2, e2) = _integer_form(g.g1), _integer_form(g.g2)
    s1, s2 = _sym2(g1), _sym2(g2)
    cs = [[sum(a[i][j] * s2[j][l] for j in range(3)) for l in range(3)]
          for i in range(3)]
    return [[sum(s1[i][k] * cs[i][l] for i in range(3)) for l in range(3)]
            for k in range(3)], d * (e1 * e2) ** 2


def _invariant_under(g: GroupElement, a: list[list[int]], d: int) -> bool:
    return _peano(*_act(g, a, d)) == _peano(a, d)


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
        a, d = _coeff_matrix(random_coeffs(rng))
        results.append(_invariant_under(random_group_element(rng), a, d))
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
    a, d = _coeff_matrix(coeffs(c))
    base = _peano(a, d)
    rows = [[], [], []]
    for i in range(3):
        for j in range(3):
            samples = [(0, base)]
            for t in (1, 2, 3, 4):
                shifted = [row[:] for row in a]
                shifted[i][j] += t * d
                samples.append((t, _peano(shifted, d)))
            for k in range(3):
                poly = interpolate([(t, v[k]) for t, v in samples], 4)
                rows[k].append(poly.coefficient(1))
    return _linalg.rank(rows)
