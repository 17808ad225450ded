"""Invariant theory of SL2 x SL2 acting on bidegree-(2,2) forms.

The nine coefficients a_ij carry torus weights (2-2i, 2-2j).  Invariant
dimensions are extracted by exact weight counting; the closed-form Hilbert
series 1/((1-t^2)(1-t^3)(1-t^4)) provides an independent oracle.  The three
generating invariants J2, J3, J4 are the coefficients of the characteristic
polynomial det(T I - M) of an explicit trace-free 4x4 matrix in the a_ij.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import KstabError, _linalg
from .exactcore import interpolate, rat

Coeffs = dict[tuple[int, int], Fraction]

ENUMERATION_BOUND = 12


class InvariantError(KstabError):
    pass


class BoundExceeded(InvariantError):
    pass


def coeffs(data: dict) -> Coeffs:
    """Normalize a coefficient map keyed by (i, j) pairs or 'ij' strings."""
    out: Coeffs = {}
    for key, val in data.items():
        if isinstance(key, str):
            i, j = int(key[0]), int(key[1])
        else:
            i, j = int(key[0]), int(key[1])
        if not (0 <= i <= 2 and 0 <= j <= 2):
            raise InvariantError(f"coefficient index ({i}, {j}) out of range")
        v = rat(val)
        if v:
            out[(i, j)] = v
    return out


_WEIGHTS = [(2 - 2 * i, 2 - 2 * j) for i in range(3) for j in range(3)]


def _multiset_weight_count(k: int, target: tuple[int, int]) -> int:
    """Number of degree-k multisets of basis weights with the given sum."""
    count = 0
    for combo in itertools.combinations_with_replacement(_WEIGHTS, k):
        w1 = sum(w[0] for w in combo)
        w2 = sum(w[1] for w in combo)
        if (w1, w2) == target:
            count += 1
    return count


def invariant_dimension(k: int) -> int:
    """Dimension of the degree-k invariants by weight counting.

    The multiplicity of the trivial representation is
    m(0,0) - m(2,0) - m(0,2) + m(2,2), where m counts weight multisets.
    """
    if k < 0:
        raise InvariantError("degree must be nonnegative")
    if k > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"weight counting is capped at degree {ENUMERATION_BOUND}")
    return (_multiset_weight_count(k, (0, 0))
            - _multiset_weight_count(k, (2, 0))
            - _multiset_weight_count(k, (0, 2))
            + _multiset_weight_count(k, (2, 2)))


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
    """Coefficients [c1, c2, c3, c4] of det(T I - M) = T^4 + c1 T^3 + ...

    Computed by the Faddeev-LeVerrier recursion, exactly.
    """
    n = len(m)
    coeffs_out = []
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs_out.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
    return coeffs_out


def peano_invariants(c: Coeffs | dict) -> tuple[Fraction, Fraction, Fraction]:
    """The invariants (J2, J3, J4): characteristic coefficients of the
    associated trace-free matrix, with char(T) = T^4 + J2 T^2 + J3 T + J4."""
    c = coeffs(c) if not _is_normalized(c) else c
    c1, c2, c3, c4 = char_poly(_matrix(c))
    if c1 != 0:
        raise InvariantError("associated matrix is unexpectedly not trace-free")
    return c2, c3, c4


def _is_normalized(c) -> bool:
    return all(isinstance(k, tuple) for k in c)


def _pair_pow_coeffs(pair, power: int) -> list[Fraction]:
    """(p x + q y)^power as coefficients of x^(power-k) y^k."""
    p, q = pair
    out = [Fraction(0)] * (power + 1)
    from math import comb
    for k in range(power + 1):
        out[k] = comb(power, k) * p ** (power - k) * q ** k
    return out


@dataclass(frozen=True)
class GroupElement:
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


IDENTITY = GroupElement.of(((1, 0), (0, 1)), ((1, 0), (0, 1)))


def _factor_action(g) -> list[list[list[Fraction]]]:
    """Degree-2 substitution table: table[i][k] is the coefficient of the
    k-th basis monomial in the image of the i-th one."""
    # Row-vector action: (x, y) . g = (g00 x + g10 y, g01 x + g11 y).
    first = (g[0][0], g[1][0])
    second = (g[0][1], g[1][1])
    table = []
    for i in range(3):
        a = _pair_pow_coeffs(first, 2 - i)
        b = _pair_pow_coeffs(second, i)
        conv = [Fraction(0)] * 3
        for s, ca in enumerate(a):
            for t, cb in enumerate(b):
                conv[s + t] += ca * cb
        table.append(conv)
    return table


def act(g: GroupElement, c: Coeffs | dict) -> Coeffs:
    """Coefficients of the form composed with the substitution action."""
    c = coeffs(c) if not _is_normalized(c) else c
    t1 = _factor_action(g.g1)
    t2 = _factor_action(g.g2)
    out: Coeffs = {}
    for (i, j), val in c.items():
        for k in range(3):
            if not t1[i][k]:
                continue
            for l in range(3):
                w = val * t1[i][k] * t2[j][l]
                if w:
                    key = (k, l)
                    out[key] = out.get(key, Fraction(0)) + w
    return {k: v for k, v in out.items() if v}


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    def mul(a, b):
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2))
            for i in range(2))

    return GroupElement(mul(g.g1, h.g1), mul(g.g2, h.g2))


def verify_invariance(c: Coeffs | dict, g: GroupElement) -> bool:
    """Exact equality of the invariants before and after the action."""
    c = coeffs(c) if not _is_normalized(c) else c
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
    """Seeded random invariance checks; all entries should be True."""
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        c = random_coeffs(rng)
        g = random_group_element(rng)
        results.append(verify_invariance(c, g))
    return results


def swap_transpose(c: Coeffs | dict) -> Coeffs:
    """The factor-swap involution combined with the index transpose."""
    c = coeffs(c) if not _is_normalized(c) else c
    return {(j, i): v for (i, j), v in c.items()}


def independence_rank(c: Coeffs | dict) -> int:
    """Rank of the 3x9 Jacobian of (J2, J3, J4) at the given point.

    Partial derivatives are extracted exactly by univariate interpolation
    along coordinate directions (the invariants are polynomials of degree
    at most 4, so five samples determine each directional slice).
    """
    c = coeffs(c) if not _is_normalized(c) else c
    rows = [[], [], []]
    for i in range(3):
        for j in range(3):
            samples = {0: peano_invariants(c)}
            for t in (1, 2, 3, 4):
                shifted = dict(c)
                shifted[(i, j)] = shifted.get((i, j), Fraction(0)) + t
                samples[t] = peano_invariants(shifted)
            for k in range(3):
                poly = interpolate(
                    [(t, samples[t][k]) for t in sorted(samples)], 4)
                rows[k].append(poly.coefficient(1, 0))
    return _linalg.rank(rows)
