"""Numerical GIT for bidegree-(2,2) forms on P^1 x P^1.

Supports are sets of index pairs (i, j), 0 <= i, j <= 2, marking the
nonzero coefficients of x^(2-i) y^i u^(2-j) v^j.  One-parameter subgroups
are diagonal pairs (r0, r1) with r1 >= r0 >= 0 and r1 > 0, acting with
weight r0 (2 - 2i) + r1 (2 - 2j) on the (i, j) coefficient.

Coordinate changes are not searched: supports are assumed given in
adapted coordinates, and the certificates below are exactly the explicit
instability and strict-semistability arguments for such supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import KstabError, invariants

Support = frozenset[tuple[int, int]]


class GitError(KstabError):
    pass


class EmptySupport(GitError):
    pass


def support(pairs) -> Support:
    """Normalize a support: (i, j) pairs or 'ij' strings, each read by
    ``invariants.index_pair``, the key rule of ``invariants.coeffs``."""
    try:
        return frozenset(invariants.index_pair(p) for p in pairs)
    except invariants.InvariantError as exc:
        raise GitError(f"support entry: {exc}") from None
    except TypeError:  # only iterating pairs can raise it
        raise GitError(f"support {pairs!r} is not a list of entries") from None


FULL_SUPPORT: Support = support((i, j) for i in range(3) for j in range(3))


@dataclass(frozen=True)
class OneParamSubgroup:
    r0: int
    r1: int

    def __post_init__(self):
        if not (self.r1 >= self.r0 >= 0 and self.r1 > 0):
            raise GitError("need integers r1 >= r0 >= 0 with r1 > 0")

    def weight(self, i: int, j: int) -> int:
        return self.r0 * (2 - 2 * i) + self.r1 * (2 - 2 * j)


def hm_weight(s: Support, lam: OneParamSubgroup) -> int:
    """Maximal subgroup weight over the monomials present."""
    if not s:
        raise EmptySupport("weight of the zero form is undefined")
    return max(lam.weight(i, j) for i, j in s)


@dataclass(frozen=True)
class Destabilizer:
    subgroup: OneParamSubgroup
    weight: int

    @property
    def strictly_semistable_direction(self) -> bool:
        return self.weight == 0


def candidate_subgroups(bound: int):
    """Coprime admissible subgroups with entries up to the bound, ordered
    by increasing r1 then r0 for deterministic certificates."""
    for r1 in range(1, bound + 1):
        for r0 in range(0, r1 + 1):
            if gcd(r0, r1) == 1:
                yield OneParamSubgroup(r0, r1)


def find_destabilizer(s: Support, bound: int = 5) -> Destabilizer | None:
    """First coprime subgroup with nonpositive weight, negatives preferred.

    A negative weight certifies instability; when no negative exists a
    zero-weight certificate (strictly semistable direction) is returned,
    and None means no certificate up to the bound.
    """
    if bound < 1:
        raise GitError("bound must be at least 1")
    if not s:
        raise EmptySupport("the zero form has no destabilizer certificate")
    zero_cert = None
    for lam in candidate_subgroups(bound):
        w = hm_weight(s, lam)
        if w < 0:
            return Destabilizer(lam, w)
        if w == 0 and zero_cert is None:
            zero_cert = Destabilizer(lam, 0)
    return zero_cert


def fixed_point_singularity(coeffs: dict) -> bool:
    """Singularity of the curve at ([1:0],[1:0]): the constant and both
    first-order coefficients must vanish.  The coefficients are read by
    :func:`kstab.invariants.coeffs`."""
    c = invariants.coeffs(coeffs)
    return not any(k in c for k in ((0, 0), (1, 0), (0, 1)))
