"""Numerical GIT for bidegree-(2,2) forms on P^1 x P^1.

Supports are sets of index pairs (i, j), 0 <= i, j <= 2, marking the
nonzero coefficients of x^(2-i) y^i u^(2-j) v^j.  One-parameter subgroups
are diagonal pairs (r0, r1) with r1 >= r0 >= 0 and r1 > 0, acting with
weight r0 (2 - 2i) + r1 (2 - 2j) on the (i, j) coefficient.

Coordinate changes are not searched: supports are assumed given in
adapted coordinates, and the certificates below are exactly the explicit
instability and strict-semistability arguments for such supports.  Three
subgroups, (0, 1), (1, 1) and (1, 2), decide the sign of the weight over
the whole cone; ``find_destabilizer`` states the lemma.
"""

from __future__ import annotations

from . import KstabError, _Record, invariants

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



class OneParamSubgroup(_Record, frozen=True):
    r0: int
    r1: int

    def __post_init__(self):
        if not (type(self.r0) is type(self.r1) is int
                and self.r1 >= self.r0 >= 0 and self.r1 > 0):
            raise GitError("need integers r1 >= r0 >= 0 with r1 > 0")

    def weight(self, i: int, j: int) -> int:
        return self.r0 * (2 - 2 * i) + self.r1 * (2 - 2 * j)


def hm_weight(s: Support, lam: OneParamSubgroup) -> int:
    """Maximal subgroup weight over the monomials present."""
    if not s:
        raise EmptySupport("weight of the zero form is undefined")
    return max(lam.weight(i, j) for i, j in s)


class Destabilizer(_Record, frozen=True):
    subgroup: OneParamSubgroup
    weight: int

    @property
    def strictly_semistable_direction(self) -> bool:
        return self.weight == 0


# The subgroups that decide the sign of the weight, in the order of
# increasing r1, then r0, in which certificates are reported.
_DECIDING = (OneParamSubgroup(0, 1), OneParamSubgroup(1, 1),
             OneParamSubgroup(1, 2))


def find_destabilizer(s: Support) -> Destabilizer | None:
    """First subgroup with nonpositive weight, negatives preferred.

    A negative weight certifies instability; when no negative exists a
    zero-weight certificate (strictly semistable direction) is returned,
    and None means the weight is positive on every subgroup of the cone.

    Lemma: (0, 1), (1, 1) and (1, 2) decide it.  For a fixed support,
    lambda -> max_s <lambda, w_s> is convex and positively homogeneous on
    the cone r1 >= r0 >= 0, so its sign on the cone is its sign on the
    slice r1 = 1, 0 <= r0 <= 1.  There it is piecewise linear and convex,
    so its minimum lies at an end or at a kink, where two weights tie:
    r0 * di + r1 * dj = 0 with |di|, |dj| <= 2, which inside the slice
    means r0 / r1 = 1/2.  So the least of the three weights has the sign
    of the minimum over the cone.  They are the first coprime subgroups in
    order of increasing r1, then r0, so the certificate is the first one
    of that order.
    """
    if not s:
        raise EmptySupport("the zero form has no destabilizer certificate")
    zero_cert = None
    for lam in _DECIDING:
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
