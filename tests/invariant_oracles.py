"""Fraction-valued faces of the invariants layer's integer kernels, for
tests.

``kstab.invariants`` runs on integers: a form is an integer matrix over
one denominator, the group acts on it through ``_act``, and J2, J3, J4
come from the power traces of the integer matrix 2d M by Newton's
identities (``_peano``).  The oracles here give the same objects as
Fractions, so tests can check the kernels against the defining formulas:
``act`` is the action on a coefficient map, ``compose`` the group
product, ``verify_invariance`` one invariance check, ``char_poly`` the
characteristic polynomial of a rational matrix, interpolated from
determinants and sharing no code with ``_peano``, and ``_matrix`` the
trace-free matrix M itself.  ``FULL_SUPPORT`` is the support of a form
with all nine coefficients.
"""

from fractions import Fraction

from kstab._linalg import det
from kstab.exactcore import interpolate
from kstab.githm import Support, support
from kstab.invariants import (Coeffs, GroupElement, _act, _coeff_matrix,
                              _invariant_under, coeffs)

FULL_SUPPORT: Support = support((i, j) for i in range(3) for j in range(3))


def _matrix(c: Coeffs):
    """The matrix M of the invariants; ``invariants._peano`` builds 2d M."""
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
    """Coefficients [c1, ..., cn] of det(T I - M) = T^n + c1 T^(n-1) + ...,
    interpolated through the determinants at T = 0, ..., n; the
    interpolant must be monic, or the determinants are wrong."""
    n = len(m)
    samples = [(t, det([[t * (i == j) - x for j, x in enumerate(row)]
                        for i, row in enumerate(m)])) for t in range(n + 1)]
    poly = interpolate(samples, n)
    assert poly.coefficient(n) == 1, f"det(T I - M) is not monic: {poly}"
    return [poly.coefficient(n - k) for k in range(1, n + 1)]


def act(g: GroupElement, c: Coeffs | dict) -> Coeffs:
    """Coefficients of f((x, y) . g1, (u, v) . g2): the matrix
    S(g1)^T C S(g2), with C = (a_ij) and S the ``_sym2`` matrices."""
    b, q = _act(g, *_coeff_matrix(coeffs(c)))
    return {(k, l): Fraction(v, q) for k, row in enumerate(b)
            for l, v in enumerate(row) if v}


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    def mul(a, b):
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2))
            for i in range(2))

    return GroupElement(mul(g.g1, h.g1), mul(g.g2, h.g2))


def verify_invariance(c: Coeffs | dict, g: GroupElement) -> bool:
    """Exact equality of the invariants before and after the action."""
    return _invariant_under(g, *_coeff_matrix(coeffs(c)))
