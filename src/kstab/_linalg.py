"""Small exact linear-algebra helpers over the rationals.

Everything here works on plain lists of Fractions and rests on one
forward elimination, ``_echelon``: ``solve`` back-substitutes its echelon
form, ``rank`` counts its pivots, ``det`` multiplies them, and ``inverse``
back-substitutes once per column of the identity carried beside the
matrix.  Right-hand sides may contain any values from a commutative
Q-algebra (e.g. polynomials), which ``ToricModel.effective_coordinates``
passes for the family of ``zariski.pseudoeffective_threshold``.
"""

from __future__ import annotations

from fractions import Fraction


def _echelon(rows, rhs=()):
    """Forward elimination to row echelon form, carrying ``rhs`` along.

    Returns ``(m, b, pivots, swaps)``: the echelon rows, the transformed
    right-hand side, the pivot column of each leading row (rows from
    ``len(pivots)`` on are zero), and the number of row swaps made.
    """
    m = [list(map(Fraction, row)) for row in rows]
    b = list(rhs)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            if b:
                b[r], b[pivot] = b[pivot], b[r]
            swaps += 1
        top = m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] / top[c]
                m[i] = [x - f * y for x, y in zip(m[i], top)]
                if b:
                    b[i] = b[i] - f * b[r]
        pivots.append(c)
    return m, b, pivots, swaps


def _back_substitute(m, b, pivots, x):
    """Fill the pivot entries of ``x`` so that the echelon rows give ``b``,
    keeping its free entries."""
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        acc = b[i]
        for j in range(c + 1, len(x)):
            if m[i][j] and x[j]:
                acc = acc - m[i][j] * x[j]
        x[c] = acc * (1 / m[i][c])
    return x


def solve(rows, rhs):
    """One exact solution of ``A x = b``, or None if inconsistent.

    Free variables (underdetermined systems) are set to zero.  ``rhs``
    entries may be Fractions or any values supporting +, -, * by Fraction
    and truth testing (e.g. Poly); the matrix entries must be Fractions.
    """
    m, b, pivots, _ = _echelon(rows, rhs)
    if any(b[len(pivots):]):
        return None
    ncols = len(m[0]) if m else 0
    return _back_substitute(m, b, pivots, [Fraction(0)] * ncols)


def rank(rows) -> int:
    return len(_echelon(rows)[2])


def det(rows) -> Fraction:
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a square matrix")
    # The diagonal of the echelon form holds the pivots, or a zero when
    # the rank is short.
    m, _, _, swaps = _echelon(rows)
    result = Fraction(-1 if swaps % 2 else 1)
    for i, row in enumerate(m):
        result *= row[i]
    return result


def inverse(rows):
    """The inverse of a square matrix (rows of rows), or None if it is
    singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    m, _, pivots, _ = _echelon(aug)
    if pivots != list(range(n)):
        return None
    cols = [_back_substitute(m, [row[n + j] for row in m], pivots,
                             [Fraction(0)] * n) for j in range(n)]
    return [[col[i] for col in cols] for i in range(n)]
