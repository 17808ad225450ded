"""Small exact linear algebra over the rationals, run in integers.

A matrix is read once as integer rows over one denominator
(``_integer_form``) and reduced by Bareiss's fraction-free elimination
(``_echelon``; Math. Comp. 22, 1968): each row update divides exactly by
the previous pivot, so every entry stays an ``int``.  Below the k-th
pivot a row is that pivot times its plain Gaussian row, so a right-hand
side is carried at the plain scale and may hold values of any commutative
Q-algebra, such as the Polys of ``ToricModel.effective_coordinates``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_form(rows) -> tuple[list[list[int]], int]:
    """(N, d) with rows = N / d: N integer, d the least denominator.  Rows
    of plain ints come back as a copy over d = 1."""
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], 1
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in rows], d


def _echelon(m, b=None):
    """Bareiss elimination of the integer rows ``m`` in place, carrying
    ``b`` at the plain scale.  Returns ``(pivots, sign)``: the pivot
    column of each leading row (rows from ``len(pivots)`` on are zero)
    and the sign of the row swaps."""
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            if b is not None:
                b[r], b[pivot] = b[pivot], b[r]
            sign = -sign
        top, p = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
            if f and b is not None:
                b[i] = b[i] - b[r] * Fraction(f, p)
        pivots.append(c)
        prev = p
    return pivots, sign


def solve(rows, rhs):
    """One exact solution of ``A x = b``, or None if inconsistent.

    Free variables (underdetermined systems) are set to zero.  ``rhs``
    entries may be Fractions or any values supporting +, -, * by Fraction
    and truth testing (e.g. Poly); the matrix entries must be rationals.
    """
    m, d = _integer_form(rows)
    b = list(rhs)
    pivots, _ = _echelon(m, b)
    if any(b[len(pivots):]):
        return None
    x = [Fraction(0)] * (len(m[0]) if m else 0)
    for i in reversed(range(len(pivots))):
        # Row i is s times its row in plain Gaussian elimination of rows.
        c, row = pivots[i], m[i]
        s = (m[i - 1][pivots[i - 1]] if i else 1) * d
        acc = b[i]
        for j in range(c + 1, len(x)):
            if row[j] and x[j]:
                acc = acc - x[j] * Fraction(row[j], s)
        x[c] = acc * Fraction(s, row[c])
    return x


def rank(rows) -> int:
    return len(_echelon(_integer_form(rows)[0])[0])


def det(rows) -> Fraction:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    m, d = _integer_form(rows)
    # A singular matrix leaves its last row zero.
    sign = _echelon(m)[1]
    return Fraction(sign * m[-1][-1] if n else 1, d ** n)


def inverse(rows):
    """``(R, r)`` with R integer, r > 0 and ``rows`` * R = r * I, or None
    if ``rows`` = N / d is singular.  Eliminating [N | I] leaves [U | B]
    with U N^-1 = B; r = |det N| is the last pivot's size, so R = r d N^-1
    is integer and back substitution divides exactly."""
    n = len(rows)
    m, d = _integer_form(rows)
    for i, row in enumerate(m):
        row.extend(int(i == j) for j in range(n))
    _echelon(m)
    r = abs(m[-1][n - 1]) if n else 1
    if not r:
        return None
    num = [None] * n
    for i in reversed(range(n)):
        row = m[i]
        acc = [r * d * x for x in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [a - row[j] * t for a, t in zip(acc, num[j])]
        num[i] = [a // row[i] for a in acc]
    return num, r
