"""Small exact linear algebra over the rationals, run in integers.

A matrix is read once as integer rows over one denominator
(``_integer_form``) and reduced by Bareiss's fraction-free elimination
(``_echelon``; Math. Comp. 22, 1968): each row update divides exactly by
the previous pivot, so every entry stays an ``int``.  ``solve`` and
``inverse`` eliminate the augmented rows [A | B] and share one integer
back substitution (``_solve``).
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


def _echelon(m):
    """Bareiss elimination of the integer rows ``m`` in place.  Returns
    ``(pivots, sign)``: the pivot column of each leading row (rows from
    ``len(pivots)`` on are zero) and the sign of the row swaps."""
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top, p = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        pivots.append(c)
        prev = p
    return pivots, sign


def _solve(m, n: int):
    """``(X, r)`` for the integer rows ``m`` = [A | B], A their first ``n``
    columns: X integer, one row per unknown, r > 0, A X = r B and the free
    unknowns zero; None if a pivot lands in B's columns.  r is the size of
    the last pivot, |det P| for the pivot block P, so X is +-adj(P) times
    B's pivot rows: integer, and each back-substitution division exact."""
    pivots, _ = _echelon(m)
    if pivots and pivots[-1] >= n:
        return None
    r = abs(m[len(pivots) - 1][pivots[-1]]) if pivots else 1
    x = [[0] * (len(m[0]) - n) for _ in range(n)]
    for i in reversed(range(len(pivots))):
        c, row = pivots[i], m[i]
        acc = [r * b for b in row[n:]]
        for j in pivots[i + 1:]:
            if row[j]:
                acc = [a - row[j] * t for a, t in zip(acc, x[j])]
        x[c] = [a // row[c] for a in acc]
    return x, r


def solve(rows, rhs):
    """One exact solution of ``A x = b`` as Fractions, the free variables
    zero, or None if the system is inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError("solve requires one right-hand side entry per row")
    m, _ = _integer_form([[*row, b] for row, b in zip(rows, rhs)])
    sol = _solve(m, len(m[0]) - 1 if m else 0)
    return None if sol is None else [Fraction(t, sol[1]) for t, in sol[0]]


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
    if ``rows`` = N / d is singular: ``_solve`` on [N | d I], so r = |det N|
    and R = r d N^-1."""
    n = len(rows)
    m, d = _integer_form(rows)
    for i, row in enumerate(m):
        row.extend(d * (i == j) for j in range(n))
    return _solve(m, n)
