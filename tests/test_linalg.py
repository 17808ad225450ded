"""Hand-computed cases of the Bareiss kernel in ``kstab._linalg``.

Plain pytest, so they run where sympy and hypothesis are absent and the
property tests in ``test_linalg_properties.py`` skip.
"""

from fractions import Fraction as Q

import pytest

from kstab import _linalg


def inverse_over(rows):
    """``_linalg.inverse(rows)`` as Fractions, after checking its form:
    integer R and r > 0 with rows * R = r * I."""
    num, r = _linalg.inverse(rows)
    assert type(r) is int and r > 0
    assert all(type(x) is int for row in num for x in row)
    n = len(rows)
    assert [[sum(rows[i][k] * num[k][j] for k in range(n))
             for j in range(n)] for i in range(n)] == \
        [[r * (i == j) for j in range(n)] for i in range(n)]
    return [[Q(x, r) for x in row] for row in num]


def test_zero_leading_entry_swaps_rows():
    rows = [[0, 2], [3, 1]]
    m, _ = _linalg._integer_form(rows)
    assert _linalg._echelon(m) == ([0, 1], -1)
    assert m == [[3, 1], [0, 6]]
    assert _linalg.det(rows) == -6
    assert _linalg.solve(rows, [4, 5]) == [1, 2]
    assert inverse_over(rows) == [[Q(-1, 6), Q(1, 3)], [Q(1, 2), 0]]


def test_wide_rank_deficient_skips_a_column():
    rows = [[1, 2, 3, 4], [2, 4, 7, 9], [3, 6, 10, 13]]
    m, _ = _linalg._integer_form(rows)
    assert _linalg._echelon(m) == ([0, 2], 1)
    assert m == [[1, 2, 3, 4], [0, 0, 1, 1], [0, 0, 0, 0]]
    assert _linalg.rank(rows) == 2
    # Free variables x1 and x3 are zero.
    assert _linalg.solve(rows, [1, 3, 4]) == [-2, 0, 1, 0]
    assert _linalg.solve(rows, [1, 3, 5]) is None


def test_singular_square_block():
    rows = [[2, 4], [1, 2]]
    assert _linalg.rank(rows) == 1
    assert _linalg.det(rows) == 0
    assert _linalg.inverse(rows) is None
    assert _linalg.solve(rows, [2, 1]) == [1, 0]
    assert _linalg.solve(rows, [1, 1]) is None


def test_negative_determinant():
    rows = [[2, 0, 1], [1, 3, 2], [1, 1, 0]]
    assert _linalg.det(rows) == -6
    assert inverse_over(rows) == [[Q(1, 3), Q(-1, 6), Q(1, 2)],
                                  [Q(-1, 3), Q(1, 6), Q(1, 2)],
                                  [Q(1, 3), Q(1, 3), -1]]


def test_wide_rank_deficient_block_with_determinant_six():
    # Row 3 is row 1 + row 2; the pivot block on columns 0 and 2 is
    # [[2, 4], [4, 5]], of determinant -6, so X = 6 x is integer.
    rows = [[2, 1, 4, 0], [4, 2, 5, 3], [6, 3, 9, 3]]
    m = [row + [b] for row, b in zip(rows, [1, 1, 2])]
    assert _linalg._solve(m, 4) == ([[-1], [0], [2], [0]], 6)
    # Free variables x1 and x3 are zero.
    assert _linalg.solve(rows, [1, 1, 2]) == [Q(-1, 6), 0, Q(1, 3), 0]
    assert _linalg.solve(rows, [1, 1, 3]) is None


@pytest.mark.parametrize("rows, rhs", [
    ([[1, 0], [0, 1]], [1]),
    ([[1, 0], [0, 1]], [1, 2, 3]),
    ([[1, 2, 3]], []),
], ids=["short", "long", "empty"])
def test_solve_rhs_of_the_wrong_length(rows, rhs):
    with pytest.raises(ValueError, match="one right-hand side entry per row"):
        _linalg.solve(rows, rhs)


def test_fraction_matrix():
    rows = [[Q(1, 2), Q(1, 3)], [Q(1, 4), 1]]
    assert _linalg._integer_form(rows) == ([[6, 4], [3, 12]], 12)
    assert _linalg.rank(rows) == 2
    assert _linalg.det(rows) == Q(5, 12)
    assert _linalg.solve(rows, [1, 1]) == [Q(8, 5), Q(3, 5)]
    assert inverse_over(rows) == [[Q(12, 5), Q(-4, 5)], [Q(-3, 5), Q(6, 5)]]


@pytest.mark.parametrize("rows", [
    [[0, 2], [3, 1]],
    [[2, 0, 1], [1, 3, 2], [1, 1, 0]],
    [[Q(1, 2), Q(1, 3)], [Q(1, 4), 1]],
], ids=["swap", "negative-determinant", "fraction"])
def test_solve_of_a_unit_vector_is_a_column_of_the_inverse(rows):
    inv = inverse_over(rows)
    n = len(rows)
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        assert _linalg.solve(rows, e) == [inv[i][j] for i in range(n)]


@pytest.mark.parametrize("rows, form", [
    (((2, 0, -1), (1, 3, 2)), ([[2, 0, -1], [1, 3, 2]], 1)),
    ([[1, Q(1, 2)], [Q(-2, 3), 3]], ([[6, 3], [-4, 18]], 6)),
    ([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1)]], ([[6, 4], [3, 12]], 12)),
], ids=["int", "mixed", "fraction"])
def test_integer_form_is_a_fresh_integer_copy(rows, form):
    m, d = _linalg._integer_form(rows)
    assert (m, d) == form
    assert all(type(x) is int for row in m for x in row)
    m[0][0] += 1
    assert rows[0][0] == form[0][0][0] / d  # the input is left as it was
