from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lgmirror import linalg


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_identity_inverts_to_itself():
    I3 = identity(3)
    assert linalg.invert(I3) == I3


def test_invert_known_2x2():
    # [[2,1],[1,2]] has det 3
    inv = linalg.invert([[2, 1], [1, 2]])
    assert inv == [[Fraction(2, 3), Fraction(-1, 3)],
                   [Fraction(-1, 3), Fraction(2, 3)]]


def test_singular_raises():
    with pytest.raises(ValueError):
        linalg.invert([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        linalg.solve([[1, 2], [2, 4]], [1, 1])


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_invert_roundtrip(rows):
    try:
        inv = linalg.invert(rows)
    except ValueError:          # singular draw
        return
    assert product(rows, inv) == identity(3)
    assert product(inv, rows) == identity(3)


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_solve_matches_invert(rows, rhs):
    try:
        x = linalg.solve(rows, rhs)
    except ValueError:          # singular draw
        return
    assert linalg.mat_vec(rows, x) == [Fraction(b) for b in rhs]


def test_solve_general_rectangular():
    # overdetermined but consistent
    A = [[1, 1], [2, 2], [1, 0]]
    x = linalg.solve_general(A, [3, 6, 1])
    assert linalg.mat_vec(A, x) == [3, 6, 1]
    # underdetermined: free variable pinned to 0
    x2 = linalg.solve_general([[1, 1, 0]], [5])
    assert x2 == [Fraction(5), Fraction(0), Fraction(0)]
    with pytest.raises(ValueError):
        linalg.solve_general([[1, 1], [1, 1]], [1, 2])


def test_rowspace_reduce_and_rank():
    sp = linalg.RowSpace(3)
    assert sp.add([1, 1, 0])
    assert sp.add([0, 1, 1])
    assert not sp.add([1, 2, 1])          # dependent
    assert sp.rank == 2
    # reduction is canonical: anything in the span reduces to zero
    assert sp.reduce([5, 7, 2]) == [0, 0, 0]
    r = sp.reduce([0, 0, 1])
    assert r != [0, 0, 0]
    assert sp.free_columns() == [2]


def test_rowspace_reduce_idempotent():
    sp = linalg.RowSpace(4)
    sp.add([2, 0, 1, 0])
    sp.add([0, 3, 0, 1])
    v = [1, 1, 1, 1]
    once = sp.reduce(v)
    assert sp.reduce(once) == once
