from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lgmirror import linalg


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def apply(rows, x):
    """rows·x for sparse rows and a sparse x."""
    return [sum((Fraction(e) * x.get(c, 0) for c, e in row.items()), Fraction(0))
            for row in rows]


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
    with pytest.raises(ValueError):          # not square
        linalg.invert([[1, 2]])


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
    A = [{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 1}]
    x = linalg.solve_general(A, [3, 6, 1])
    assert apply(A, x) == [3, 6, 1]
    assert x == {0: 1, 1: 2}
    assert list(x) == [0, 1]
    # underdetermined: free variable pinned to 0, so absent
    x2 = linalg.solve_general([{0: 1, 1: 1}], [5])
    assert x2 == {0: Fraction(5)}
    with pytest.raises(ValueError):
        linalg.solve_general([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2])


def test_rowspace_reduce_and_rank():
    sp = linalg.RowSpace()
    assert sp.add({0: 1, 1: 1})
    assert sp.add({1: 1, 2: 1})
    assert not sp.add({0: 1, 1: 2, 2: 1})          # dependent
    assert len(sp.rows) == 2
    # reduction is canonical: anything in the span reduces to zero
    assert sp.reduce({0: 5, 1: 7, 2: 2}) == {}
    r = sp.reduce({2: 1})
    assert r != {}
    assert 2 not in sp.rows
    assert sorted(sp.rows) == [0, 1]


def test_rowspace_reduce_idempotent():
    sp = linalg.RowSpace()
    sp.add({0: 2, 2: 1})
    sp.add({1: 3, 3: 1})
    v = {0: 1, 1: 1, 2: 1, 3: 1}
    once = sp.reduce(v)
    assert sp.reduce(once) == once


sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=3),
    max_size=6)


@given(sparse_rows, st.randoms(use_true_random=False),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_rref_is_unique_and_solve_general_is_pivot_supported(rows, rnd, weights):
    """The RREF of a span does not depend on the order its rows arrive in,
    which is what makes every view of the kernel order-free."""
    spaces = []
    for _ in range(2):
        order = list(rows)
        rnd.shuffle(order)
        sp = linalg.RowSpace()
        for row in order:
            sp.add(row)
        spaces.append(sp)
    first, second = spaces
    assert first.rows == second.rows
    for p, row in first.rows.items():
        assert row[p] == 1 and min(row) == p
        assert all(c == p or c not in first.rows for c in row)
        assert all(e != 0 for e in row.values())
    for row in rows:
        assert first.reduce(row) == {}
    # a right-hand side in the column space: rows·y for an arbitrary y
    y = {c: w for c, w in enumerate(weights) if w}
    rhs = apply(rows, y)
    x = linalg.solve_general(rows, rhs)
    assert apply(rows, x) == rhs
    assert list(x) == sorted(x)
    assert set(x) <= set(first.rows)
    assert all(v != 0 for v in x.values())
    # a right-hand side off the column space is refused
    if len(rows) > len(first.rows):
        left = linalg.RowSpace()
        for i, row in enumerate(rows):
            left.add({**row, 6 + i: 1})
        # a dependency among the rows: sum of λ_i row_i = 0 with λ ≠ 0
        dep = next(r for p, r in left.rows.items() if p >= 6)
        bad = [Fraction(0)] * len(rows)
        bad[min(dep) - 6] = Fraction(1)
        with pytest.raises(ValueError):
            linalg.solve_general(rows, [a + b for a, b in zip(rhs, bad)])
