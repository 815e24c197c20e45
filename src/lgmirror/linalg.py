"""Exact sparse linear algebra over arbitrary-precision rationals.

There is one elimination kernel, `RowSpace`: it keeps the reduced row
echelon form (RREF) of a span, each row a ``{column: Fraction}`` dict with
no zero entries.  The RREF of a span is unique, so nothing computed from it
depends on the order in which rows were added.  `invert`, `solve` and
`solve_general` are views of it.  The systems involved are very sparse
(each ∂_j f of an invertible polynomial has at most two terms), so exact
elimination is both adequate and, unlike floating point, actually correct.

Only the whole-slice oracle `jacobi.OracleQuotient` and the tests use
`RowSpace` and its views; no computation path runs an elimination.  `poly`
applies E⁻¹ in one pass along each summand and `jacobi.JacobiRing.divide`
walks the binomial graph, and the tests check them against `invert` and
`solve_general`.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]
SparseRow = dict[int, Fraction]


def mat_vec(a, v) -> Row:
    return [sum((Fraction(row[j]) * v[j] for j in range(len(v))), Fraction(0))
            for row in a]


class RowSpace:
    """Reduced row echelon span with exact normal forms modulo the span.

    ``rows`` maps each pivot column to its reduced row, which holds 1 at
    the pivot and 0 (absent) at every other pivot column.  ``reduce(v)``
    returns the canonical representative of v modulo the span: v with every
    pivot column cleared.
    """

    def __init__(self):
        self.rows: dict[int, SparseRow] = {}

    def reduce(self, vec) -> SparseRow:
        v = {c: Fraction(e) for c, e in vec.items() if e != 0}
        # a row touches no pivot column but its own, so the order is free
        for p in [c for c in v if c in self.rows]:
            _subtract(v, v[p], self.rows[p])
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = 1 / v[p]
        v = {c: e * inv for c, e in v.items()}
        # clear the new pivot column from the existing rows
        for row in self.rows.values():
            if p in row:
                _subtract(row, row[p], v)
        self.rows[p] = v
        return True


def _subtract(v: SparseRow, f: Fraction, row: SparseRow) -> None:
    """v −= f·row in place, dropping the entries that cancel."""
    for c, e in row.items():
        x = v.get(c, 0) - f * e
        if x:
            v[c] = x
        else:
            del v[c]


def invert(m) -> Matrix:
    """Inverse as the right half of the RREF of [m | I].

    Raises ValueError on a non-square or singular matrix; for exponent
    matrices of valid invertible polynomials this never happens and signals
    corrupt input.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert: matrix must be square")
    sp = RowSpace()
    for i, row in enumerate(m):
        sp.add({**dict(enumerate(row)), n + i: 1})
    if any(p >= n for p in sp.rows):
        raise ValueError("singular matrix")
    return [[sp.rows[i].get(n + j, Fraction(0)) for j in range(n)]
            for i in range(n)]


def solve(m, rhs) -> Row:
    """Solve m·x = rhs exactly (square, nonsingular)."""
    return mat_vec(invert(m), [Fraction(e) for e in rhs])


def solve_general(rows, rhs) -> SparseRow:
    """One exact solution of a possibly rectangular sparse system
    rows·x = rhs, each row a {column: coefficient} dict.

    Free variables are 0, so the solution is {pivot column: value}, in
    ascending column order and without zero values; raises ValueError if
    the system is inconsistent.
    """
    b = 1 + max((c for row in rows for c in row), default=-1)
    sp = RowSpace()
    for row, e in zip(rows, rhs, strict=True):
        sp.add({**row, b: e})
    if b in sp.rows:
        raise ValueError("inconsistent linear system")
    return {p: sp.rows[p][b] for p in sorted(sp.rows) if b in sp.rows[p]}
