"""Exact dense linear algebra over arbitrary-precision rationals.

Everything here works on lists of lists of ``fractions.Fraction`` (or ints,
which are promoted).  The matrices involved are tiny (N ≤ a handful for
exponent matrices, a few hundred rows for graded quotient slices), so plain
Gaussian elimination with exact pivots is both adequate and, unlike floating
point, actually correct.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]


def _frac_rows(m) -> Matrix:
    """Copy a matrix, promoting every entry to Fraction."""
    return [[Fraction(e) for e in row] for row in m]


def mat_vec(a, v) -> Row:
    return [sum((Fraction(row[j]) * v[j] for j in range(len(v))), Fraction(0))
            for row in a]


def invert(m) -> Matrix:
    """Inverse by Gauss-Jordan elimination.

    Raises ValueError on a singular matrix; for exponent matrices of valid
    invertible polynomials this never happens and signals corrupt input.
    """
    a = _frac_rows(m)
    n = len(a)
    assert all(len(row) == n for row in a), "invert: matrix must be square"
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [er - f * ec for er, ec in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve(m, rhs) -> Row:
    """Solve m·x = rhs exactly (square, nonsingular)."""
    inv = invert(m)
    return mat_vec(inv, [Fraction(e) for e in rhs])


def solve_general(m, rhs) -> Row:
    """One exact solution of a possibly rectangular system m·x = rhs
    (free variables set to 0); raises ValueError if inconsistent."""
    rows = _frac_rows(m)
    b = [Fraction(e) for e in rhs]
    assert len(rows) == len(b)
    ncols = len(rows[0]) if rows else 0
    aug = [row + [bi] for row, bi in zip(rows, b)]
    pivots: list[tuple[int, int]] = []      # (row, col)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [e * inv for e in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [ei - f * er for ei, er in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for pr, pc in pivots:
        x[pc] = aug[pr][ncols]
    return x


class RowSpace:
    """Reduced row echelon span with exact normal forms modulo the span.

    Used as the brute-force quotient oracle: feed in relation vectors, then
    ``reduce(v)`` returns the canonical representative of v modulo the span
    (coordinates on pivot columns eliminated).
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: Matrix = []          # reduced echelon rows
        self.pivots: list[int] = []     # pivot column of each row

    def reduce(self, vec) -> Row:
        v = [Fraction(e) for e in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                for c in range(p, self.width):
                    v[c] -= f * row[c]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        p = next((c for c in range(self.width) if v[c] != 0), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [e * inv for e in v]
        # back-substitute into existing rows to keep the echelon reduced
        for i, row in enumerate(self.rows):
            if row[p] != 0:
                f = row[p]
                self.rows[i] = [er - f * ev for er, ev in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        order = sorted(range(len(self.pivots)), key=self.pivots.__getitem__)
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def free_columns(self) -> list[int]:
        taken = set(self.pivots)
        return [c for c in range(self.width) if c not in taken]
