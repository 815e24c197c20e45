"""Helpers shared by the test modules."""

import itertools
import json
from fractions import Fraction

from lgmirror import linalg
from lgmirror.groups import GroupElement
from lgmirror.jacobi import _graded, _partials
from lgmirror.poly import AtomicSummand, InvertiblePolynomial


def from_dense(E):
    """The polynomial of a dense exponent matrix (a list of rows), read as
    ``lgmirror`` reads a JSON input: the one reader of a dense matrix."""
    return InvertiblePolynomial.from_json(json.dumps({"E": E}))


def dense_inverse(W):
    """D·E⁻¹ of W as a tuple of rows, built from its columns
    `W.inverse_times(e_j)`: the dense matrix the polynomial no longer stores."""
    columns = [W.inverse_times([int(i == j) for i in range(W.N)]) for j in range(W.N)]
    return tuple(zip(*columns))


def reassemble(summands, n):
    """Exponent matrix of a disjoint sum of atomics (inverse of classify)."""
    rows = []
    for s in summands:
        vs, exps = s.variables, s.exponents
        for pos, v in enumerate(vs):
            row = [0] * n
            row[v] = exps[pos]
            if s.kind == "chain" and pos + 1 < len(vs):
                row[vs[pos + 1]] = 1
            elif s.kind == "loop":
                row[vs[(pos + 1) % len(vs)]] = 1
            rows.append(row)
    return rows


def grading_element(W):
    """J_W, with phases the fractional parts of the weights qᵢ = Dqᵢ/D."""
    return GroupElement(tuple(x % W.D for x in W.Dq), W.D)


def criteria_atomics():
    """The atomic W of the criterion 1–3 suites, in their order: Fermat
    a = 3..9, chains with N ≤ 4, aᵢ ≤ 5 and a_N ≥ 3, loops with N ≤ 4,
    aᵢ ≤ 5."""
    shapes = [("fermat", (a,)) for a in range(3, 10)]
    shapes += [(kind, a) for kind in ("chain", "loop") for n in (2, 3, 4)
               for a in itertools.product(range(2, 6), repeat=n)
               if kind != "chain" or a[-1] >= 3]
    for kind, a in shapes:
        raw = reassemble([AtomicSummand(kind, a, tuple(range(len(a))))], len(a))
        yield from_dense(raw)


def residue_pairing(R, a, b):
    """The residue pairing of two ring elements of R: the coefficient of the
    socle monomial ``R.top`` in the product a·b."""
    return dict(R.multiply(a, b).coeffs).get(R.basis.index[R.top], Fraction(0))


def values(p):
    """{monomial: integer pair (num, den)}, as `JacobiRing.divide` takes and
    returns it, as {monomial: Fraction}."""
    return {m: Fraction(*c) for m, c in p.items()}


def pairs(p):
    """{monomial: coefficient} as {monomial: integer pair (num, den)}."""
    return {m: (Fraction(c).numerator, Fraction(c).denominator) for m, c in p.items()}


def quotients(R, terms):
    """A certificate's flat terms (v, s, κ) as the quotients h_j, one
    {cofactor: Fraction} per j with the zeros dropped, so that two
    certificates compare whatever order and grouping their terms have."""
    quot = [{} for _ in range(R.n)]
    for v, s, c in terms:
        quot[v][s] = quot[v].get(s, Fraction(0)) + Fraction(*c)
    return [{s: c for s, c in sorted(h.items()) if c} for h in quot]


def assert_certificate(f, R, p, nf, terms):
    """p == nf + Σ κ·s·∂_v f, with nf in the basis span of R = Jac(f), all
    three in `JacobiRing.divide`'s integer pairs."""
    assert all(R.in_basis(m) for m in nf)
    partials = _partials(f)
    total = values(nf)
    for v, s, c in terms:
        for m0, c0 in partials[v].items():
            m = tuple(a + b for a, b in zip(s, m0))
            total[m] = total.get(m, Fraction(0)) + Fraction(*c) * c0
    assert {m: c for m, c in total.items() if c != 0} == \
        {m: c for m, c in values(p).items() if c != 0}


def slice_divide(f, R, p):
    """`JacobiRing.divide` of R = Jac(f) by exact elimination on each whole degree slice:
    a row per slice monomial, a column per basis monomial, then one per
    s·∂_j f by (j, s); free columns are 0.  It takes and returns integer
    pairs, its certificate a flat term list, as `divide` does.  The
    reference the walk's normal forms, and its quotients wherever they are
    unique, are checked against."""
    partials = _partials(f)
    by_degree = {}
    for m, c in values(p).items():
        chunk = by_degree.setdefault(f.degree(m), {})
        chunk[m] = chunk.get(m, Fraction(0)) + c
    nf_acc = {}
    terms = []
    for deg, chunk in by_degree.items():
        space = _graded(f.Dq, deg, deg)
        midx = {m: i for i, m in enumerate(space)}
        rows = [{} for _ in space]
        basis = []
        for i, m in enumerate(space):
            if R.in_basis(m):
                rows[i][len(basis)] = Fraction(1)
                basis.append(m)
        quots = []
        for j in range(R.n):
            sdeg = deg - (f.D - f.Dq[j])
            for s in _graded(f.Dq, sdeg, sdeg):
                for m0, c0 in partials[j].items():
                    rows[midx[tuple(a + b for a, b in zip(s, m0))]][len(basis) + len(quots)] = c0
                quots.append((j, s))
        rhs = [chunk.get(m, Fraction(0)) for m in space]
        for k, x in linalg.solve_general(rows, rhs).items():
            if k < len(basis):
                nf_acc[basis[k]] = nf_acc.get(basis[k], Fraction(0)) + x
            else:
                j, s = quots[k - len(basis)]
                terms.append((j, s, (x.numerator, x.denominator)))
    nf = sorted((f.degree(m), m, c) for m, c in nf_acc.items() if c != 0)
    return pairs({m: c for _, m, c in nf}), terms
