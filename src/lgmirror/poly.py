"""Invertible quasihomogeneous polynomials: parsing, classification, weights.

A polynomial is read through its exponent matrix E (row i = i-th monomial).
For an invertible polynomial the matrix is square and invertible over Q, the
weights are the unique exact solution of E·q = (1,…,1)ᵗ, and the polynomial
decomposes as a disjoint sum of Fermat / chain / loop pieces:

    Fermat:  x^a
    chain:   x_1^{a_1} x_2 + x_2^{a_2} x_3 + … + x_N^{a_N}
    loop:    x_1^{a_1} x_2 + x_2^{a_2} x_3 + … + x_N^{a_N} x_1

with every a_i ≥ 2.  Chains read in either orientation (a pure-power row may
sit at either end of the path); loops are canonicalized by rotating the cycle
so the lexicographically smallest exponent tuple starts it, counting the
rotations from the cycle's smallest variable on a tie.

The classifier is the one reader of E's row structure: it records the row
headed by each variable and walks the successor map once, sources first,
so each walk ends at a pure power (a chain or a Fermat) or back at its
start (a loop).  W is stored as its summands and ``head``, with no
matrix: E⁻¹ is block diagonal, one block per summand, and is applied,
not stored, by `InvertiblePolynomial.inverse_times`, which solves E·θ = r
in one pass along each summand (a Fermat is the chain of length one)
and returns D·θ; `AtomicSummand.det` is the one determinant formula.
D is the lcm of the summands' determinants, which is the lcm of E⁻¹'s
denominators and so the exponent of the maximal symmetry group, and the
weights are stored once, in integers over it: q = Dq/D.  The grading
``degree`` and the A side's phase arithmetic both work over D; the
exponent matrix ``E`` and the ``Fraction`` views ``q`` and ``charge`` are
built on first read, and ``inverse_exponents()`` on each call.

Each input format is checked once, by its reader, which hands on each
monomial as a {0-based variable: exponent} map to be classified.  Every
polynomial is built by `_assemble` from its summands and `head` alone: W,
its transpose `transpose()` and the atomic piece `piece(v)` that both
correlator sides evaluate, the last two once per polynomial through
`derive`, kept on W as long as W lives, one piece per summand.  A piece
keeps the A and B values of its admitted targets, under
``("four_point", key)`` and ``("sg_four_point", key)`` (`mirror.Target.key`).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import WrongConfiguration


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text or JSON input."""


class NotInvertibleShape(ValueError):
    """The monomial/variable incidence pattern matches no atomic sum."""


class _Summand(NamedTuple):
    kind: str                    # 'fermat' | 'chain' | 'loop'
    exponents: tuple[int, ...]
    variables: tuple[int, ...]


class AtomicSummand(_Summand):
    """One atomic piece.  ``variables`` are 0-based ambient indices listed in
    chain/loop order, so the piece's monomials are
    x_{v1}^{a1} x_{v2} + x_{v2}^{a2} x_{v3} + …  (chain: last is a pure power;
    loop: last points back to v1; Fermat: a single pure power)."""

    __slots__ = ()

    def __new__(cls, kind, exponents, variables):
        if kind not in ("fermat", "chain", "loop"):
            raise WrongConfiguration(f"unknown summand kind {kind!r}")
        if len(exponents) != len(variables):
            raise WrongConfiguration("one exponent per variable expected")
        if not all(a >= 2 for a in exponents):
            raise WrongConfiguration(f"exponents {exponents} below 2")
        if kind == "fermat" and len(variables) != 1:
            raise WrongConfiguration("a Fermat summand has one variable")
        if kind != "fermat" and len(variables) < 2:
            raise WrongConfiguration(f"a {kind} needs two variables or more")
        return super().__new__(cls, kind, exponents, variables)

    @property
    def det(self) -> int:
        """∏ a_i, minus (−1)^N for a loop: |det| of the piece's block of E."""
        det = math.prod(self.exponents)
        if self.kind == "loop":
            det -= (-1) ** len(self.exponents)
        return det

    def monomials(self):
        """(v, a_v, w) per variable in chain order: the monomial x_v^{a_v}·x_w,
        with w = v at a chain's end and for a Fermat, where x_v points nowhere."""
        vs = self.variables
        return zip(vs, self.exponents, vs[1:] + (vs[0] if self.kind == "loop" else vs[-1],))

    def describe(self) -> str:
        inner = ",".join(str(a) for a in self.exponents)
        return f"{self.kind.capitalize()}({inner})"


class InvertiblePolynomial(NamedTuple):
    """An immutable value: ==, != and hash read N, the summands and head,
    which determine E, so the data read off them and the memo of `derive`
    stay out."""

    N: int
    summands: tuple[AtomicSummand, ...]
    # head[v] is the row of E headed by x_v, the monomial x_v^a or x_v^a·x_u
    head: tuple[int, ...]
    # q in integers, q = Dq/D, where D is the lcm of E⁻¹'s denominators,
    # the exponent of the maximal group G_W
    D: int
    Dq: tuple[int, ...]
    memo: dict

    def __eq__(self, other):
        # False, not NotImplemented: a plain tuple must not compare equal
        return type(other) is InvertiblePolynomial and self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        return f"InvertiblePolynomial(N={self.N!r}, E={self.E!r}, summands={self.summands!r})"

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_exponent_matrix(rows) -> "InvertiblePolynomial":
        """The polynomial of ``rows``, one checked {0-based variable:
        nonzero exponent} map per monomial, from `parse_exponent_matrix` or `from_json`."""
        return InvertiblePolynomial._assemble(*_classify_rows(rows))

    @staticmethod
    def _assemble(summands, head) -> "InvertiblePolynomial":
        """The polynomial of its summands and of the row each variable heads.
        Every block of E⁻¹ has an entry ±1/det, so D, the lcm of the
        summands' determinants, is also the lcm of E⁻¹'s denominators."""
        W = InvertiblePolynomial(len(head), tuple(summands), tuple(head),
                                 math.lcm(*(s.det for s in summands)), (), {})
        # the weights solve E·q = (1,…,1)ᵗ
        Dq = W.inverse_times((1,) * W.N)
        if not all(0 < x and 2 * x <= W.D for x in Dq):
            # no atomic sum with all a_i >= 2 has such weights; guard anyway
            raise NotInvertibleShape(f"weights {tuple(Fraction(x, W.D) for x in Dq)} out of range (0,1/2]")
        return W._replace(Dq=Dq)

    @staticmethod
    def from_string(text: str) -> "InvertiblePolynomial":
        return InvertiblePolynomial.from_exponent_matrix(parse_exponent_matrix(text))

    @staticmethod
    def from_json(blob: str) -> "InvertiblePolynomial":
        """The polynomial of ``{"E": [[...], ...]}``: the one reader of a dense matrix."""
        try:
            data = json.loads(blob, parse_int=parse_int)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise PolynomialSyntaxError(f"bad JSON: {exc}") from exc
        if not isinstance(data, dict) or "E" not in data:
            raise PolynomialSyntaxError('JSON input must be {"E": [[...], ...]}')
        E = data["E"]
        if not isinstance(E, list) or not all(isinstance(row, list) for row in E):
            raise PolynomialSyntaxError("exponent matrix must be a list of rows")
        # type, not isinstance: JSON true is a bool, which must not read as 1
        if any(type(e) is not int for row in E for e in row):
            raise PolynomialSyntaxError("exponents must be integers")
        if not E or any(len(row) != len(E) for row in E):
            raise PolynomialSyntaxError("exponent matrix must be square and nonempty")
        if any(e < 0 for row in E for e in row):
            raise PolynomialSyntaxError("negative exponent")
        return InvertiblePolynomial.from_exponent_matrix([{j: e for j, e in enumerate(row) if e} for row in E])

    # -- derived data ---------------------------------------------------

    def degree(self, m) -> int:
        """D times the weighted degree Σ m_i q_i of the monomial m."""
        return weighted_degree(self.Dq, m)

    @property
    def q(self) -> tuple[Fraction, ...]:
        """The weights q = Dq/D as ``Fraction``s, built on first read."""
        return self.derive("q", lambda: tuple(Fraction(x, self.D) for x in self.Dq))

    @property
    def charge(self) -> Fraction:
        """The central charge ĉ = Σ(1 − 2qᵢ), built on first read."""
        return self.derive("charge", lambda: Fraction(self.N * self.D - 2 * sum(self.Dq), self.D))

    @property
    def E(self) -> tuple[tuple[int, ...], ...]:
        """The exponent matrix, built on first read: row head[v] is
        x_v^{a_v} times the x_w that x_v points at."""
        def dense():
            E = [()] * self.N
            for s in self.summands:
                for v, a, w in s.monomials():
                    row = [0] * self.N
                    row[w], row[v] = 1, a
                    E[self.head[v]] = tuple(row)
            return tuple(E)
        return self.derive("E", dense)

    def inverse_times(self, r) -> tuple[int, ...]:
        """D·E⁻¹·r for the integer vector r over the rows of E, by variable:
        the solution θ of E·θ = r, times D, in one pass along each summand.
        Row head[v_i] of E reads a_i·θ_{v_i} + θ_{v_{i+1}} = r_i (no
        θ_{v_{i+1}} at a chain's end, θ_{v_1} after a loop's), so
        det·θ_{v_1} = Σ_j (−1)^j (∏_{k>j} a_k)·r_j, for chains and loops
        alike, and D·θ_{v_{i+1}} = D·r_i − a_i·D·θ_{v_i}."""
        D, head, out = self.D, self.head, [0] * self.N
        for s in self.summands:
            rows = [r[head[v]] for v in s.variables]
            theta, sign = 0, 1
            for a, x in zip(s.exponents, rows):   # Horner
                theta, sign = theta * a + sign * x, -sign
            theta *= D // s.det
            for v, a, x in zip(s.variables, s.exponents, rows):
                out[v] = theta
                theta = D * x - a * theta
        return tuple(out)

    def inverse_exponents(self) -> tuple[tuple[Fraction, ...], ...]:
        """E⁻¹ as ``Fraction``s, built column by column on each call; entry
        [i][j] is ρ_j^{(i)}."""
        columns = [self.inverse_times([int(i == j) for i in range(self.N)]) for j in range(self.N)]
        return tuple(tuple(Fraction(x, self.D) for x in row) for row in zip(*columns))

    def derive(self, key, build):
        """``build()`` on the first call with ``key``, the same object on
        every later one: the memo lives on this polynomial, as long as it.
        A ``build()`` that raises stores nothing, so the next call with
        ``key`` builds again."""
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = build()
            return value

    def transpose(self) -> "InvertiblePolynomial":
        """Wᵗ, read off W's summands and ``head``: its variable r is row r
        of E, so x_v's summand runs backwards over the rows ``head`` names,
        and the row of Wᵗ headed by x_{head[v]} is v."""
        return self.derive("transpose", lambda: InvertiblePolynomial._assemble(
            sorted((_canonical(s.kind, s.exponents[::-1], [self.head[v] for v in s.variables[::-1]])
                    for s in self.summands), key=lambda s: s.variables[0]),
            tuple(sorted(range(self.N), key=self.head.__getitem__))))

    def piece(self, v: int) -> tuple["InvertiblePolynomial", int]:
        """x_v's atomic summand (0-based v) as a standalone polynomial, and
        v's 1-based index in it: a `mirror.Target` once admitted.  Its
        variables run in the summand's chain order, variable i heading row
        i, so every variable of one summand gets the same piece, built from
        the summand alone.  Correlators of a direct sum factor through
        summands."""
        s = self.summand_of(v)
        ident = tuple(range(len(s.variables)))
        return self.derive(("piece", s.kind, s.exponents), lambda: InvertiblePolynomial._assemble(
            [AtomicSummand(s.kind, s.exponents, ident)], ident)), s.variables.index(v) + 1

    def target_order(self, local: int) -> tuple[int, ...]:
        """The piece's variables (0-based), a loop's shifted so that x_local
        (1-based) comes last: the order of memo keys, decorations and trails."""
        n, shift = self.N, local if self.summands[0].kind == "loop" else 0
        return tuple((shift + k) % n for k in range(n))

    def group_order(self) -> int:
        """|G_max| = |det E|, the product of the summands' determinants."""
        return math.prod(s.det for s in self.summands)

    def weight_half_variables(self) -> tuple[int, ...]:
        return tuple(i for i, dq in enumerate(self.Dq) if 2 * dq == self.D)

    def summand_of(self, i: int) -> AtomicSummand:
        """x_i's summand (0-based i), read off a map built once per W."""
        return self.derive("summand_of", lambda: {v: s for s in self.summands for v in s.variables})[i]

    def describe(self) -> str:
        return " ⊕ ".join(s.describe() for s in self.summands)

    def to_string(self) -> str:
        """W's text in row order, each monomial x_v^{a_v}·x_w written from its summand."""
        rows = [""] * self.N
        for s in self.summands:
            for v, a, w in s.monomials():
                factors = {w: "", v: f"^{a}"}  # one factor when w = v
                rows[self.head[v]] = "*".join(f"x{k + 1}{e}" for k, e in sorted(factors.items()))
        return " + ".join(rows)


def weighted_degree(Dq, m) -> int:
    """D·Σ m_i q_i for the weights q = Dq/D: the one grading formula, which
    `InvertiblePolynomial.degree` and the Jacobi ring, holding only Dq, read."""
    return sum(map(mul, m, Dq))


def format_monomial(m) -> str:
    """'x1^2*x3' for the exponent tuple (2, 0, 1), and '1' for no factor."""
    factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e > 0]
    return "*".join(factors) if factors else "1"


# ---------------------------------------------------------------------------
# parsing

_FACTOR = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_int(digits: str) -> int:
    """int(digits), with a numeral past Python's int-string limit refused
    as a syntax error."""
    try:
        return int(digits)
    except ValueError:
        raise PolynomialSyntaxError(f"numeral of {len(digits)} digits is too long") from None


def parse_term(term: str) -> dict[int, int]:
    """Parse one whitespace-free monomial 'x1^2*x3*x1' into {1-based
    variable index: exponent}, repeated factors summed."""
    exps: dict[int, int] = {}
    for factor in term.split("*"):
        m = _FACTOR.fullmatch(factor)
        if not m:
            raise PolynomialSyntaxError(f"bad factor {factor!r}")
        idx = parse_int(m.group(1))
        exp = parse_int(m.group(2)) if m.group(2) is not None else 1
        if idx < 1:
            raise PolynomialSyntaxError(f"variable index {idx} out of range")
        if exp <= 0:
            raise PolynomialSyntaxError(f"exponent {exp} must be positive")
        exps[idx] = exps.get(idx, 0) + exp
    return exps


def parse_exponent_matrix(text: str) -> list[dict[int, int]]:
    """Parse 'x1^3*x2 + x2^4' into [{0: 3, 1: 1}, {1: 4}], one map per monomial."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise PolynomialSyntaxError("empty input")
    rows_raw = []
    for term in stripped.split("+"):
        if not term:
            raise PolynomialSyntaxError("empty term (stray '+')")
        rows_raw.append(parse_term(term))
    n = max(max(exps) for exps in rows_raw)
    if len(rows_raw) != n:
        raise PolynomialSyntaxError(
            f"{len(rows_raw)} monomials but {n} variables; invertible "
            "polynomials need exactly one monomial per variable")
    seen_vars = set().union(*rows_raw)
    if seen_vars != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - seen_vars)
        raise PolynomialSyntaxError(f"variable indices not contiguous; missing x{missing}")
    if len({frozenset(exps.items()) for exps in rows_raw}) != n:
        raise PolynomialSyntaxError("repeated monomial")
    return [{j - 1: e for j, e in exps.items()} for exps in rows_raw]


# ---------------------------------------------------------------------------
# classification

def _classify_rows(rows) -> tuple[list[AtomicSummand], tuple[int, ...]]:
    """The atomic summands of the monomial maps ``rows``, and the row each variable heads."""
    n = len(rows)
    owner_row: dict[int, int] = {}   # variable -> its monomial row
    out_edge: dict[int, int | None] = {}
    for r, row in enumerate(rows):
        support = list(row.items())
        if len(support) == 1:
            j, e = support[0]
            if e < 2:
                raise NotInvertibleShape(f"monomial {r+1} is linear in x{j+1}")
            owner, target = j, None
        elif len(support) == 2:
            heads = [(j, e) for j, e in support if e >= 2]
            tails = [(j, e) for j, e in support if e == 1]
            if len(heads) != 1 or len(tails) != 1:
                raise NotInvertibleShape(
                    f"monomial {r+1} does not look like x_i^a or x_i^a·x_j")
            owner, target = heads[0][0], tails[0][0]
        else:
            raise NotInvertibleShape(f"monomial {r+1} involves {len(support)} variables")
        if owner in owner_row:
            raise NotInvertibleShape(f"x{owner+1} heads two monomials")
        owner_row[owner] = r
        out_edge[owner] = target
    # n rows with distinct heads among n columns: every variable heads one
    in_deg = [0] * n
    for t in out_edge.values():
        if t is not None:
            in_deg[t] += 1
    twice = [v for v in range(n) if in_deg[v] > 1]
    if twice:
        raise NotInvertibleShape(f"x{twice[0]+1} is pointed at by two monomials")

    # one walk per summand, sources first: from a source the walk ends at
    # a pure power (a chain, or a Fermat); from any variable left it
    # returns to its start (a loop).  With in-degree at most 1, a walk
    # meets no variable seen before but its own start.
    summands = []
    seen: set[int] = set()
    for start in sorted(range(n), key=in_deg.__getitem__):
        if start in seen:
            continue
        path = [start]
        while (nxt := out_edge[path[-1]]) is not None and nxt != start:
            path.append(nxt)
        seen.update(path)
        kind = "loop" if nxt == start else "chain" if len(path) > 1 else "fermat"
        summands.append(_canonical(kind, [rows[owner_row[v]][v] for v in path], path))
    summands.sort(key=lambda s: s.variables[0])
    return summands, tuple(owner_row[v] for v in range(n))


def _canonical(kind: str, exps, variables) -> AtomicSummand:
    """The summand with ``variables`` in chain order and their exponents.
    A loop is rotated to the lexicographically smallest exponent tuple,
    the first one from its smallest variable on a tie."""
    if kind == "loop":
        start, k = variables.index(min(variables)), len(exps)
        rot = min(range(k), key=lambda r: (exps[r:] + exps[:r], (r - start) % k))
        exps, variables = exps[rot:] + exps[:rot], variables[rot:] + variables[:rot]
    return AtomicSummand(kind, tuple(exps), tuple(variables))
