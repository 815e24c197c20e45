"""Invertible quasihomogeneous polynomials: parsing, classification, weights.

A polynomial is stored through its exponent matrix E (row i = i-th monomial).
For an invertible polynomial the matrix is square and invertible over Q, the
weights are the unique exact solution of E·q = (1,…,1)ᵗ, and the polynomial
decomposes as a disjoint sum of Fermat / chain / loop pieces:

    Fermat:  x^a
    chain:   x_1^{a_1} x_2 + x_2^{a_2} x_3 + … + x_N^{a_N}
    loop:    x_1^{a_1} x_2 + x_2^{a_2} x_3 + … + x_N^{a_N} x_1

with every a_i ≥ 2.  Chains read in either orientation (a pure-power row may
sit at either end of the path); loops are canonicalized by rotating the cycle
so the lexicographically smallest exponent tuple starts it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text or JSON input."""


class NotInvertibleShape(ValueError):
    """The monomial/variable incidence pattern matches no atomic sum."""


@dataclass(frozen=True)
class AtomicSummand:
    """One atomic piece.  ``variables`` are 0-based ambient indices listed in
    chain/loop order, so the piece's monomials are
    x_{v1}^{a1} x_{v2} + x_{v2}^{a2} x_{v3} + …  (chain: last is a pure power;
    loop: last points back to v1; Fermat: a single pure power)."""

    kind: str                    # 'fermat' | 'chain' | 'loop'
    exponents: tuple[int, ...]
    variables: tuple[int, ...]

    def __post_init__(self):
        assert self.kind in ("fermat", "chain", "loop")
        assert len(self.exponents) == len(self.variables)
        assert all(a >= 2 for a in self.exponents)
        if self.kind == "fermat":
            assert len(self.variables) == 1
        else:
            assert len(self.variables) >= 2

    def describe(self) -> str:
        inner = ",".join(str(a) for a in self.exponents)
        return f"{self.kind.capitalize()}({inner})"


@dataclass(frozen=True)
class InvertiblePolynomial:
    N: int
    E: tuple[tuple[int, ...], ...]
    summands: tuple[AtomicSummand, ...]
    q: tuple[Fraction, ...]
    charge: Fraction
    E_inv: tuple[tuple[Fraction, ...], ...] = field(compare=False, repr=False)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_exponent_matrix(E) -> "InvertiblePolynomial":
        if not isinstance(E, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in E):
            raise PolynomialSyntaxError("exponent matrix must be a list of rows")
        # type, not isinstance: JSON true is a bool, which must not read as 1
        if any(type(e) is not int for row in E for e in row):
            raise PolynomialSyntaxError("exponents must be integers")
        E = tuple(tuple(row) for row in E)
        n = len(E)
        if n == 0 or any(len(row) != n for row in E):
            raise PolynomialSyntaxError("exponent matrix must be square and nonempty")
        if any(e < 0 for row in E for e in row):
            raise PolynomialSyntaxError("negative exponent")
        summands = _classify_rows(E)
        try:
            E_inv = tuple(tuple(row) for row in linalg.invert(E))
        except ValueError as exc:
            raise NotInvertibleShape("exponent matrix is singular") from exc
        # the weights solve E·q = (1,…,1)ᵗ: the row sums of E⁻¹
        q = tuple(sum(row, Fraction(0)) for row in E_inv)
        if not all(0 < qi <= Fraction(1, 2) for qi in q):
            # weights outside (0,1/2] cannot arise from an atomic sum with
            # all a_i >= 2; guard anyway so bad matrices fail loudly.
            raise NotInvertibleShape(f"weights {q} out of range (0,1/2]")
        charge = sum((1 - 2 * qi for qi in q), Fraction(0))
        return InvertiblePolynomial(n, E, tuple(summands), q, charge, E_inv)

    @staticmethod
    def from_string(text: str) -> "InvertiblePolynomial":
        return InvertiblePolynomial.from_exponent_matrix(parse_exponent_matrix(text))

    @staticmethod
    def from_json(blob: str) -> "InvertiblePolynomial":
        try:
            data = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise PolynomialSyntaxError(f"bad JSON: {exc}") from exc
        if not isinstance(data, dict) or "E" not in data:
            raise PolynomialSyntaxError('JSON input must be {"E": [[...], ...]}')
        return InvertiblePolynomial.from_exponent_matrix(data["E"])

    # -- derived data ---------------------------------------------------

    def inverse_exponents(self) -> tuple[tuple[Fraction, ...], ...]:
        """E⁻¹ exactly; entry [i][j] is ρ_j^{(i)}."""
        return self.E_inv

    def transpose(self) -> "InvertiblePolynomial":
        return InvertiblePolynomial.from_exponent_matrix(
            tuple(zip(*self.E)))

    def group_order(self) -> int:
        d = linalg.determinant(self.E)
        assert d.denominator == 1
        return abs(int(d))

    def weight_half_variables(self) -> tuple[int, ...]:
        return tuple(i for i, qi in enumerate(self.q) if qi == Fraction(1, 2))

    def chain_weight_half_tails(self) -> tuple[int, ...]:
        """Chain variables of weight 1/2 (the case the main theorem excludes)."""
        bad = []
        for s in self.summands:
            if s.kind == "chain":
                bad.extend(v for v in s.variables if self.q[v] == Fraction(1, 2))
        return tuple(bad)

    def summand_of(self, i: int) -> AtomicSummand:
        for s in self.summands:
            if i in s.variables:
                return s
        raise IndexError(i)

    def monomials(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.E]

    def describe(self) -> str:
        return " ⊕ ".join(s.describe() for s in self.summands)

    def to_string(self) -> str:
        terms = []
        for row in self.E:
            factors = [f"x{i+1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(row) if e > 0]
            terms.append("*".join(factors))
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# parsing

_FACTOR = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_exponent_matrix(text: str) -> list[list[int]]:
    """Parse 'x1^3*x2 + x2^4' into its exponent matrix (rows = monomials)."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise PolynomialSyntaxError("empty input")
    rows_raw = []
    max_index = 0
    for term in stripped.split("+"):
        if not term:
            raise PolynomialSyntaxError("empty term (stray '+')")
        exps: dict[int, int] = {}
        pos = 0
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if not m:
                raise PolynomialSyntaxError(f"bad factor {factor!r}")
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if idx < 1:
                raise PolynomialSyntaxError(f"variable index {idx} out of range")
            if exp <= 0:
                raise PolynomialSyntaxError(f"exponent {exp} must be positive")
            exps[idx] = exps.get(idx, 0) + exp
            pos += 1
        max_index = max(max_index, max(exps))
        rows_raw.append(exps)
    n = max_index
    if len(rows_raw) != n:
        raise PolynomialSyntaxError(
            f"{len(rows_raw)} monomials but {n} variables; invertible "
            "polynomials need exactly one monomial per variable")
    seen_vars = set().union(*rows_raw)
    if seen_vars != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - seen_vars)
        raise PolynomialSyntaxError(f"variable indices not contiguous; missing x{missing}")
    rows = [[exps.get(j, 0) for j in range(1, n + 1)] for exps in rows_raw]
    if len({tuple(r) for r in rows}) != len(rows):
        raise PolynomialSyntaxError("repeated monomial")
    return rows


# ---------------------------------------------------------------------------
# classification

def _classify_rows(E) -> list[AtomicSummand]:
    n = len(E)
    owner_row: dict[int, int] = {}   # variable -> its monomial row
    out_edge: dict[int, int | None] = {}
    for r, row in enumerate(E):
        support = [(j, e) for j, e in enumerate(row) if e != 0]
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
    if set(owner_row) != set(range(n)):
        orphan = sorted(set(range(n)) - set(owner_row))
        raise NotInvertibleShape(f"x{orphan[0]+1} heads no monomial")

    exponent_of = {v: E[owner_row[v]][v] for v in range(n)}
    in_deg = {v: 0 for v in range(n)}
    for v, t in out_edge.items():
        if t is not None:
            in_deg[t] += 1
    if any(d > 1 for d in in_deg.values()):
        v = next(v for v, d in in_deg.items() if d > 1)
        raise NotInvertibleShape(f"x{v+1} is pointed at by two monomials")

    summands = []
    seen: set[int] = set()
    # chains & Fermats: walk from each in-degree-0 start
    for start in range(n):
        if in_deg[start] or start in seen:
            continue
        path = [start]
        while out_edge[path[-1]] is not None:
            nxt = out_edge[path[-1]]
            if nxt in path:
                raise NotInvertibleShape("cycle with an incoming tail")
            path.append(nxt)
        seen.update(path)
        exps = tuple(exponent_of[v] for v in path)
        kind = "fermat" if len(path) == 1 else "chain"
        summands.append(AtomicSummand(kind, exps, tuple(path)))
    # loops: whatever remains is a disjoint union of cycles
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        while True:
            nxt = out_edge[cycle[-1]]
            if nxt is None or nxt in seen:
                raise NotInvertibleShape("broken cycle")
            if nxt == start:
                break
            cycle.append(nxt)
        seen.update(cycle)
        exps = [exponent_of[v] for v in cycle]
        rot = _canonical_rotation(exps)
        cycle = cycle[rot:] + cycle[:rot]
        exps = exps[rot:] + exps[:rot]
        summands.append(AtomicSummand("loop", tuple(exps), tuple(cycle)))
    summands.sort(key=lambda s: s.variables[0])
    return summands


def _canonical_rotation(exps) -> int:
    """Index of the rotation giving the lexicographically smallest tuple."""
    k = len(exps)
    best = min(range(k), key=lambda r: tuple(exps[r:] + exps[:r]))
    return best


def reassemble(summands, n: int) -> list[list[int]]:
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


# ---------------------------------------------------------------------------
# inverse-matrix closed forms

def chain_inverse_entries(a) -> list[list[Fraction]]:
    """Closed form for E⁻¹ of the chain x_1^{a_1}x_2 + … + x_N^{a_N}:
    entry (i,j) = (−1)^{j−i} ∏_{k=i}^{j} 1/a_k for j ≥ i, else 0."""
    n = len(a)
    rho = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        prod = Fraction(1)
        for j in range(i, n):
            prod /= a[j]
            rho[i][j] = (-1) ** (j - i) * prod
    return rho


def loop_inverse_entries(a) -> list[list[Fraction]]:
    """Closed form for E⁻¹ of the loop x_1^{a_1}x_2 + … + x_N^{a_N}x_1 with
    L = (∏ a_k + (−1)^{N+1})⁻¹:
      (i,j) = (−1)^{j−i} (∏_{k>j} a_k)(∏_{k<i} a_k) L          for j ≥ i,
      (i,j) = (−1)^{N+j−i} (∏_{j<k<i} a_k) L                    for j < i."""
    n = len(a)
    total = 1
    for ak in a:
        total *= ak
    L = Fraction(1, total + (-1) ** (n + 1))

    def prod(lo, hi):  # product over k in [lo, hi) of a_k
        p = 1
        for k in range(lo, hi):
            p *= a[k]
        return p

    rho = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if j >= i:
                rho[i][j] = (-1) ** (j - i) * prod(j + 1, n) * prod(0, i) * L
            else:
                rho[i][j] = (-1) ** (n + j - i) * prod(j + 1, i) * L
    return rho
