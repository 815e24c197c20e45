"""Jacobi algebras of invertible polynomials.

Jac(f) = ℂ[x]/(∂f) is modeled on its standard monomial basis, which tensors
over the atomic summands of f:

    Fermat x^a:        {x^r : 0 ≤ r ≤ a−2}
    chain (transposed shape y_1^{c_1} + y_1y_2^{c_2} + … + y_{n−1}y_n^{c_n}):
                       {y^r : r_i ≤ c_i−1}, minus the exponent patterns
                       (*,…,*, k≥1, c_{n−2l}−1, 0, …, c_{n−2}−1, 0, c_n−1)
    loop:              {x^r : r_i ≤ a_i−1}, μ = Π a_i

Reduction to the basis rewrites with the partial-derivative relations, used
in both orientations; loops (and the head of a chain) can rewrite in circles,
so the engine collects every reachable monomial, writes down one equation per
applicable rewrite, and closes the system with an exact linear solve.  An
independent brute-force oracle (`OracleQuotient`) does plain exact
elimination on each graded slice of ℂ[x]/(∂f) instead and is used to
cross-check the rewriting engine in the tests.

Everything is graded by the integer ``f.degree``; `_graded` is the one
enumerator of graded slices, shared by `divide` and the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian

from . import linalg
from .poly import AtomicSummand, InvertiblePolynomial

Monomial = tuple[int, ...]


def _add(m: Monomial, d: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m, d))


def _sub(m: Monomial, d: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m, d))


def _divides(p: Monomial, m: Monomial) -> bool:
    return all(a <= b for a, b in zip(p, m))


def _graded(w: tuple[int, ...], lo: int, hi: int) -> list[Monomial]:
    """The exponent tuples m with lo ≤ Σ mᵢwᵢ ≤ hi, for positive integer
    weights w, in lexicographic order."""
    if len(w) == 1:
        return [(r,) for r in range(max(0, -(-lo // w[0])), hi // w[0] + 1)]
    return [(r,) + m for r in range(max(hi, -1) // w[0] + 1)
            for m in _graded(w[1:], lo - r * w[0], hi - r * w[0])]


# ---------------------------------------------------------------------------
# standard basis per atomic kind (local exponent tuples)

def _fermat_basis(a: int) -> list[Monomial]:
    return [(r,) for r in range(a - 1)]


def _chain_excluded(r: Monomial, c: tuple[int, ...]) -> bool:
    """Exclusion patterns (…, k≥1, c_{n−2l}−1, 0, …, c_{n−2}−1, 0, c_n−1),
    indices in the transposed-chain order (pure power first).

    Scan the alternating suffix (c_j−1 at even offsets from the right end,
    0 at odd offsets).  A monomial is excluded when the alternation either
    hits a zero slot holding a positive entry (that entry is the pattern's
    k ≥ 1) or runs through the whole tuple ending in the c_1−1 phase (n odd;
    the k slot is absent).  Counting these against the alternating-sum
    Milnor number Σ_j (−1)^j c_1⋯c_{n−j} confirms the reading."""
    n = len(c)
    pos = n                      # 1-based; this slot must hold c_pos − 1
    while True:
        if r[pos - 1] != c[pos - 1] - 1:
            return False
        if pos == 1:
            return True
        if r[pos - 2] >= 1:
            return True
        if pos == 2:
            return False         # the zero slot is the front: keep
        pos -= 2


def _chain_basis(c: tuple[int, ...]) -> list[Monomial]:
    out = []
    for r in cartesian(*(range(ci) for ci in c)):
        if not _chain_excluded(r, c):
            out.append(r)
    return out


def _loop_basis(e: tuple[int, ...]) -> list[Monomial]:
    return list(cartesian(*(range(ei) for ei in e)))


# ---------------------------------------------------------------------------
# rewrite rules per atomic kind
#
# A rule is (pattern, [(coef, target), …]): any monomial divisible by
# `pattern` may be rewritten by removing the pattern and appending each
# coefficient·target.  An empty list means the pattern annihilates.

def _delta(n: int, *pairs) -> Monomial:
    d = [0] * n
    for i, v in pairs:
        d[i] += v
    return tuple(d)


def _fermat_rules(a: int):
    return [(_delta(1, (0, a - 1)), [])]


def _chain_rules(c: tuple[int, ...]):
    """Relations of f = y_1^{c_1} + y_1y_2^{c_2} + … + y_{n−1}y_n^{c_n}:
    ∂_i gives c_i y_{i−1}y_i^{c_i−1} = −y_{i+1}^{c_{i+1}} (no y_0 factor for
    i=1, right side absent for i=n); both orientations are supplied."""
    n = len(c)
    rules = []
    for i in range(n):           # 0-based
        lhs_pairs = [(i, c[i] - 1)]
        if i > 0:
            lhs_pairs.append((i - 1, 1))
        lhs = _delta(n, *lhs_pairs)
        if i == n - 1:
            rules.append((lhs, []))
        else:
            rhs = _delta(n, (i + 1, c[i + 1]))
            rules.append((lhs, [(Fraction(-1, c[i]), rhs)]))
            rules.append((rhs, [(Fraction(-c[i]), lhs)]))
    return rules


def _loop_rules(e: tuple[int, ...]):
    """Relations of the loop Σ_j v_j^{e_j}v_{j+1} (cyclic):
    ∂_j gives e_j v_j^{e_j−1}v_{j+1} = −v_{j−1}^{e_{j−1}}."""
    n = len(e)
    rules = []
    for j in range(n):
        lhs = _delta(n, (j, e[j] - 1), ((j + 1) % n, 1))
        rhs = _delta(n, ((j - 1) % n, e[(j - 1) % n]))
        rules.append((lhs, [(Fraction(-1, e[j]), rhs)]))
        rules.append((rhs, [(Fraction(-e[j]), lhs)]))
    return rules


def _partials(f: InvertiblePolynomial) -> list[dict]:
    """∂_j f as {monomial: coefficient}, j = 0..N−1."""
    out = []
    for j in range(f.N):
        d: dict[Monomial, Fraction] = {}
        for row in f.E:
            if row[j] > 0:
                m = list(row)
                m[j] -= 1
                d[tuple(m)] = Fraction(row[j])
        out.append(d)
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardBasis:
    monomials: tuple[Monomial, ...]
    index: dict
    mu: int
    top: Monomial


@dataclass(frozen=True)
class RingElement:
    """Sparse vector over the standard basis (index → coefficient)."""
    coeffs: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(d: dict) -> "RingElement":
        return RingElement(tuple(sorted(
            (i, Fraction(c)) for i, c in d.items() if c != 0)))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RingElement") -> "RingElement":
        d = self.as_dict()
        for i, c in other.coeffs:
            d[i] = d.get(i, Fraction(0)) + c
        return RingElement.from_dict(d)

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        return RingElement.from_dict({i: c * v for i, v in self.coeffs})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)


class _SummandRing:
    """Reduction engine for one atomic summand, in local exponents."""

    def __init__(self, s: AtomicSummand):
        if s.kind == "fermat":
            self.variables = s.variables
            a = s.exponents[0]
            basis = _fermat_basis(a)
            self.rules = _fermat_rules(a)
        elif s.kind == "chain":
            # transposed-chain order: pure power first = classify order reversed
            self.variables = tuple(reversed(s.variables))
            c = tuple(reversed(s.exponents))
            basis = _chain_basis(c)
            self.rules = _chain_rules(c)
        else:
            self.variables = s.variables
            e = s.exponents
            basis = _loop_basis(e)
            self.rules = _loop_rules(e)
        self.basis = basis
        self.basis_set = frozenset(basis)
        self._cache: dict[Monomial, dict] = {}

    def reduce(self, m: Monomial) -> dict:
        """[m] in the local standard basis, as {basis monomial: coefficient}."""
        if m in self.basis_set:
            return {m: Fraction(1)}
        if m in self._cache:
            return self._cache[m]
        # collect every monomial reachable by single rewrites
        reachable = {m}
        frontier = [m]
        expansions: dict[Monomial, list] = {}
        while frontier:
            nxt = []
            for u in frontier:
                if u in self.basis_set:
                    continue
                eqs = []
                for pat, repl in self.rules:
                    if _divides(pat, u):
                        terms = [(coef, _add(_sub(u, pat), tgt))
                                 for coef, tgt in repl]
                        eqs.append(terms)
                        for _, v in terms:
                            if v not in reachable:
                                reachable.add(v)
                                nxt.append(v)
                if not eqs:
                    raise RuntimeError(
                        f"no rewrite applies to non-basis monomial {u}")
                expansions[u] = eqs
            frontier = nxt
        unknowns = sorted(u for u in reachable if u not in self.basis_set)
        known = sorted(v for v in reachable if v in self.basis_set)
        col = {u: k for k, u in enumerate(unknowns + known)}
        # one row per rewrite u = Σ coef·v, as u − Σ coef·v = 0
        sp = linalg.RowSpace()
        for u, eqs in expansions.items():
            for terms in eqs:
                row = {col[u]: Fraction(1)}
                for coef, v in terms:
                    row[col[v]] = row.get(col[v], 0) - coef
                sp.add(row)
        # m is determined when its row involves no other unknown
        srow = sp.rows.get(col[m])
        if srow is None or any(c < len(unknowns) and c != col[m] for c in srow):
            raise RuntimeError(
                f"rewrite system for {m} is underdetermined (internal bug)")
        sol = {known[c - len(unknowns)]: -e
               for c, e in sorted(srow.items()) if c >= len(unknowns)}
        self._cache[m] = sol
        return sol


def top_of(f: InvertiblePolynomial) -> Monomial:
    """The socle monomial of Jac(f), of degree ĉ: aᵢ − 1 on every variable,
    except aᵢ − 2 on the head variable of each Fermat or chain summand."""
    top = [0] * f.N
    for s in f.summands:
        for v, a in zip(s.variables, s.exponents):
            top[v] = a - 1
        if s.kind != "loop":
            top[s.variables[0]] -= 1
    if f.degree(top) != f.charge * f.d:
        raise RuntimeError(f"top {top} does not have degree {f.charge}")
    return tuple(top)


class JacobiRing:
    """Jac(f) with its standard basis, exact reduction, product and pairing."""

    def __init__(self, f: InvertiblePolynomial):
        self.poly = f
        self.n = f.N
        self._parts = [_SummandRing(s) for s in f.summands]
        monos = []
        for combo in cartesian(*(p.basis for p in self._parts)):
            monos.append(self._assemble(combo))
        monos.sort(key=lambda m: (f.degree(m), m))
        basis_index = {m: i for i, m in enumerate(monos)}
        self.basis = StandardBasis(
            monomials=tuple(monos),
            index=basis_index,
            mu=len(monos),
            top=top_of(f),
        )

    def _assemble(self, locals_) -> Monomial:
        exps = [0] * self.n
        for part, r in zip(self._parts, locals_):
            for v, ri in zip(part.variables, r):
                exps[v] = ri
        return tuple(exps)

    def _localize(self, m: Monomial) -> list[Monomial]:
        return [tuple(m[v] for v in part.variables) for part in self._parts]

    # -- grading ---------------------------------------------------------

    def wt(self, m: Monomial) -> Fraction:
        return Fraction(self.poly.degree(m), self.poly.d)

    @property
    def mu(self) -> int:
        return self.basis.mu

    @property
    def top(self) -> Monomial:
        return self.basis.top

    # -- reduction and arithmetic ----------------------------------------

    def reduce_monomial(self, m: Monomial) -> dict:
        """[m] in the standard basis, as {ambient monomial: coefficient}."""
        locals_ = self._localize(m)
        parts_reduced = [p.reduce(r) for p, r in zip(self._parts, locals_)]
        result: dict[Monomial, Fraction] = {}
        for pick in cartesian(*(pr.items() for pr in parts_reduced)):
            coef = Fraction(1)
            for _, c in pick:
                coef *= c
            mono = self._assemble([r for r, _ in pick])
            result[mono] = result.get(mono, Fraction(0)) + coef
        return {m2: c for m2, c in result.items() if c != 0}

    def reduce(self, p) -> RingElement:
        """Normal form of a monomial or {monomial: coef} polynomial."""
        if isinstance(p, tuple):
            p = {p: Fraction(1)}
        acc: dict[int, Fraction] = {}
        for m, c in p.items():
            for m2, c2 in self.reduce_monomial(m).items():
                i = self.basis.index[m2]
                acc[i] = acc.get(i, Fraction(0)) + Fraction(c) * c2
        return RingElement.from_dict(acc)

    @property
    def one(self) -> RingElement:
        return self.reduce((0,) * self.n)

    def monomial_of(self, e: RingElement) -> dict:
        return {self.basis.monomials[i]: c for i, c in e.coeffs}

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        raw: dict[Monomial, Fraction] = {}
        for i, ca in a.coeffs:
            for j, cb in b.coeffs:
                m = _add(self.basis.monomials[i], self.basis.monomials[j])
                raw[m] = raw.get(m, Fraction(0)) + ca * cb
        return self.reduce(raw)

    def residue_pairing(self, a: RingElement, b: RingElement) -> Fraction:
        prod = self.multiply(a, b)
        top_index = self.basis.index[self.basis.top]
        return dict(prod.coeffs).get(top_index, Fraction(0))

    def gram(self) -> list[list[Fraction]]:
        """The residue pairing on the basis; by grading, only pairs whose
        degrees add up to the top's degree can pair to nonzero."""
        els = [(RingElement(((i, Fraction(1)),)), self.poly.degree(m))
               for i, m in enumerate(self.basis.monomials)]
        socle = self.poly.degree(self.top)
        return [[self.residue_pairing(a, b) if da + db == socle else Fraction(0)
                 for b, db in els] for a, da in els]

    # -- division with quotient certificate --------------------------------

    def divide(self, p: dict):
        """Write p = nf + Σ_j h_j ∂_j f with nf in the basis span.

        Returns (RingElement nf, quotients) where quotients[j] is
        {monomial: coefficient} for h_j.  Works weight by weight; the
        normal form always agrees with `reduce` (nondegenerate pairing ⇒
        unique basis representative).
        """
        f = self.poly
        by_degree: dict[int, dict] = {}
        for m, c in p.items():
            chunk = by_degree.setdefault(f.degree(m), {})
            chunk[m] = chunk.get(m, Fraction(0)) + Fraction(c)
        partials = _partials(f)
        nf_acc: dict[int, Fraction] = {}
        quot: list[dict] = [dict() for _ in range(self.n)]
        for deg, chunk in by_degree.items():
            space = _graded(f.w, deg, deg)
            midx = {m: i for i, m in enumerate(space)}
            # one row per slice monomial: a column per basis monomial, then
            # one per monomial s of each h_j, carrying s·∂_j f
            rows: list[dict] = [{} for _ in space]
            basis = []
            for i, m in enumerate(space):
                if m in self.basis.index:
                    rows[i][len(basis)] = Fraction(1)
                    basis.append(self.basis.index[m])
            quots = []
            for j in range(self.n):
                # h_j has degree deg − deg ∂_j f = deg − (d − w_j)
                sdeg = deg - (f.d - f.w[j])
                for s in _graded(f.w, sdeg, sdeg):
                    for m0, c0 in partials[j].items():
                        rows[midx[_add(s, m0)]][len(basis) + len(quots)] = c0
                    quots.append((j, s))
            rhs = [chunk.get(m, Fraction(0)) for m in space]
            for k, x in linalg.solve_general(rows, rhs).items():
                if k < len(basis):
                    nf_acc[basis[k]] = nf_acc.get(basis[k], Fraction(0)) + x
                else:
                    j, s = quots[k - len(basis)]
                    quot[j][s] = quot[j].get(s, Fraction(0)) + x
        return RingElement.from_dict(nf_acc), quot


@lru_cache(maxsize=256)
def ring_of(f: InvertiblePolynomial) -> JacobiRing:
    """The shared Jac(f): one ring per polynomial, built on first use.

    Every caller of a given f gets the same object, so treat it as
    read-only; ``JacobiRing(f)`` builds a private copy."""
    return JacobiRing(f)


# ---------------------------------------------------------------------------
# brute-force oracle

class OracleQuotient:
    """ℂ[x]/(∂f) computed by exhaustive exact elimination on each graded
    slice, with no knowledge of the standard-basis combinatorics."""

    def __init__(self, f: InvertiblePolynomial, weight_bound: Fraction):
        if Fraction(weight_bound) < f.charge:
            raise ValueError(
                f"weight bound {weight_bound} below top weight {f.charge}")
        self.poly = f
        self.bound = Fraction(weight_bound)
        # degree(m) ≤ bound·d, with degree(m) an integer
        self._hi = math.floor(self.bound * f.d)
        # lexicographic enumeration: each slice comes out sorted
        slices: dict[int, list[Monomial]] = {}
        for m in _graded(f.w, 0, self._hi):
            slices.setdefault(f.degree(m), []).append(m)
        partials = _partials(f)
        self._space: dict[int, tuple[list[Monomial], dict, linalg.RowSpace]] = {}
        basis: list[Monomial] = []
        for deg, ms in sorted(slices.items()):
            midx = {m: i for i, m in enumerate(ms)}
            sp = linalg.RowSpace()
            for j in range(f.N):
                for s in slices.get(deg - (f.d - f.w[j]), []):
                    sp.add({midx[_add(s, m0)]: c0
                            for m0, c0 in partials[j].items()})
            self._space[deg] = (ms, midx, sp)
            basis.extend(m for c, m in enumerate(ms) if c not in sp.rows)
        self.basis = basis
        self.dimension = len(basis)

    def normal_form(self, m: Monomial) -> dict:
        deg = self.poly.degree(m)
        if deg > self._hi:
            raise ValueError(f"monomial {m} beyond oracle bound")
        ms, midx, sp = self._space[deg]
        red = sp.reduce({midx[m]: Fraction(1)})
        return {ms[i]: c for i, c in sorted(red.items())}
