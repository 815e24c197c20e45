"""Jacobi algebras of invertible polynomials.

Jac(f) = ℂ[x]/(∂f) is modeled on its standard monomial basis, which tensors
over the atomic summands of f:

    Fermat x^a:        {x^r : 0 ≤ r ≤ a−2}
    chain (transposed shape y_1^{c_1} + y_1y_2^{c_2} + … + y_{n−1}y_n^{c_n}):
                       {y^r : r_i ≤ c_i−1}, minus the exponent patterns
                       (*,…,*, k≥1, c_{n−2l}−1, 0, …, c_{n−2}−1, 0, c_n−1)
    loop:              {x^r : r_i ≤ a_i−1}, μ = Π a_i

Each summand works on whole exponent tuples, so a monomial passes from one
summand to the next as it is.  A ring keeps only the test of membership in
that basis (`in_basis`); the basis is listed on first use from each
summand's disjoint sub-boxes, stepped with the degrees along (`summand_box`).

Each variable sits in at most two monomials of f, so each relation ∂_j f
is a monomial or a binomial, and the normal form of a monomial is one term
c·b or 0.  It is found by one walk on the summand's
binomial graph, `_SummandRing._walk`: every binomial rewrites a monomial in
both directions with its coefficient ratio, and the walk covers m's whole
component, which holds exactly one basis monomial or is zero; anything else
means the basis is not one, and the walk raises.  The relations are
`_partials(f)`, the one source shared by the walk and the independent
brute-force oracle (`OracleQuotient`).  Each summand compiles them once
into integer tables, and the walk carries its values as unreduced integer
pairs.  `reduce` keeps a pair for every monomial a walk covers and builds
one ``Fraction`` per output coefficient; `divide` takes and returns the
pairs, never reduced, its certificate one flat list of terms, so that the
B side's reduction stays in integers.

Jac(f) is graded with its socle, the top monomial, alone in the highest
degree ĉ, and is zero above it (Milnor–Orlik), so `reduce` answers 0 by
grading for a monomial above the socle degree and reads [m] = val[b]·b off
the walk for the rest.  `divide` walks at every degree, for its
certificate, and writes
p = nf + Σ κ·s·∂_j f with no linear solve: each move u = s·p → s·p′ is
the identity s·p = (1/a)·s·∂_j f − (b/a)·s·p′, so the walk, which keeps
each node's parent edge, carries the certificate m − val·u = Σ κ·s·∂_j f
along its paths, and `divide` reads it back from the first node in walk
order that settles m's class (Eisenbud–Sturmfels, *Binomial ideals*,
1996).  The oracle, which does plain exact elimination on each whole graded
slice of ℂ[x]/(∂f), knows nothing of this and is used to cross-check the
walk in the tests.

Everything is graded by the integer ``f.degree`` = D·Σ mᵢqᵢ over the
polynomial's one denominator D, with integer weights ``f.Dq``; `_graded`
enumerates the oracle's graded slices, and ``wt`` is the ``Fraction`` view
of the degree.  A ring keeps D and Dq, not f, and grades through
`weighted_degree`, so the ring `ring_of` stores on f holds no reference
back to f.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain as concatenate, product as cartesian, repeat
from operator import add, mod, sub
from typing import NamedTuple

from . import linalg
from .poly import AtomicSummand, InvertiblePolynomial, weighted_degree

Monomial = tuple[int, ...]


def _add(m: Monomial, d: Monomial) -> Monomial:
    return tuple(map(add, m, d))


def _sub(m: Monomial, d: Monomial) -> Monomial:
    return tuple(map(sub, m, d))


def _support(p: Monomial) -> tuple[int, int, int, int]:
    """p's nonzero entries as (i, pᵢ, j, pⱼ), the one entry twice when p
    has one, so that p | u reads u[i] ≥ pᵢ and u[j] ≥ pⱼ."""
    nz = [(i, e) for i, e in enumerate(p) if e]
    if not 1 <= len(nz) <= 2:
        raise RuntimeError(f"relation monomial {p} has {len(nz)} variables")
    return nz[0] + nz[-1]


def _accumulate(level: dict, m, num: int, den: int) -> None:
    """level[m] += num/den in unreduced integer pairs: a shared denominator adds numerators."""
    x = level.get(m, (0, den))
    level[m] = (x[0] + num, den) if x[1] == den else (x[0] * den + num * x[1], x[1] * den)


def _graded(w: tuple[int, ...], lo: int, hi: int) -> list[Monomial]:
    """The exponent tuples m with lo ≤ Σ mᵢwᵢ ≤ hi, for positive integer
    weights w, in lexicographic order."""
    if len(w) == 1:
        return [(r,) for r in range(max(0, -(-lo // w[0])), hi // w[0] + 1)]
    return [(r,) + m for r in range(max(hi, -1) // w[0] + 1)
            for m in _graded(w[1:], lo - r * w[0], hi - r * w[0])]


def _chain_excluded(m: Monomial, variables: tuple[int, ...],
                    c: tuple[int, ...]) -> bool:
    """Exclusion patterns (…, k≥1, c_{n−2l}−1, 0, …, c_{n−2}−1, 0, c_n−1),
    read from m at ``variables``, the chain in transposed order (pure power
    first).

    Scan the alternating suffix (c_j−1 at even offsets from the right end,
    0 at odd offsets).  A monomial is excluded when the alternation either
    hits a zero slot holding a positive entry (that entry is the pattern's
    k ≥ 1) or runs through the whole chain ending in the c_1−1 phase (n odd;
    the k slot is absent); `summand_box` lists the rest of the box.  A
    Fermat x^a is the chain of length one: it excludes exactly r = a−1."""
    pos = len(c)                 # 1-based; this slot must hold c_pos − 1
    while True:
        if m[variables[pos - 1]] != c[pos - 1] - 1:
            return False
        if pos == 1:
            return True
        if m[variables[pos - 2]] >= 1:
            return True
        if pos == 2:
            return False         # the zero slot is the front: keep
        pos -= 2


def _chain_order(s: AtomicSummand) -> tuple[bool, Monomial, Monomial]:
    """(chain, variables, bounds) of s in chain order: pure power first unless a loop."""
    chain = s.kind != "loop"
    order = slice(None, None, -1 if chain else 1)
    return chain, s.variables[order], s.exponents[order]


def summand_box(s: AtomicSummand, n: int, c0: int, c, modulus=None):
    """(value, m) for s's basis monomials m in ambient positions among n,
    value = c₀ + Σ_v m_v·c_v (mod ``modulus``) stepped along each box.  A
    chain's basis, bounds c₁…c_l, is ⌊l/2⌋ + 1 disjoint sub-boxes of its box
    minus `_chain_excluded`: r_p ≤ c_p − 2 under the alternating suffix
    (0, c_{p+2}−1, …, 0, c_l−1) for p = l, l−2, … ≥ 1, and for l even the
    whole suffix; the order is lexicographic only within a sub-box."""
    chain, variables, bounds = _chain_order(s)
    boxes, p, tail = [], len(bounds), []
    while chain and p > 0:
        boxes.append([*map(range, bounds[:p - 1]), range(bounds[p - 1] - 1), *tail])
        tail = [(0,), (bounds[p - 1] - 1,), *tail]
        p -= 2
    if p == 0 or not chain:      # an even chain's whole suffix, or a loop's box
        boxes.append(tail or [*map(range, bounds)])
    walks = []
    for box in boxes:
        ranges = [(0,)] * n
        for v, r in zip(variables, box):
            ranges[v] = r
        steps = [[(v == 0) * c0 + e * c[v] for e in r] for v, r in enumerate(ranges)]
        values = map(sum, cartesian(*steps))
        if modulus is not None:
            values = map(mod, values, repeat(modulus))
        walks.append(zip(values, cartesian(*ranges)))
    return concatenate(*walks)


def milnor_number(f: InvertiblePolynomial) -> int:
    """μ = ∏(1 − qᵢ)/qᵢ (Milnor–Orlik), on the integer weights Dq."""
    return math.prod(f.D - x for x in f.Dq) // math.prod(f.Dq)


def _partials(f: InvertiblePolynomial) -> list[dict]:
    """∂_j f as {monomial: integer coefficient}, j = 0..N−1, from `f.rows()`:
    each ∂_j lists its terms, at most two, in row order."""
    out: list[dict[Monomial, int]] = [{} for _ in range(f.N)]
    for row in f.rows():
        for j, e in row.items():
            m = [0] * f.N
            for k, x in row.items():
                m[k] = x - (k == j)
            out[j][tuple(m)] = e
    return out


# ---------------------------------------------------------------------------

class StandardBasis(NamedTuple):
    monomials: tuple[Monomial, ...]
    index: dict


class RingElement(NamedTuple):
    """Sparse vector over the standard basis (index → coefficient)."""
    coeffs: tuple[tuple[int, Fraction], ...]

    def is_zero(self) -> bool:
        return not self.coeffs


class _SummandRing:
    """Normal forms for one atomic summand, on whole monomials.

    ``variables`` lists the summand's variables in chain order: the
    transposed-chain order (pure power first) for Fermat and chain
    summands, the cycle order for loops.  Its part of the basis is the box
    m[variables[i]] < ``bounds[i]``, minus `_chain_excluded` for chains.
    Its relations touch only its own variables, so the walk carries every
    other exponent of a monomial along unchanged.

    Each relation ∂_v f, v in the summand, is compiled once into an integer
    table.  A monomial a·p is the zero (sup, p, v, a); a binomial a·p + b·p′
    gives the move p → (−b/a)·p′ as (sup, p, p′ − p, −b, a, v, k), k its
    index in ``moves``, and the move back at index k ^ 1.  ``sup`` =
    (i, pᵢ, j, pⱼ) holds p's nonzero entries (`_support`), so p | u reads
    two coordinates, and a move's next node is u + (p′ − p).
    `_walk`, the one traversal of the tables, keeps each value as an
    unreduced integer pair (num, den) with den > 0, since every a > 0, and
    compares them by cross-multiplying; `reduce` and `divide` return pairs."""

    def __init__(self, s: AtomicSummand, partials: list[dict]):
        self.summand = s
        self.chain, self.variables, self.bounds = _chain_order(s)
        self.zeros: list[tuple] = []
        self.moves: list[tuple] = []
        for v in self.variables:
            rel = list(partials[v].items())
            if len(rel) == 1:
                self.zeros.append((_support(rel[0][0]), rel[0][0], v, rel[0][1]))
            else:
                (p, a), (q, b) = rel
                k = len(self.moves)
                self.moves += [(_support(p), p, _sub(q, p), -b, a, v, k),
                               (_support(q), q, _sub(p, q), -a, b, v, k + 1)]
        self._cache: dict[Monomial, tuple[Monomial, int, int] | None] = {}

    def in_basis(self, m: Monomial) -> bool:
        for v, a in zip(self.variables, self.bounds):
            if not 0 <= m[v] < a:
                return False
        return not (self.chain and _chain_excluded(m, self.variables, self.bounds))

    def _walk(self, m: Monomial):
        """m's whole component of the binomial graph, breadth first, as
        (node, b, legs).  node[u] = (num, den, edge, back) keeps
        val[u] = num/den with m ≡ val[u]·u, and the edge (parent, v, p, a)
        that first reached u: the move parent = s·p → s·p′ multiplies val by
        −b/a and adds val[parent]/a · s·∂_v f to H_u, with m − val[u]·u = H_u.
        ``back`` is the index of that move's reverse.  From u it always
        applies and leads to the parent with val[u]·(−a/b) = val[parent], so
        it counts as applying and is not taken; every other move is, and a
        move that reaches a node already walked closes a cycle.

        The component is zero when a monomial relation divides one of its
        monomials or a cycle comes back to a monomial with another val;
        otherwise it holds exactly one basis monomial b, and [m] = val[b]·b.
        Anything else means the basis is not one, and raises RuntimeError.

        (b, legs) is the first event in walk order that settles m, each leg
        (edge, kn, kd) the path back from edge scaled by kn/kd: a basis
        monomial b, one leg; or b None for [m] = 0, with a monomial relation
        p | u, u = (1/a)·(u/p)·∂_v f, one leg, or a move that reaches a node
        w with another value y, (val[w] − y)·w = H′ − H_w, two legs for
        k·H′ + (1 − k)·H_w with k = val[w]/(val[w] − y)."""
        node = {m: (1, 1, None, -1)}
        queue = [m]
        reached: list[Monomial] = []
        zero = False
        settled = None
        for u in queue:
            num, den, edge, back = node[u]
            # the move back along u's edge applies, and closes on val[parent]
            applies = edge is not None
            if self.in_basis(u):
                applies = True
                reached.append(u)
                settled = settled or (u, [(edge, 1, 1)])
            for (i, e, j, g), p, v, a in self.zeros:
                if u[i] >= e and u[j] >= g:
                    zero = applies = True
                    settled = settled or (None, [((u, v, p, a), 1, 1)])
            for (i, e, j, g), p, d, nb, a, v, k in self.moves:
                if k != back and u[i] >= e and u[j] >= g:
                    applies = True
                    w = _add(u, d)
                    y, z = num * nb, den * a
                    if w not in node:
                        node[w] = y, z, (u, v, p, a), k ^ 1
                        queue.append(w)
                    elif node[w][0] * z != y * node[w][1]:
                        zero = True
                        if not settled:
                            ae, cb = node[w][0] * z, y * node[w][1]
                            settled = None, [(node[w][2], -cb, ae - cb),
                                             ((u, v, p, a), ae, ae - cb)]
            if not applies:
                raise RuntimeError(
                    f"no relation applies to non-basis monomial {u}")
        if len(reached) > 1:
            raise RuntimeError(f"{m} reaches basis monomials {reached}")
        if reached and zero:
            raise RuntimeError(f"{m} reaches basis monomial {reached[0]} "
                               "and a zero")
        if not settled:
            raise RuntimeError(f"the walk from {m} determines nothing")
        return node, *settled

    def reduce(self, m: Monomial) -> tuple[Monomial, int, int] | None:
        """[m] = (num/den)·b as (b, num, den), den > 0, or None when [m] = 0.
        m's `_walk` answers every node u of its component, and all are kept:
        [u] = (val[b]/val[u])·b, or 0; a walk that raises keeps nothing."""
        if m not in self._cache:
            node, b, _ = self._walk(m)
            if b is None:
                self._cache.update(dict.fromkeys(node))
            else:
                bn, bd = node[b][:2]
                for u, (un, ud, _, _) in node.items():
                    self._cache[u] = (b, bn * ud, bd * un) if un > 0 else (b, -bn * ud, -bd * un)
        return self._cache[m]

    def divide(self, m: Monomial):
        """m = (x₀/x₁)·b + Σ κ·s·∂_v f as (b, x, [(v, s, κ)]), b a basis
        monomial and x and each κ integer pairs, or b None and x = 0 when
        [m] = 0; b and each cofactor s keep m's exponents outside the
        summand.  The terms are read off the legs of the first event of m's
        `_walk`: each step (parent, v, p, a) of a leg (edge, kn, kd) is
        κ·s·∂_v f with s = parent − p and κ = (kn/kd)·val[parent]/a."""
        node, b, legs = self._walk(m)
        terms = []
        for edge, kn, kd in legs:
            while edge:
                u, v, p, a = edge
                num, den, edge, _ = node[u]
                terms.append((v, _sub(u, p), (kn * num, kd * den * a)))
        return b, (0 if b is None else node[b][:2]), terms


def top_of(f: InvertiblePolynomial) -> Monomial:
    """The socle monomial of Jac(f), of degree ĉ: aᵢ − 1 on every variable,
    except aᵢ − 2 on the head variable of each Fermat or chain summand."""
    top = [0] * f.N
    for s in f.summands:
        for v, a in zip(s.variables, s.exponents):
            top[v] = a - 1
        if s.kind != "loop":
            top[s.variables[0]] -= 1
    if f.degree(top) != f.N * f.D - 2 * sum(f.Dq):
        raise RuntimeError(f"top {top} does not have degree {f.charge}")
    return tuple(top)


class JacobiRing:
    """Jac(f): its relations and basis-membership test, exact reduction,
    product and pairing.  The basis is listed only on first use of ``basis``;
    μ (`milnor_number`), the socle monomial ``top`` and its degree ``socle``
    are closed forms.  Nothing of Jac(f) lies above ``socle``, so `reduce`
    answers 0 there by grading, while `divide` walks at every degree."""

    def __init__(self, f: InvertiblePolynomial):
        self.n, self.D, self.Dq = f.N, f.D, f.Dq
        partials = _partials(f)
        self._parts = [_SummandRing(s, partials) for s in f.summands]
        self.mu = milnor_number(f)
        self.top = top_of(f)
        self.socle = weighted_degree(self.Dq, self.top)

    def in_basis(self, m: Monomial) -> bool:
        return all(part.in_basis(m) for part in self._parts)

    @cached_property
    def basis(self) -> StandardBasis:
        """The standard basis in (degree, m) order, with its index: each
        summand's basis sub-boxes from `summand_box`, its degrees stepped
        along with it on the row ``Dq``, and for a direct sum the sums of
        one piece from each summand.  The listing must be μ monomials with
        ``top`` last and alone in degree ``socle``, which `reduce`'s
        grading rests on; anything else raises RuntimeError."""
        parts = [list(summand_box(p.summand, self.n, 0, self.Dq)) for p in self._parts]
        pieces = parts[0]
        for more in parts[1:]:
            pieces = [(d + e, _add(m, r)) for d, m in pieces for e, r in more]
        pieces.sort()
        if (len(pieces) != self.mu or pieces[-1] != (self.socle, self.top)
                or len(pieces) > 1 and pieces[-2][0] == self.socle):
            raise RuntimeError(f"the basis listing is not {self.mu} monomials "
                               f"topped by {self.top} alone in degree {self.socle}")
        monos = tuple(m for _, m in pieces)
        return StandardBasis(monos, {m: i for i, m in enumerate(monos)})

    # -- grading ---------------------------------------------------------

    def wt(self, m: Monomial) -> Fraction:
        return Fraction(weighted_degree(self.Dq, m), self.D)

    # -- reduction and arithmetic ----------------------------------------

    def _reduce_pair(self, m: Monomial) -> tuple[Monomial, int, int] | None:
        """[m] as (b, num, den), or None when [m] = 0: 0 by grading above the
        socle degree; else through each summand's normal form in turn."""
        if weighted_degree(self.Dq, m) > self.socle:
            return None
        num = den = 1
        for part in self._parts:
            if not part.in_basis(m):
                term = part.reduce(m)
                if term is None:
                    return None
                m, num, den = term[0], num * term[1], den * term[2]
        return m, num, den

    def reduce(self, p) -> RingElement:
        """Normal form of a monomial or {monomial: int or Fraction}, summed in pairs."""
        if isinstance(p, tuple):
            term = self._reduce_pair(p)
            return RingElement(() if term is None else
                               ((self.basis.index[term[0]], Fraction(term[1], term[2])),))
        acc: dict[int, tuple[int, int]] = {}
        for m, c in p.items():
            term = self._reduce_pair(m)
            if term is not None:
                _accumulate(acc, self.basis.index[term[0]], c.numerator * term[1],
                            c.denominator * term[2])
        return RingElement(tuple(sorted((i, Fraction(*x)) for i, x in acc.items() if x[0])))

    def monomial_of(self, e: RingElement) -> dict:
        return {self.basis.monomials[i]: c for i, c in e.coeffs}

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        raw: dict[Monomial, Fraction] = {}
        for i, ca in a.coeffs:
            for j, cb in b.coeffs:
                m = _add(self.basis.monomials[i], self.basis.monomials[j])
                raw[m] = raw.get(m, Fraction(0)) + ca * cb
        return self.reduce(raw)

    def gram(self) -> list[list[Fraction]]:
        """The residue pairing on the basis: the coefficient of ``top`` in
        [a·b].  By grading, only pairs whose degrees add up to the top's
        degree can pair to nonzero, so each basis monomial is paired only
        with the basis monomials of the complementary degree."""
        monos, Dq = self.basis.monomials, self.Dq
        by_degree: dict[int, list[int]] = {}
        for k, m in enumerate(monos):
            by_degree.setdefault(weighted_degree(Dq, m), []).append(k)
        g = [[Fraction(0)] * len(monos) for _ in monos]
        for i, a in enumerate(monos):
            for k in by_degree.get(self.socle - weighted_degree(Dq, a), ()):
                term = self._reduce_pair(_add(a, monos[k]))
                if term is not None and term[0] == self.top:
                    g[i][k] = Fraction(term[1], term[2])
        return g

    # -- division with quotient certificate --------------------------------

    def divide(self, p: dict):
        """Write p = nf + Σ κ·s·∂_v f with nf in the basis span.

        Coefficients are unreduced integer pairs (num, den), in p and in
        (nf, terms): nf is {basis monomial: nonzero pair}, unordered, and the
        certificate is one flat list of terms (v, s, κ), in walk order, a
        cofactor s possibly more than once.  Each monomial of p is divided
        one summand at a time by `_SummandRing.divide`, which passes its
        remainder to the next summand; the normal form agrees with `reduce`.
        Where a slice has a syzygy, the terms are one certificate among
        several."""
        nf_acc: dict[Monomial, tuple[int, int]] = {}
        terms = []
        for m, (cn, cd) in p.items():
            for part in self._parts:
                b, x, walked = part.divide(m)
                terms += [(v, s, (cn * kn, cd * kd)) for v, s, (kn, kd) in walked]
                if b is None:
                    break
                m = b
                cn, cd = cn * x[0], cd * x[1]
            else:
                _accumulate(nf_acc, m, cn, cd)
        return {m: c for m, c in nf_acc.items() if c[0]}, terms


def ring_of(f: InvertiblePolynomial) -> JacobiRing:
    """The shared Jac(f), built on first use and kept on f for as long as
    f lives.  Every caller of f gets the same object, so treat it as
    read-only; ``JacobiRing(f)`` builds a private copy."""
    return f.derive("ring", lambda: JacobiRing(f))


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
        # degree(m) ≤ bound·D, with degree(m) an integer
        self._hi = math.floor(self.bound * f.D)
        # lexicographic enumeration: each slice comes out sorted
        slices: dict[int, list[Monomial]] = {}
        for m in _graded(f.Dq, 0, self._hi):
            slices.setdefault(f.degree(m), []).append(m)
        partials = _partials(f)
        self._space: dict[int, tuple[list[Monomial], dict, linalg.RowSpace]] = {}
        basis: list[Monomial] = []
        for deg, ms in sorted(slices.items()):
            midx = {m: i for i, m in enumerate(ms)}
            sp = linalg.RowSpace()
            for j in range(f.N):
                for s in slices.get(deg - (f.D - f.Dq[j]), []):
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
