"""Four-point associativity (WDVV) reconstruction over a Frobenius algebra.

Associativity of the quantum product makes the genus-zero four-point
correlators of a Frobenius manifold strongly interdependent: for any
decomposition of one insertion as a ring product,

    <xi, gamma, delta, epsilon * phi> = <xi, gamma, epsilon, delta * phi>
                                      + <xi, gamma * epsilon, delta, phi>
                                      - <xi, gamma * delta, epsilon, phi>,

with no lower-point remainder at exactly four insertions.  This module
makes the identity executable: a ``CorrelatorTable`` stores known values
over a Jacobi ring, ``wdvv_step`` evaluates one identity against the
table (verifying it, or solving for a single unknown correlator), and
``primitivity`` tests whether an insertion can be split off a ring
product at all.  Two worked reconstructions drive the machinery end to
end: the four-point closure of Fermat sums and the three-step chain that
determines the square-tailed two-loop correlator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .amodel import fjrw_four_point
from .errors import InconsistentInput, UnderdeterminedSystem, WrongConfiguration
from .jacobi import JacobiRing, RingElement, ring_of
from .linalg import identity, invert, mat_mul
from .mirror import final_type_insertions
from .poly import InvertiblePolynomial

Monomial = tuple[int, ...]
Key = tuple[int, int, int, int]


def format_monomial(m: Monomial) -> str:
    factors = [
        f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e > 0
    ]
    return "*".join(factors) if factors else "1"


def format_element(ring: JacobiRing, e: RingElement) -> str:
    """Render a ring element the way expressions are written elsewhere."""
    if e.is_zero():
        return "0"
    bits = []
    for i, c in e.coeffs:
        mono = format_monomial(ring.basis.monomials[i])
        if c == 1 and mono != "1":
            term = mono
        elif mono == "1":
            term = str(c)
        else:
            term = f"{c}*{mono}"
        bits.append(term)
    return " + ".join(bits).replace("+ -", "- ")


class CorrelatorTable:
    """Known four-point correlator values over a Jacobi ring.

    Values are stored against the sorted 4-tuple of standard-basis
    indices, so they are invariant under permutation of the insertions by
    construction.  Lookups accept arbitrary ring elements and expand
    multilinearly; any insertion multiset containing the identity element
    contributes zero (the string equation kills four-point correlators
    with a unit insertion).  The residue pairing and its exact inverse
    ride along because reconstruction arguments lower correlators down to
    the pairing.
    """

    def __init__(self, ring: JacobiRing):
        self.ring = ring
        self.values: dict[Key, Fraction] = {}
        self.gram = ring.gram()
        self.gram_inverse = invert(self.gram)
        assert mat_mul(self.gram, self.gram_inverse) == identity(ring.mu)
        self._unit = ring.basis.index[(0,) * ring.n]

    # -- insertions --------------------------------------------------------

    def element(self, insertion) -> RingElement:
        """Coerce a monomial, {monomial: coef} or RingElement to reduced form."""
        if isinstance(insertion, RingElement):
            return insertion
        return self.ring.reduce(insertion)

    def expand(self, insertions) -> dict[Key, Fraction]:
        """Multilinear expansion of a 4-insertion correlator over basis keys."""
        if len(insertions) != 4:
            raise WrongConfiguration("a correlator takes exactly four insertions")
        elements = [self.element(e) for e in insertions]
        out: dict[Key, Fraction] = {}
        for picks in itertools.product(*(e.coeffs for e in elements)):
            key = tuple(sorted(i for i, _ in picks))
            if self._unit in key:
                continue
            coef = Fraction(1)
            for _, c in picks:
                coef *= c
            out[key] = out.get(key, Fraction(0)) + coef
        return {k: c for k, c in out.items() if c != 0}

    # -- values ------------------------------------------------------------

    def set(self, insertions, value) -> Key:
        """Record a known correlator.

        The four insertions must reduce to scalar multiples of single
        basis monomials (the value is rescaled accordingly); anything
        else has no well-defined single table slot.
        """
        expansion = self.expand(insertions)
        if len(expansion) != 1:
            raise WrongConfiguration(
                "set() needs insertions reducing to single basis monomials"
            )
        (key, coef), = expansion.items()
        self.values[key] = Fraction(value) / coef
        return key

    def known(self, insertions) -> bool:
        return all(key in self.values for key in self.expand(insertions))

    def value(self, insertions) -> Fraction:
        """Evaluate a correlator; raises if any expanded key is unknown."""
        total = Fraction(0)
        for key, coef in self.expand(insertions).items():
            if key not in self.values:
                raise WrongConfiguration(
                    f"correlator {self.describe_key(key)} is not in the table"
                )
            total += coef * self.values[key]
        return total

    def describe_key(self, key: Key) -> str:
        monos = ", ".join(
            format_monomial(self.ring.basis.monomials[i]) for i in key
        )
        return f"<{monos}>"

    def describe(self, insertions) -> str:
        monos = ", ".join(
            format_element(self.ring, self.element(e)) for e in insertions
        )
        return f"<{monos}>"


@dataclass(frozen=True)
class WdvvIdentity:
    """One associativity identity, fully evaluated against a table.

    ``terms`` are the four correlators in the order (lhs, rhs1, rhs2,
    rhs3) rendered with ring-reduced insertions; ``values`` are their
    exact evaluations, satisfying values[0] = values[1] + values[2] -
    values[3].  When the step determined a previously unknown correlator,
    ``solved`` carries its table key and ``solved_value`` the new value.
    """

    terms: tuple[str, str, str, str]
    values: tuple[Fraction, Fraction, Fraction, Fraction]
    solved: Key | None
    solved_value: Fraction | None

    def render(self) -> str:
        lhs, r1, r2, r3 = self.terms
        return f"{lhs} = {r1} + {r2} - {r3}"


def wdvv_step(table: CorrelatorTable, xi, gamma, delta, epsilon, phi) -> WdvvIdentity:
    """Evaluate <xi, gamma, delta, epsilon*phi> by associativity.

    All products are taken in the table's ring before expansion.  With
    every term known the identity is verified (InconsistentInput if the
    values violate it); with exactly one unknown table entry the identity
    is solved for it and the table updated; with more than one unknown,
    or an unknown the identity fails to constrain, the step refuses.
    """
    ring = table.ring
    el = table.element
    xi, gamma, delta, epsilon, phi = map(el, (xi, gamma, delta, epsilon, phi))
    terms = (
        (xi, gamma, delta, ring.multiply(epsilon, phi)),
        (xi, gamma, epsilon, ring.multiply(delta, phi)),
        (xi, ring.multiply(gamma, epsilon), delta, phi),
        (xi, ring.multiply(gamma, delta), epsilon, phi),
    )
    signs = (Fraction(-1), Fraction(1), Fraction(1), Fraction(-1))
    # Collect  sum_terms sign * <term> = 0  as constant + linear(unknowns).
    constant = Fraction(0)
    unknown: dict[Key, Fraction] = {}
    for sign, term in zip(signs, terms):
        for key, coef in table.expand(term).items():
            if key in table.values:
                constant += sign * coef * table.values[key]
            else:
                unknown.setdefault(key, Fraction(0))
                unknown[key] += sign * coef
    constrained = {k: c for k, c in unknown.items() if c != 0}
    if len(constrained) > 1:
        missing = ", ".join(table.describe_key(k) for k in sorted(constrained))
        raise UnderdeterminedSystem(
            f"identity leaves more than one unknown correlator: {missing}"
        )
    if len(constrained) < len(unknown):
        # cancellation (e.g. a unit epsilon): the identity is a tautology
        # and says nothing about the unknowns appearing in it
        missing = ", ".join(
            table.describe_key(k) for k in sorted(set(unknown) - set(constrained))
        )
        raise UnderdeterminedSystem(
            f"identity degenerates and does not constrain: {missing}"
        )
    solved = solved_value = None
    if len(constrained) == 1:
        (key, coef), = constrained.items()
        solved = key
        solved_value = -constant / coef
        table.values[key] = solved_value
    elif constant != 0:
        raise InconsistentInput(
            f"associativity violated by {constant} in "
            + " vs ".join(table.describe(t) for t in terms[:2])
        )
    rendered = tuple(table.describe(t) for t in terms)
    values = tuple(table.value(t) for t in terms)
    return WdvvIdentity(rendered, values, solved, solved_value)


def primitivity(ring: JacobiRing, m: Monomial) -> bool:
    """Whether the basis monomial m admits no factorization into two
    positive-degree ring elements.

    Degree-zero elements are not primitive by convention, and any basis
    monomial involving at least two variables (with multiplicity) splits
    off one of them, so only the x_i can be primitive.  For a variable
    the search runs over scalar multiples of basis monomials in the
    complementary weight spaces, which covers every factorization whose
    factors are monomial up to scale.
    """
    if m not in ring.basis.index:
        raise WrongConfiguration(f"{format_monomial(m)} is not a basis monomial")
    if ring.wt(m) == 0:
        return False
    if sum(m) >= 2:
        return False
    target = ring.reduce(m)
    w = ring.wt(m)
    for b in ring.basis.monomials:
        wb = ring.wt(b)
        if not 0 < wb < w:
            continue
        for c in ring.basis.monomials:
            if ring.wt(c) != w - wb or ring.wt(c) == 0:
                continue
            prod = ring.multiply(ring.reduce(b), ring.reduce(c))
            if prod.is_zero():
                continue
            # proportional to the target <=> factorization after rescaling
            pairs = dict(prod.coeffs)
            tpairs = dict(target.coeffs)
            if set(pairs) == set(tpairs):
                ratios = {pairs[i] / tpairs[i] for i in pairs}
                if len(ratios) == 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# worked reconstructions


def fermat_closure(W: InvertiblePolynomial):
    """Reconstruct the whole four-point sector of a Fermat sum.

    Seeds the table with the N correlators <x_j, x_j, x_j^{a_j - 2}, top>
    (one per variable) and derives every other nonvanishing four-point
    correlator <x_j, x_j, x_j^{a_j-2} alpha, x_j^{a_j-2} beta> by one
    associativity step each: splitting epsilon * phi = x_j^{a_j-2} *
    alpha kills the two product terms against the relation x_j^{a_j-1} =
    0, so each value equals its seed.  Returns the table and the chain of
    identities.
    """
    if any(s.kind != "fermat" for s in W.summands):
        raise WrongConfiguration("the closure applies to sums of Fermat monomials")
    if any(s.exponents[0] < 3 for s in W.summands):
        raise WrongConfiguration("Fermat exponents must be at least 3")
    ring = ring_of(W.transpose())
    table = CorrelatorTable(ring)
    n = W.N
    a = [W.E[j][j] for j in range(n)]
    top = ring.basis.top
    for j in range(n):
        x, s, _ = final_type_insertions(W, j + 1)
        table.set((x, x, s, top), fjrw_four_point(W, j + 1))
    chain = []
    for j in range(n):
        x, s, _ = final_type_insertions(W, j + 1)
        rest = tuple(e if k != j else 0 for k, e in enumerate(top))
        for alpha in itertools.product(*(range(e + 1) for e in rest)):
            beta = tuple(r - al for r, al in zip(rest, alpha))
            if alpha == (0,) * n or beta == (0,) * n:
                continue  # the seed itself
            if tuple(sorted((alpha, beta)))[0] != alpha:
                continue  # unordered pair, derive once
            gamma = x
            epsilon = s
            phi = alpha
            delta = tuple(si + bi for si, bi in zip(s, beta))
            chain.append(wdvv_step(table, x, gamma, delta, epsilon, phi))
    return table, chain


def loop_square_chain(a: int):
    """Determine <x_2, x_2, x_1, top> for W = x1^a*x2 + x2^2*x1, a > 2.

    The correlator has a broad insertion on the A-side and a non-basis
    product shape on the B-side, so it is out of direct reach; three
    associativity steps reduce it to the concave correlator
    C = <x_1, x_1, x_1^{a-2} x_2, top> = q_1:

        D = <x_1, x_2, x_1^{a-1}, top>          = C,
        A = <x_1, x_2, x_1^{a-2} x_2, x_1 x_2>  = -(C + D)/2,
        X = <x_2, x_2, x_1, top>                = A + a C = (a - 1) q_1.

    Returns (table, chain) with the solved X in the table.
    """
    if a <= 2:
        raise WrongConfiguration("the chain needs the non-square exponent above 2")
    W = InvertiblePolynomial.from_string(f"x1^{a}*x2 + x2^2*x1")
    ring = ring_of(W.transpose())
    table = CorrelatorTable(ring)
    x1, x2 = (1, 0), (0, 1)
    top = ring.basis.top
    seed_key = table.set(
        (x1, x1, (a - 2, 1), top), fjrw_four_point(W, 1)
    )
    assert table.values[seed_key] == W.q[0]
    chain = [
        # D: split top = x_1 * x_1^{a-2} x_2; both product terms vanish.
        wdvv_step(table, x1, top, x2, x1, (a - 2, 0)),
        # A: split x_1 x_2 = (-1/2) x_1 * x_1^{a-1} via x_1^a = -2 x_1 x_2.
        wdvv_step(
            table, x1, (a - 2, 1), x2, {(1, 0): Fraction(-1, 2)}, (a - 1, 0)
        ),
        # X: split top = x_1 * x_1^{a-2} x_2 once more, now against x_2, x_2.
        wdvv_step(table, x1, x2, x2, x1, (a - 2, 1)),
    ]
    assert table.value((x2, x2, x1, top)) == (a - 1) * W.q[0] == W.q[1]
    return table, chain
