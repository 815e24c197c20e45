"""Four-point associativity (WDVV) reconstruction over a Frobenius algebra.

Associativity of the quantum product makes the genus-zero four-point
correlators of a Frobenius manifold strongly interdependent: for any
decomposition of one insertion as a ring product,

    <xi, gamma, delta, epsilon * phi> = <xi, gamma, epsilon, delta * phi>
                                      + <xi, gamma * epsilon, delta, phi>
                                      - <xi, gamma * delta, epsilon, phi>,

with no lower-point remainder at exactly four insertions.  This module
makes the identity executable: a ``CorrelatorTable`` stores known values
over a Jacobi ring, and ``wdvv_step`` evaluates one identity against the
table (verifying it, or solving for a single unknown correlator).  Two
worked reconstructions drive the machinery end to end: the four-point
closure of Fermat sums and the three-step chain that determines the
square-tailed two-loop correlator.  They own the rule of which shapes
have a chain and refuse the rest with `_SHAPES`; the closure reads its
seeds through the theorem gate before it builds Jac(Wᵗ).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .amodel import final_type_correlator, four_point_report
from .errors import InconsistentInput, UnderdeterminedSystem, UnsupportedByTheorem, WrongConfiguration
from .jacobi import JacobiRing, RingElement, ring_of
from .mirror import admissible_target
from .poly import InvertiblePolynomial, format_monomial

Key = tuple[int, int, int, int]

_SHAPES = ("associativity chains are implemented for sums of Fermat summands "
           "and for two-variable loops with one exponent equal to 2")


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
    with a unit insertion).
    """

    def __init__(self, ring: JacobiRing):
        self.ring = ring
        self.values: dict[Key, Fraction] = {}
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


class WdvvIdentity(NamedTuple):
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
    expansions = [table.expand(term) for term in terms]
    for sign, expansion in zip(signs, expansions):
        for key, coef in expansion.items():
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
    # every key is known now: the one unknown, if any, was just solved
    values = tuple(sum((c * table.values[k] for k, c in e.items()), Fraction(0))
                   for e in expansions)
    return WdvvIdentity(rendered, values, solved, solved_value)


# ---------------------------------------------------------------------------
# worked reconstructions


def fermat_closure(W: InvertiblePolynomial):
    """Reconstruct the whole four-point sector of a Fermat sum.

    Seeds the table with the N correlators <x_j, x_j, x_j^{a_j - 2}, top>
    (one per variable) and derives every other nonvanishing four-point
    correlator <x_j, x_j, x_j^{a_j-2} alpha, x_j^{a_j-2} beta> by one
    associativity step each: splitting epsilon * phi = x_j^{a_j-2} *
    alpha kills the two product terms against the relation x_j^{a_j-1} =
    0, so each value equals its seed.  Every variable passes the theorem
    gate before a seed or the ring is computed, so a refused square
    computes nothing.  Returns the table and the chain of identities.
    """
    if any(s.kind != "fermat" for s in W.summands):
        raise UnsupportedByTheorem(_SHAPES)
    targets = [admissible_target(W, j + 1) for j in range(W.N)]
    seeds = [four_point_report(t).value for t in targets]
    table = CorrelatorTable(ring_of(W.transpose()))
    chain = []
    for j, seed in enumerate(seeds):
        correlator = x, _, s, top = final_type_correlator(W, j + 1)
        table.set(correlator, seed)
        # the identities of x_j read only its own seed
        rest = tuple(e if r != W.head[j] else 0 for r, e in enumerate(top))
        for alpha in itertools.product(*(range(e + 1) for e in rest)):
            beta = tuple(r - al for r, al in zip(rest, alpha))
            if not any(alpha) or not any(beta):
                continue  # the seed itself
            if beta < alpha:
                continue  # unordered pair, derive once
            delta = tuple(si + bi for si, bi in zip(s, beta))
            chain.append(wdvv_step(table, x, x, delta, s, alpha))
    return table, chain


def loop_square_chain(W: InvertiblePolynomial):
    """Determine <x_s, x_s, x_a, top> for the loop W = x_a^a*x_s + x_s^2*x_a, a > 2.

    x_a and x_s are read off W's summand; in Jac(Wᵗ) they stand for the
    variables of the rows they head.  The correlator has a broad
    insertion on the A-side and a non-basis product shape on the B-side,
    so it is out of direct reach; three associativity steps reduce it to
    the concave correlator C = <x_a, x_a, x_a^{a-2} x_s, top> = q_a:

        D = <x_a, x_s, x_a^{a-1}, top>          = C,
        A = <x_a, x_s, x_a^{a-2} x_s, x_a x_s>  = -(C + D)/2,
        X = <x_s, x_s, x_a, top>                = A + a C = (a - 1) q_a.

    Returns (table, chain) with the solved X in the table.
    """
    s = W.summands[0]
    if s.kind != "loop" or W.N != 2 or not min(s.exponents) == 2 < max(s.exponents):
        raise UnsupportedByTheorem(_SHAPES)
    (a, va), (_, vs) = sorted(zip(s.exponents, s.variables), reverse=True)
    table = CorrelatorTable(ring_of(W.transpose()))
    seed_correlator = xa, _, seed, top = final_type_correlator(W, va + 1)  # seed = x_a^{a-2} x_s
    target = xs, _, _, _ = final_type_correlator(W, vs + 1)               # <x_s, x_s, x_a, top>
    seed_key = table.set(seed_correlator, four_point_report(admissible_target(W, va + 1)).value)
    if table.values[seed_key] != W.q[va]:
        raise WrongConfiguration(f"seed correlator {table.values[seed_key]} is not q_a = {W.q[va]}")
    chain = [
        # D: split top = x_a * x_a^{a-2} x_s; both product terms vanish.
        wdvv_step(table, xa, top, xs, xa, tuple((a - 2) * e for e in xa)),
        # A: split x_a x_s = (-1/2) x_a * x_a^{a-1} via x_a^a = -2 x_a x_s.
        wdvv_step(table, xa, seed, xs, {xa: Fraction(-1, 2)}, tuple((a - 1) * e for e in xa)),
        # X: split top = x_a * x_a^{a-2} x_s once more, now against x_s, x_s.
        wdvv_step(table, xa, xs, xs, xa, seed),
    ]
    x = table.value(target)
    if not x == (a - 1) * W.q[va] == W.q[vs]:
        raise WrongConfiguration(f"reconstructed {x} is not (a - 1) q_a = q_s = {W.q[vs]}")
    return table, chain
