"""Brieskorn-lattice reduction and the B-model four-point correlators.

The genus-zero B-model of a singularity f lives on the formally completed
Brieskorn lattice Omega^N[[z]] / (df wedge + z d).  A polynomial class
[g d^Nx] reduces there by trading Jacobian-ideal patterns for derivatives
one z-level up,

    df/dx_j * h  [d^Nx]   ->   -z dh/dx_j [d^Nx],

until every z-level lies in the span of the standard basis.  A good basis
(one whose higher residue pairings land in z^N*C) induces a primitive
form zeta, and the pair (zeta, J) solving exp((F-f)/z) zeta = J for the
universal deformation F = f + sum_a s_a phi_a packages the Frobenius
manifold: the z^{-1} part of J gives the flat coordinates, the z^{-2}
part the gradient of the genus-zero potential.  This module implements

* the reduction (``brieskorn_reduce``), which consumes ``levels`` =
  {z: {monomial: (num, den)}}, the unreduced integer pairs
  ``JacobiRing.divide`` takes and returns, differentiates the division's
  flat certificate straight into the push, builds ``Fraction``s only
  for the ``steps`` records that ``--trace`` prints, and is the one
  owner of the z-window,
* the combinatorial good-basis verification for atomic transposes
  (``good_basis_check``), which pairs basis monomials whose mirror
  sectors are inverse, each sector one integer mod D stepped over the
  basis sub-boxes and read off f itself, with no transpose or ring built,
* the order-by-order solver for (zeta, J) (``perturbative_expand``),
  which keeps zeta and J as pair levels across the orders and stores each
  entry once, at the end, as a ``LatticeElement``: the plain record of
  the reduced levels, with exact ``Fraction`` coefficients,
* the distinguished four-point correlator <x_i, x_i, M_i/x_i^2, top> of
  the mirror ring (``sg_four_point``), whose value collapses to the
  single reduction [M_i d^Nx] = -q_i z [d^Nx], taken on pair levels with
  one ``Fraction`` for the value.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .errors import WrongConfiguration
from .jacobi import JacobiRing, _accumulate, milnor_number, ring_of, summand_box
from .mirror import Target, final_type_insertions
from .poly import InvertiblePolynomial

Monomial = tuple[int, ...]

# Laurent z-window.  At deformation order <= 3 the exponential
# contributes z^{-3} at worst and each reduction pass climbs by one
# z-level at most up to weight reasons, so [-3, 2] is all the four-point
# computation ever touches.  Keeping the bounds hard makes a runaway
# reduction fail immediately instead of growing quietly.  Only
# `brieskorn_reduce` enforces the window; `perturbative_expand` reads its
# order cap off the lower end.
Z_MIN, Z_MAX = -3, 2


class LatticeElement(NamedTuple):
    """A sparse Laurent element  sum_k z^k P_k(x) [d^Nx]  with exact coefficients:
    a stored zeta or J entry of `SeriesState`.

    ``terms`` maps the z-power k to the polynomial part P_k, itself a map
    monomial -> Fraction.  The record holds what `brieskorn_reduce`
    returned, so it has no empty level, no zero coefficient and no z-power
    outside the window, and equality of ``terms`` is equality of elements.
    Lattice classes proper have k >= 0; negative powers carry the Laurent
    extension used by the J-function.
    """

    terms: dict[int, dict[Monomial, Fraction]]

    def coefficient(self, k: int, m: Monomial) -> Fraction:
        return self.terms.get(k, {}).get(m, Fraction(0))


def brieskorn_reduce(ring: JacobiRing, levels: dict, steps: list | None = None) -> dict:
    """Normal form of ``levels`` = {k: {monomial: (num, den)}} in the ring's
    Brieskorn lattice: every level inside the standard-basis span, with the
    coefficients kept as the unreduced integer pairs `JacobiRing.divide`
    takes and returns.  No returned level is empty.

    Each pass divides one z-level exactly, P = nf + sum kappa s df/dx_v
    over the terms (v, s, kappa) of the division's certificate, keeps the
    normal form, and pushes  -sum d(kappa s)/dx_v  one level up.
    Cyclic (loop) rewriting patterns are closed inside the division's
    binomial walk.  Levels are taken in increasing order and a push goes
    only to the next one, so there are at most Z_MAX - Z_MIN + 1 passes.
    The z-window is checked once per level, as it is taken: a level
    outside it that holds a nonzero numerator raises, a push past Z_MAX
    included, since a push holds only nonzero pairs.  ``levels`` is
    consumed.  When ``steps`` is a list, one record per pass is appended,
    with its values as ``Fraction``s.
    """
    out: dict[int, dict[Monomial, tuple[int, int]]] = {}
    pending = levels
    while pending:
        k = min(pending)
        chunk = pending.pop(k)
        if not Z_MIN <= k <= Z_MAX and any(num for num, _ in chunk.values()):
            raise WrongConfiguration(
                f"z-power {k} outside the supported window [{Z_MIN}, {Z_MAX}]"
            )
        nf, terms = ring.divide(chunk)
        if nf:
            out[k] = nf
        # -d(kappa s)/dx_v for every certificate term kappa s df/dx_v
        push: dict[Monomial, tuple[int, int]] = {}
        for v, s, (num, den) in terms:
            e = s[v]
            if e:
                _accumulate(push, s[:v] + (e - 1,) + s[v + 1:], -num * e, den)
        push = {m: c for m, c in push.items() if c[0]}
        if steps is not None:
            steps.append({"z": k, "chunk": _values(chunk),
                          "normal_form": _values(nf), "pushed": _values(push)})
        if push:
            level = pending.setdefault(k + 1, {})
            for m, (num, den) in push.items():
                _accumulate(level, m, num, den)
    return out


def _values(level: dict) -> dict[Monomial, Fraction]:
    """A level of integer pairs (num, den) as ``Fraction``s, in monomial order."""
    return {m: Fraction(*c) for m, c in sorted(level.items())}


# ---------------------------------------------------------------------------
# good-basis verification


class PairingClass(NamedTuple):
    """All unordered standard-basis pairs sharing one exponent sum m = r + r'.

    ``k`` solves k . E = m + 2 over the integers (monomial-order rows);
    only sums with such a solution form a class, since the pairing of a
    pair can be nonzero only then, and the degree of x^m must equal the
    central charge so the pairing weight lands at z^N.
    """

    exponent_sum: Monomial
    pair_count: int
    k: tuple[int, ...]
    in_family: bool
    degree_ok: bool

    @property
    def ok(self) -> bool:
        return self.in_family and self.degree_ok


class GoodBasisReport(NamedTuple):
    kind: str
    mu: int
    monomial_order: tuple[int, ...]
    checked_pairs: int
    excluded_pairs: int
    classes: tuple[PairingClass, ...]
    families_seen: tuple[tuple[int, ...], ...]

    @property
    def admissible_pairs(self) -> int:
        return sum(c.pair_count for c in self.classes)

    @property
    def failures(self) -> tuple[PairingClass, ...]:
        return tuple(c for c in self.classes if not c.ok)

    @property
    def passed(self) -> bool:
        return not self.failures


def _monomial_order(f: InvertiblePolynomial) -> list[int]:
    """Rows of an atomic f, each ``f.head`` of its variable, in intrinsic
    order: a chain from its pure power back to its first variable, a loop
    backwards from its smallest variable; consecutive rows share the power
    variable of one with the linear variable of the next."""
    if len(f.summands) != 1:
        raise WrongConfiguration("intrinsic order needs one atomic summand")
    s = f.summands[0]
    vs = s.variables[::-1]
    if s.kind == "loop":
        start = vs.index(min(vs))
        vs = vs[start:] + vs[:start]
    return [f.head[v] for v in vs]


def _allowed_families(kind: str, n: int) -> set[tuple[int, ...]]:
    """Integer solution families compatible with a nonzero pairing of
    standard-basis elements, in intrinsic monomial order.  A Fermat is the
    chain of length one: its only family is (1,)."""
    if kind != "loop":
        fams = {(1,) * n}
        for tail in range(1, n // 2 + 1):
            fams.add((1,) * (n - 2 * tail) + (0, 2) * tail)
        return fams
    fams = {(1,) * n}
    if n % 2 == 0:
        fams.add((2, 0) * (n // 2))
        fams.add((0, 2) * (n // 2))
    return fams


def _sector_steps(f: InvertiblePolynomial) -> list[int]:
    """t, by variable, with row v of D·E⁻¹ ≡ t_v·(row v₁) (mod D) for
    the atomic f = x_{v₁}^{a₁}x_{v₂} + …: the rows ρ_v, the generators of
    G_{fᵗ} over D, satisfy aᵢ·ρ_{vᵢ} + ρ_{vᵢ₊₁} ≡ 0, so t_{v₁} = 1 and
    t_{vᵢ₊₁} = −aᵢ·t_{vᵢ} mod D, read off the summand."""
    s = f.summands[0]
    t = [0] * f.N
    step = 1
    for v, a in zip(s.variables, s.exponents):
        t[v] = step
        step = -a * step % f.D
    return t


def good_basis_check(f: InvertiblePolynomial) -> GoodBasisReport:
    """Verify that the standard basis of an atomic f is a good basis.

    For every unordered pair of standard-basis monomials with exponent
    sum m, the pairing can be nonzero only if k . E_f = m + 2 has an
    integer solution; the report checks that every such k falls in the
    allowed family for the atomic type and that deg(x^m) equals the
    central charge, which places the pairing weight at z^N exactly.

    k = (r + 1) . E_f⁻¹ + (r' + 1) . E_f⁻¹, and (r + 1) . E_f⁻¹ mod 1 is
    the phase vector of the mirror sector of r, sector_of(fᵗ, r), since
    the weights of fᵗ are (1, ..., 1) . E_f⁻¹.  So k is integral exactly
    when the sectors of r and r' are inverse.  Over D = f.D the sector is
    Σ_v (r_v + 1)·ρ_v with ρ_v row v of D·E⁻¹, and every ρ_v is
    t_v·ρ_{v₁} mod D (`_sector_steps`, checked here on the columns of
    D·E⁻¹ that `f.inverse_times` gives), so the sector is
    T(r)·ρ_{v₁} with the one integer T(r) = Σ_v (r_v + 1)·t_v mod D.
    G_{fᵗ} = ⟨ρ_{v₁}⟩ has order |det E_f| = D, so T is faithful.
    `jacobi.summand_box` steps T over the summand's basis sub-boxes, with
    no ring built, and they must hold the closed-form μ monomials; each
    bucket of equal T is paired with the bucket at −T mod D, the inverse
    sector.  Σk = (m + 2)·q, so deg(x^m) = ĉ iff Σk = N.
    """
    if len(f.summands) != 1:
        raise WrongConfiguration("good-basis verification expects one atomic summand")
    kind = f.summands[0].kind
    mu = milnor_number(f)
    order = _monomial_order(f)
    D = f.D
    t = _sector_steps(f)
    # k = (m + 2) . E⁻¹ with E⁻¹'s columns in monomial order, so that
    # k . E = m + 2; D divides (m + 2) . D·E⁻¹ on every class
    columns = [f.inverse_times([int(j == r) for j in range(f.N)]) for r in order]
    v1 = f.summands[0].variables[0]
    for column in columns:
        for tv, x in zip(t, column):
            if (tv * column[v1] - x) % D:
                raise RuntimeError(f"a sector generator is not {tv} times the first")
    buckets: dict[int, list[Monomial]] = {}
    for g, r in summand_box(f.summands[0], f.N, sum(t), t, D):
        buckets.setdefault(g, []).append(r)
    if sum(map(len, buckets.values())) != mu:
        raise RuntimeError(f"the basis box does not hold mu = {mu} monomials")
    # each unordered pair once, r <= r'
    pairs = Counter(tuple(map(add, r, rp)) for g, rs in buckets.items()
                    for rp in buckets.get(-g % D, ()) for r in rs if r <= rp)
    families = _allowed_families(kind, f.N)
    records: list[PairingClass] = []
    for m in sorted(pairs):
        k = tuple(sum((mj + 2) * a for mj, a in zip(m, column)) // D for column in columns)
        records.append(PairingClass(exponent_sum=m, pair_count=pairs[m], k=k,
                                    in_family=k in families, degree_ok=sum(k) == f.N))
    checked = mu * (mu + 1) // 2
    return GoodBasisReport(
        kind=kind,
        mu=mu,
        monomial_order=tuple(order),
        checked_pairs=checked,
        excluded_pairs=checked - sum(pairs.values()),
        classes=tuple(records),
        families_seen=tuple(sorted({c.k for c in records})),
    )


# ---------------------------------------------------------------------------
# perturbative solver


class SeriesState(NamedTuple):
    """Truncated solution of exp((F-f)/z) zeta = J over the basis deformation.

    ``zeta`` and ``jfunc`` map an s-monomial -- a sorted tuple of basis
    indices, () for order zero -- to its lattice coefficient.  zeta keeps
    only nonnegative z-powers and starts at [d^Nx]; every positive-order
    jfunc entry sits strictly below z^0, which is the defining property
    of the pair.
    """

    basis: tuple[Monomial, ...]
    zeta: dict
    jfunc: dict

    def j_coefficient(self, z_power: int, smono: tuple[int, ...], alpha: int) -> Fraction:
        """Coefficient of z^{z_power} phi_alpha s^{smono} in J."""
        entry = self.jfunc.get(tuple(sorted(smono)))
        if entry is None:
            return Fraction(0)
        return entry.coefficient(z_power, self.basis[alpha])

    def flat_coordinate(self, alpha: int) -> dict:
        """t_alpha as a series in s: each J entry's z^{-1} phi_alpha coefficient."""
        m = self.basis[alpha]
        return {smono: c for smono, entry in self.jfunc.items()
                if (c := entry.coefficient(-1, m))}


def _splits(smono: tuple[int, ...]):
    """(sub, rest) for every proper sub-multiset sub of a sorted tuple, the
    empty one included, each once, with rest the sorted remainder."""
    out = {}
    for size in range(len(smono)):
        for inner in itertools.combinations(range(len(smono)), size):
            sub = tuple(smono[i] for i in inner)
            if sub not in out:
                out[sub] = tuple(x for i, x in enumerate(smono) if i not in inner)
    return out.items()


def perturbative_expand(f: InvertiblePolynomial, order: int) -> SeriesState:
    """Solve exp((F-f)/z) zeta = J order by order in s, up to ``order`` <= 3.

    The recursion starts from zeta = [d^Nx]; at each order the reduced
    expansion splits into nonnegative and negative z-parts, the former is
    subtracted from zeta and the latter is the new J component.  Orders
    beyond 3 are refused rather than silently truncated: an order-k term
    starts at z^-k, so the cap is -Z_MIN, read off the z-window, to which
    the four-point extraction is calibrated.  zeta and J stay integer-pair
    levels across the orders, each reduced by `brieskorn_reduce`; each
    stored entry becomes a ``LatticeElement`` of ``Fraction`` levels once,
    at the end.
    """
    if not 0 <= order <= -Z_MIN:
        raise WrongConfiguration(f"the expansion is supported up to order {-Z_MIN} only")
    ring = ring_of(f)
    basis = ring.basis.monomials
    mu = len(basis)
    unit = (0,) * f.N
    one = {0: {unit: (1, 1)}}
    zeta: dict[tuple[int, ...], dict] = {(): one}
    jfunc: dict[tuple[int, ...], dict] = {(): one}
    for k in range(1, order + 1):
        for smono in itertools.combinations_with_replacement(range(mu), k):
            # the s-monomial's total as integer-pair levels: each zeta entry
            # times x^rest z^-|rest| / rest!
            total: dict[int, dict[Monomial, tuple[int, int]]] = {}
            for sub, rest in _splits(smono):
                levels = zeta.get(sub)
                if levels is None:
                    continue
                mono = unit
                denom = run = 1
                for i, r in enumerate(rest):
                    mono = tuple(map(add, mono, basis[r]))
                    run = run + 1 if i and rest[i - 1] == r else 1
                    denom *= run
                for z, poly in levels.items():
                    level = total.setdefault(z - len(rest), {})
                    for m, (num, den) in poly.items():
                        _accumulate(level, tuple(map(add, m, mono)), num, den * denom)
            reduced = brieskorn_reduce(ring, total)
            plus = {z: {m: (-num, den) for m, (num, den) in level.items()}
                    for z, level in reduced.items() if z >= 0}
            minus = {z: level for z, level in reduced.items() if z < 0}
            if plus:
                zeta[smono] = plus
            if minus:
                jfunc[smono] = minus
    zeta, jfunc = ({sm: LatticeElement({z: _values(level) for z, level in levels.items()})
                    for sm, levels in table.items()} for table in (zeta, jfunc))
    return SeriesState(basis=tuple(basis), zeta=zeta, jfunc=jfunc)


# ---------------------------------------------------------------------------
# the four-point correlator


def sg_four_point(target: Target) -> Fraction:
    """<x_i, x_i, M_i/x_i^2, top> in the mirror ring Jac(W^t), for an
    admitted target (`mirror.admissible_target`).

    The value is the third derivative of the z^{-2} [d^Nx] component of J
    in the flat coordinates of x_i and M_i/x_i^2.  Because the flat
    coordinates carry no quadratic correction in those directions
    (checked below), this is the corresponding coefficient of the cubic
    term of exp((F-f)/z), which one Brieskorn reduction of [M_i d^Nx]
    evaluates.  Like the A side, the value is memoized on the target's
    piece, under ("sg_four_point", target.key); a raise stores nothing.
    """
    return target.piece.derive(("sg_four_point", target.key), lambda: _sg_four_point(*target))


def _sg_four_point(piece: InvertiblePolynomial, local: int) -> Fraction:
    """`sg_four_point` on the atomic piece, at its 1-based variable
    ``local``."""
    f = piece.transpose()
    ring = ring_of(f)
    n = f.N
    x, s, target_monomial = final_type_insertions(piece, local)
    if not (ring.in_basis(x) and ring.in_basis(s)):
        raise WrongConfiguration("insertion outside the standard basis")

    # Flat-coordinate corrections that could feed the target coefficient
    # come from positive z-powers in the reduced quadratic products; both
    # relevant products stay at z^0, so t = s + O(s^2) holds in the two
    # deformation directions that matter.
    for right in (x, s):
        product = tuple(map(add, x, right))
        if any(k > 0 for k in brieskorn_reduce(ring, {0: {product: (1, 1)}})):
            raise WrongConfiguration("unexpected flat-coordinate correction")

    # Cubic term of exp((F-f)/z): its multinomial weight (1/2 for distinct
    # insertions, 1/3! when M_i/x_i^2 = x_i) times the t-derivative's
    # factorials (2! 1!, or 3!) is 1, so B is [M_i z^-3] reduced.
    reduced = brieskorn_reduce(ring, {-3: {target_monomial: (1, 1)}})
    unit = (0,) * n
    if not set(reduced) <= {-2}:
        raise WrongConfiguration("cubic term did not collapse to z^-2")
    level = reduced.get(-2, {})
    if not set(level) <= {unit}:
        raise WrongConfiguration("cubic term left a positive-degree part")
    return Fraction(*level.get(unit, (0, 1)))
