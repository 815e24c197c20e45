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

* the lattice elements and the reduction (``LatticeElement``,
  ``brieskorn_reduce``),
* the combinatorial good-basis verification for atomic transposes
  (``good_basis_check``),
* the order-by-order solver for (zeta, J) (``perturbative_expand``),
* the distinguished four-point correlator <x_i, x_i, M_i/x_i^2, top> of
  the mirror ring (``sg_four_point``), whose value collapses to the
  single reduction [M_i d^Nx] = -q_i z [d^Nx].
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amodel import admissible_target
from .errors import WrongConfiguration
from .jacobi import ring_of
from .linalg import determinant, invert
from .mirror import final_type_insertions
from .poly import InvertiblePolynomial

Monomial = tuple[int, ...]

# Laurent z-window.  At deformation order <= 3 the exponential
# contributes z^{-3} at worst and each reduction pass climbs by one
# z-level at most up to weight reasons, so [-3, 2] is all the four-point
# computation ever touches.  Keeping the bounds hard makes a runaway
# reduction fail immediately instead of growing quietly.
Z_MIN, Z_MAX = -3, 2

_MAX_PASSES = 64


class LatticeElement:
    """A sparse Laurent element  sum_k z^k P_k(x) [d^Nx]  with exact coefficients.

    ``terms`` maps the z-power k to the polynomial part P_k, itself a map
    monomial -> Fraction.  Zero coefficients and empty levels are dropped
    on construction, so equality of ``terms`` is equality of elements.
    Lattice classes proper have k >= 0; negative powers carry the Laurent
    extension used by the J-function.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[int, dict[Monomial, Fraction]] = {}
        for k, poly in (terms or {}).items():
            level = {m: Fraction(c) for m, c in poly.items() if c != 0}
            if not level:
                continue
            if not Z_MIN <= k <= Z_MAX:
                raise WrongConfiguration(
                    f"z-power {k} outside the supported window [{Z_MIN}, {Z_MAX}]"
                )
            clean[int(k)] = level
        self.terms = clean

    @staticmethod
    def from_poly(p, z: int = 0) -> "LatticeElement":
        """Wrap a polynomial (a monomial tuple or {monomial: coef}) at one z-level."""
        if isinstance(p, tuple):
            p = {p: Fraction(1)}
        return LatticeElement({z: p})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def z_powers(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def poly_at(self, k: int) -> dict[Monomial, Fraction]:
        return dict(self.terms.get(k, {}))

    def coefficient(self, k: int, m: Monomial) -> Fraction:
        return self.terms.get(k, {}).get(m, Fraction(0))

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        out = {k: dict(p) for k, p in self.terms.items()}
        for k, poly in other.terms.items():
            level = out.setdefault(k, {})
            for m, c in poly.items():
                level[m] = level.get(m, Fraction(0)) + c
        return LatticeElement(out)

    def __neg__(self) -> "LatticeElement":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        return self + (-other)

    def scale(self, c) -> "LatticeElement":
        c = Fraction(c)
        return LatticeElement(
            {k: {m: c * v for m, v in poly.items()} for k, poly in self.terms.items()}
        )

    def shift(self, dz: int) -> "LatticeElement":
        """Multiply by z^dz."""
        return LatticeElement({k + dz: poly for k, poly in self.terms.items()})

    def times(self, m: Monomial, dz: int = 0, c=1) -> "LatticeElement":
        """Multiply by c * x^m * z^dz (no reduction)."""
        c = Fraction(c)
        out: dict[int, dict[Monomial, Fraction]] = {}
        for k, poly in self.terms.items():
            level = out.setdefault(k + dz, {})
            for mono, v in poly.items():
                key = tuple(a + b for a, b in zip(mono, m))
                level[key] = level.get(key, Fraction(0)) + c * v
        return LatticeElement(out)

    def split_z(self) -> tuple["LatticeElement", "LatticeElement"]:
        """(nonnegative-z part, negative-z part)."""
        plus = {k: p for k, p in self.terms.items() if k >= 0}
        minus = {k: p for k, p in self.terms.items() if k < 0}
        return LatticeElement(plus), LatticeElement(minus)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "LatticeElement(0)"
        bits = []
        for k in sorted(self.terms):
            for m, c in sorted(self.terms[k].items()):
                bits.append(f"z^{k}*{c}*x^{m}")
        return "LatticeElement(" + " + ".join(bits) + ")"


def brieskorn_reduce(
    f: InvertiblePolynomial, e: LatticeElement, steps: list | None = None
) -> LatticeElement:
    """Normal form of ``e``: every polynomial part inside the standard-basis span.

    Each pass divides one z-level exactly, P = nf + sum_j h_j * df/dx_j,
    keeps the normal form, and pushes  -sum_j dh_j/dx_j  one level up.
    Cyclic (loop) rewriting patterns are closed inside the division's
    linear solve, so the pass count is bounded by the z-window; the guard
    is a bug signal, not a tunable.  When ``steps`` is a list, one record
    per pass is appended for auditing.
    """
    ring = ring_of(f)
    out: dict[int, dict[Monomial, Fraction]] = {}
    pending = {k: dict(p) for k, p in e.terms.items()}
    passes = 0
    while pending:
        passes += 1
        if passes > _MAX_PASSES:
            raise RuntimeError("Brieskorn reduction failed to terminate")
        k = min(pending)
        chunk = pending.pop(k)
        nf, quotients = ring.divide(chunk)
        if not nf.is_zero():
            level = out.setdefault(k, {})
            for m, c in ring.monomial_of(nf).items():
                level[m] = level.get(m, Fraction(0)) + c
        push: dict[Monomial, Fraction] = {}
        for j, h in enumerate(quotients):
            for s, c in h.items():
                if s[j] == 0:
                    continue
                d = list(s)
                d[j] -= 1
                dm = tuple(d)
                push[dm] = push.get(dm, Fraction(0)) - c * s[j]
        push = {m: c for m, c in push.items() if c != 0}
        if steps is not None:
            steps.append(
                {
                    "z": k,
                    "chunk": dict(chunk),
                    "normal_form": ring.monomial_of(nf),
                    "pushed": dict(push),
                }
            )
        if push:
            if k + 1 > Z_MAX:
                raise WrongConfiguration(
                    f"z-power {k + 1} outside the supported window [{Z_MIN}, {Z_MAX}]"
                )
            level = pending.setdefault(k + 1, {})
            for m, c in push.items():
                level[m] = level.get(m, Fraction(0)) + c
    return LatticeElement(out)


# ---------------------------------------------------------------------------
# good-basis verification


@dataclass(frozen=True)
class PairingClass:
    """All unordered standard-basis pairs sharing one exponent sum m = r + r'.

    ``k`` solves k . E = m + 2 over the integers (monomial-order rows)
    when such a solution exists; the pairing of any pair in the class can
    only be nonzero in that case, and then the degree of x^m must equal
    the central charge so the pairing weight lands at z^N.
    """

    exponent_sum: Monomial
    pair_count: int
    k: tuple[int, ...] | None
    in_family: bool
    degree_ok: bool | None

    @property
    def ok(self) -> bool:
        if self.k is None:
            return True
        return self.in_family and bool(self.degree_ok)


@dataclass(frozen=True)
class GoodBasisReport:
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
    """Rows of f.E in intrinsic order: the pure power heads a chain, and
    consecutive monomials share the power variable of one with the linear
    variable of the next; loops follow the same linkage cyclically."""
    rows = f.E
    owner: dict[int, int] = {}
    linear: dict[int, int | None] = {}
    for r, row in enumerate(rows):
        support = [(j, e) for j, e in enumerate(row) if e]
        power = [j for j, e in support if e >= 2]
        lin = [j for j, e in support if e == 1]
        owner[r] = power[0]
        linear[r] = lin[0] if lin else None
    by_linear = {v: r for r, v in linear.items() if v is not None}
    heads = [r for r, v in linear.items() if v is None]
    if heads:
        start = heads[0]
    else:
        start = min(range(len(rows)), key=lambda r: owner[r])
    order = [start]
    while len(order) < len(rows):
        nxt = by_linear.get(owner[order[-1]])
        if nxt is None or nxt in order:
            break
        order.append(nxt)
    if len(order) != len(rows):
        raise WrongConfiguration("rows do not link into a single chain or loop")
    return order


def _allowed_families(kind: str, n: int) -> set[tuple[int, ...]]:
    """Integer solution families compatible with a nonzero pairing of
    standard-basis elements, in intrinsic monomial order."""
    if kind == "fermat":
        return {(1,) * n}
    if kind == "chain":
        fams = {(1,) * n}
        for tail in range(1, n // 2 + 1):
            fams.add((1,) * (n - 2 * tail) + (0, 2) * tail)
        return fams
    fams = {(1,) * n}
    if n % 2 == 0:
        fams.add((2, 0) * (n // 2))
        fams.add((0, 2) * (n // 2))
    return fams


def pairing_solution(f: InvertiblePolynomial, m: Monomial) -> tuple[int, ...] | None:
    """The integer vector k with k . E_f = m + 2, in intrinsic monomial
    order, or None when the exact solution is not integral."""
    order = _monomial_order(f)
    rows = [f.E[r] for r in order]
    inv = invert(rows)
    rhs = [mi + 2 for mi in m]
    k = [sum(rhs[j] * inv[j][i] for j in range(len(rows))) for i in range(len(rows))]
    if any(v.denominator != 1 for v in k):
        return None
    return tuple(int(v) for v in k)


def good_basis_check(f: InvertiblePolynomial) -> GoodBasisReport:
    """Verify that the standard basis of an atomic f is a good basis.

    For every unordered pair of standard-basis monomials with exponent
    sum m, the pairing can be nonzero only if k . E_f = m + 2 has an
    integer solution; the report checks that every such k falls in the
    allowed family for the atomic type and that deg(x^m) equals the
    central charge, which places the pairing weight at z^N exactly.
    """
    if len(f.summands) != 1:
        raise WrongConfiguration("good-basis verification expects one atomic summand")
    kind = f.summands[0].kind
    ring = ring_of(f)
    n = f.N
    order = _monomial_order(f)
    rows = [[int(v) for v in f.E[r]] for r in order]
    inv = invert(rows)
    # integer adjugate: adj = det * inv, so k is integral iff det | (m+2).adj
    det_fr = determinant(rows)
    det = int(det_fr)
    adj_rows = [[inv[i][j] * det_fr for j in range(n)] for i in range(n)]
    assert all(v.denominator == 1 for row in adj_rows for v in row)
    adj = np.array([[int(v) for v in row] for row in adj_rows], dtype=np.int64)

    basis = np.array(ring.basis.monomials, dtype=np.int64)
    mu = len(basis)
    iu, ju = np.triu_indices(mu)
    sums = basis[iu] + basis[ju]
    classes_m, counts = np.unique(sums, axis=0, return_counts=True)
    knum = (classes_m + 2) @ adj
    integral = (knum % abs(det) == 0).all(axis=1)

    families = _allowed_families(kind, n)
    charge = f.charge
    q = f.q
    records: list[PairingClass] = []
    seen: set[tuple[int, ...]] = set()
    excluded = 0
    for row_idx in range(len(classes_m)):
        count = int(counts[row_idx])
        if not integral[row_idx]:
            excluded += count
            continue
        m = tuple(int(v) for v in classes_m[row_idx])
        k = tuple(int(v) // det for v in knum[row_idx])
        seen.add(k)
        degree = sum((mi * qi for mi, qi in zip(m, q)), Fraction(0))
        records.append(
            PairingClass(
                exponent_sum=m,
                pair_count=count,
                k=k,
                in_family=k in families,
                degree_ok=degree == charge,
            )
        )
    records.sort(key=lambda c: c.exponent_sum)
    return GoodBasisReport(
        kind=kind,
        mu=mu,
        monomial_order=tuple(order),
        checked_pairs=int(counts.sum()),
        excluded_pairs=excluded,
        classes=tuple(records),
        families_seen=tuple(sorted(seen)),
    )


# ---------------------------------------------------------------------------
# perturbative solver


@dataclass(frozen=True)
class SeriesState:
    """Truncated solution of exp((F-f)/z) zeta = J over the basis deformation.

    ``zeta`` and ``jfunc`` map an s-monomial -- a sorted tuple of basis
    indices, () for order zero -- to its lattice coefficient.  zeta keeps
    only nonnegative z-powers and starts at [d^Nx]; every positive-order
    jfunc entry sits strictly below z^0, which is the defining property
    of the pair.
    """

    polynomial: InvertiblePolynomial
    order: int
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
        """t_alpha as a series in s: the z^{-1} phi_alpha component of J."""
        out: dict[tuple[int, ...], Fraction] = {}
        for smono in self.jfunc:
            c = self.j_coefficient(-1, smono, alpha)
            if c:
                out[smono] = c
        return out


def _sub_multisets(smono: tuple[int, ...]):
    """All proper sub-multisets of a sorted tuple, the empty one included."""
    subs = {()}
    for size in range(1, len(smono)):
        subs.update(itertools.combinations(smono, size))
    return sorted(subs)


def _multiset_difference(whole: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...]:
    counts = Counter(whole)
    counts.subtract(Counter(part))
    return tuple(sorted(counts.elements()))


def perturbative_expand(f: InvertiblePolynomial, order: int) -> SeriesState:
    """Solve exp((F-f)/z) zeta = J order by order in s, up to ``order`` <= 3.

    The recursion starts from zeta = [d^Nx]; at each order the reduced
    expansion splits into nonnegative and negative z-parts, the former is
    subtracted from zeta and the latter is the new J component.  Orders
    beyond 3 are refused rather than silently truncated: the z-window and
    the four-point extraction are calibrated to cubic order.
    """
    if not 0 <= order <= 3:
        raise WrongConfiguration("the expansion is supported up to order 3 only")
    ring = ring_of(f)
    basis = ring.basis.monomials
    mu = len(basis)
    unit = (0,) * f.N
    one = LatticeElement.from_poly(unit)
    zeta: dict[tuple[int, ...], LatticeElement] = {(): one}
    jfunc: dict[tuple[int, ...], LatticeElement] = {(): one}
    for k in range(1, order + 1):
        for smono in itertools.combinations_with_replacement(range(mu), k):
            total = LatticeElement()
            for sub in _sub_multisets(smono):
                zel = zeta.get(sub)
                if zel is None:
                    continue
                rest = _multiset_difference(smono, sub)
                mono = unit
                for r in rest:
                    mono = tuple(a + b for a, b in zip(mono, basis[r]))
                denom = 1
                for mult in Counter(rest).values():
                    for v in range(2, mult + 1):
                        denom *= v
                total = total + zel.times(mono, -len(rest), Fraction(1, denom))
            reduced = brieskorn_reduce(f, total)
            plus, minus = reduced.split_z()
            if not plus.is_zero():
                zeta[smono] = -plus
            if not minus.is_zero():
                jfunc[smono] = minus
    return SeriesState(
        polynomial=f, order=order, basis=tuple(basis), zeta=zeta, jfunc=jfunc
    )


# ---------------------------------------------------------------------------
# the four-point correlator


def sg_four_point(W: InvertiblePolynomial, i: int) -> Fraction:
    """<x_i, x_i, M_i/x_i^2, top> in the mirror ring Jac(W^t).

    Admissibility matches the A-side correlator exactly.  The value is
    the third derivative of the z^{-2} [d^Nx] component of J in the flat
    coordinates of x_i and M_i/x_i^2.  Because the flat coordinates carry
    no quadratic correction in those directions (checked below), this is
    the corresponding coefficient of the cubic term of exp((F-f)/z),
    which one Brieskorn reduction of [M_i d^Nx] evaluates.
    """
    piece, local = admissible_target(W, i)
    f = piece.transpose()
    ring = ring_of(f)
    n = f.N
    x, s, target_monomial = final_type_insertions(piece, local)
    for insertion in (x, s):
        assert insertion in ring.basis.index, "insertion outside the standard basis"

    # Flat-coordinate corrections that could feed the target coefficient
    # come from positive z-powers in the reduced quadratic products; both
    # relevant products stay at z^0, so t = s + O(s^2) holds in the two
    # deformation directions that matter.
    for left, right in ((x, x), (x, s)):
        product = tuple(a + b for a, b in zip(left, right))
        reduced = brieskorn_reduce(f, LatticeElement.from_poly(product))
        assert all(k <= 0 for k in reduced.z_powers), (
            "unexpected flat-coordinate correction"
        )

    # Cubic term of exp((F-f)/z): for distinct insertions the s_x^2 s_S
    # coefficient is (3 choose 2,1)/3! = 1/2 of [M_i] z^-3 and the t-
    # derivative contributes 2! 1!; when M_i/x_i^2 = x_i (cubic Fermat)
    # the single coordinate carries 1/3! of [M_i] z^-3 and the derivative
    # contributes 3!.  Both products are 1.
    if s == x:
        prefactor, derivative = Fraction(1, 6), 6
    else:
        prefactor, derivative = Fraction(1, 2), 2
    cubic = LatticeElement.from_poly({target_monomial: prefactor}, z=-3)
    reduced = brieskorn_reduce(f, cubic)
    unit = (0,) * n
    assert set(reduced.z_powers) <= {-2}, "cubic term did not collapse to z^-2"
    assert set(reduced.poly_at(-2)) <= {unit}, "cubic term left a positive-degree part"
    return derivative * reduced.coefficient(-2, unit)
