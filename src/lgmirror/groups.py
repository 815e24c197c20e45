"""Diagonal symmetry groups of invertible polynomials.

Elements are stored additively as vectors of rational phases in [0,1); the
group law is componentwise addition mod 1.  The maximal group is generated by
the fractional parts of the columns of E⁻¹ and has order |det E|.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .poly import InvertiblePolynomial

DEFAULT_GROUP_CAP = 100_000


class GroupCapExceeded(RuntimeError):
    """Group enumeration would exceed the configured element cap."""


def _frac(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class GroupElement:
    phases: tuple[Fraction, ...]

    def __post_init__(self):
        assert all(0 <= p < 1 for p in self.phases)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        assert len(self.phases) == len(other.phases)
        return GroupElement(tuple(_frac(a + b)
                                  for a, b in zip(self.phases, other.phases)))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(tuple(_frac(k * p) for p in self.phases))

    def inverse(self) -> "GroupElement":
        return self ** -1

    def is_identity(self) -> bool:
        return all(p == 0 for p in self.phases)

    def fixed_indices(self) -> tuple[int, ...]:
        """Variables fixed by the symmetry, i.e. zero phases (0-based)."""
        return tuple(i for i, p in enumerate(self.phases) if p == 0)

    def is_narrow(self) -> bool:
        return not self.fixed_indices()

    def json_phases(self) -> list[str]:
        return [f"{p.numerator}/{p.denominator}" for p in self.phases]


def identity(n: int) -> GroupElement:
    return GroupElement((Fraction(0),) * n)


@dataclass(frozen=True)
class SectorKind:
    narrow: bool
    fixed: tuple[int, ...]

    def __str__(self) -> str:
        if self.narrow:
            return "narrow"
        return "broad" + str(list(self.fixed))


def sector_kind(g: GroupElement) -> SectorKind:
    fixed = g.fixed_indices()
    return SectorKind(narrow=not fixed, fixed=fixed)


def generator_rho(W: InvertiblePolynomial, j: int) -> GroupElement:
    """ρ_j, the symmetry scaling monomial inputs along column j of E⁻¹ (1-based j)."""
    if not 1 <= j <= W.N:
        raise IndexError(j)
    inv = W.inverse_exponents()
    return GroupElement(tuple(_frac(inv[i][j - 1]) for i in range(W.N)))


def grading_element(W: InvertiblePolynomial) -> GroupElement:
    """J_W, with phases the fractional parts of the weights."""
    return GroupElement(tuple(_frac(qi) for qi in W.q))


def group_cap() -> int:
    raw = os.environ.get("LGMIRROR_GROUP_CAP", "")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"LGMIRROR_GROUP_CAP={raw!r} is not an integer")
    return DEFAULT_GROUP_CAP


def enumerate_group(W: InvertiblePolynomial, cap: int | None = None) -> list[GroupElement]:
    """All elements of the maximal diagonal symmetry group, by closure of the
    generators.  Raises GroupCapExceeded if the group is larger than the cap
    (LGMIRROR_GROUP_CAP, default 10^5)."""
    if cap is None:
        cap = group_cap()
    order = W.group_order()
    if order > cap:
        raise GroupCapExceeded(
            f"group has {order} elements, cap is {cap} "
            "(raise LGMIRROR_GROUP_CAP to override)")
    gens = [generator_rho(W, j) for j in range(1, W.N + 1)]
    seen = {identity(W.N)}
    frontier = [identity(W.N)]
    while frontier:
        nxt = []
        for g in frontier:
            for rho in gens:
                h = g * rho
                if h not in seen:
                    if len(seen) >= cap:
                        raise GroupCapExceeded(
                            f"enumeration exceeded cap {cap}")
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen, key=lambda g: g.phases)


def sector_degree(W: InvertiblePolynomial, g: GroupElement) -> Fraction:
    """Degree contribution of the sector γ: N_γ/2 + Σ_j (Θ^{(j)} − q_j),
    where N_γ counts the variables fixed by γ."""
    n_fixed = len(g.fixed_indices())
    return Fraction(n_fixed, 2) + sum(
        (p - qj for p, qj in zip(g.phases, W.q)), Fraction(0))
