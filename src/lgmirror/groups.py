"""Diagonal symmetry groups of invertible polynomials.

Elements are stored additively as phase vectors in [0,1); the group law is
componentwise addition mod 1.  The maximal group G_W is generated by the
fractional parts of the columns of E⁻¹ and has order |det E|; its phases
lie in (1/D)ℤ/ℤ, where D = W.D is the exponent of G_W.  An element keeps
integer numerators over one denominator, the least one, so that equality
and hashing follow the value and all arithmetic stays in integers;
``phases`` is the ``Fraction`` view for output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import WrongConfiguration
from .poly import InvertiblePolynomial

DEFAULT_GROUP_CAP = 100_000


class GroupCapExceeded(RuntimeError):
    """Group enumeration would exceed the configured element cap, or the
    cap itself is not an integer."""


@dataclass(frozen=True, init=False, slots=True)
class GroupElement:
    """The phase vector num/den, every numerator in [0, den) and den the
    least common denominator.  ``GroupElement(num, den)`` takes integer
    numerators over a common denominator, not necessarily the least one.
    """

    num: tuple[int, ...]
    den: int

    def __init__(self, num, den: int):
        num = tuple(num)
        if not all(0 <= x < den for x in num):
            raise WrongConfiguration(
                f"phases {tuple(Fraction(x, den) for x in num)} outside [0, 1)")
        g = math.gcd(den, *num)
        if g > 1:
            num, den = tuple(x // g for x in num), den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def phases(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def scaled(self, D: int) -> tuple[int, ...]:
        """The numerators over D, a multiple of ``den``."""
        k = D // self.den
        return tuple(x * k for x in self.num)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if len(self.num) != len(other.num):
            raise WrongConfiguration("product of elements of different ranks")
        den = math.lcm(self.den, other.den)
        return GroupElement(
            tuple((a + b) % den for a, b in zip(self.scaled(den), other.scaled(den))),
            den)

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(tuple(k * x % self.den for x in self.num), self.den)

    def inverse(self) -> "GroupElement":
        return self ** -1

    def fixed_indices(self) -> tuple[int, ...]:
        """Variables fixed by the symmetry, i.e. zero phases (0-based)."""
        return tuple(i for i, x in enumerate(self.num) if x == 0)

    def is_narrow(self) -> bool:
        return 0 not in self.num

    def json_phases(self) -> list[str]:
        return [f"{p.numerator}/{p.denominator}" for p in self.phases]


def identity(n: int) -> GroupElement:
    return GroupElement((0,) * n, 1)


def generator_rho(W: InvertiblePolynomial, j: int) -> GroupElement:
    """ρ_j, the symmetry scaling monomial inputs along column j of E⁻¹ (1-based j)."""
    if not 1 <= j <= W.N:
        raise IndexError(j)
    return GroupElement(tuple(row[j - 1] % W.D for row in W.DE_inv), W.D)


def group_cap() -> int:
    raw = os.environ.get("LGMIRROR_GROUP_CAP", "")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise GroupCapExceeded(
                f"LGMIRROR_GROUP_CAP={raw!r} is not an integer") from None
    return DEFAULT_GROUP_CAP


def enumerate_group(W: InvertiblePolynomial) -> list[GroupElement]:
    """All elements of the maximal diagonal symmetry group, by closure of the
    generators.  Raises GroupCapExceeded if the group is larger than the cap
    (LGMIRROR_GROUP_CAP, default 10^5)."""
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
    # every element lies in (1/D)ℤ/ℤ: numerators over D order as the phases
    return sorted(seen, key=lambda g: g.scaled(W.D))


def sector_degree(W: InvertiblePolynomial, g: GroupElement) -> Fraction:
    """Degree contribution of the sector γ: N_γ/2 + Σ_j (Θ^{(j)} − q_j),
    where N_γ counts the variables fixed by γ."""
    D = math.lcm(W.D, g.den)
    total = len(g.fixed_indices()) * D + 2 * (sum(g.scaled(D)) - sum(W.Dq) * (D // W.D))
    return Fraction(total, 2 * D)
