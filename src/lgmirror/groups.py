"""Diagonal symmetry groups of invertible polynomials.

Elements are stored additively as phase vectors in [0,1); the group law is
componentwise addition mod 1.  The maximal group G_W is generated by the
fractional parts of the columns of E⁻¹ and has order |det E|; its phases
lie in (1/D)ℤ/ℤ, where D = W.D is the exponent of G_W.  G_W is the product
of one cycle per atomic summand, which ``enumerate_group`` multiplies out.
Every element keeps integer numerators over D, so equality, hashing and
phase sums work on ``num`` alone, and ``require_in_group`` refuses any
other denominator; ``phases`` is the ``Fraction`` view for output.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

from .errors import WrongConfiguration
from .poly import InvertiblePolynomial, parse_int

DEFAULT_GROUP_CAP = 100_000


class GroupCapExceeded(RuntimeError):
    """Group enumeration would exceed the configured element cap, or the
    cap itself is not an integer."""


class _Phases(NamedTuple):
    num: tuple[int, ...]
    den: int


class GroupElement(_Phases):
    """The phase vector num/den, every numerator in [0, den).  An element
    of G_W has den = W.D; a product needs both factors over one den."""

    __slots__ = ()

    def __new__(cls, num, den):
        if not all(0 <= x < den for x in num):
            raise WrongConfiguration(
                f"phases {tuple(Fraction(x, den) for x in num)} outside [0, 1)")
        return super().__new__(cls, num, den)

    @property
    def phases(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if len(self.num) != len(other.num) or self.den != other.den:
            raise WrongConfiguration("product of elements of different ranks or denominators")
        return GroupElement(
            tuple((a + b) % self.den for a, b in zip(self.num, other.num)), self.den)

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(tuple(k * x % self.den for x in self.num), self.den)

    def fixed_indices(self) -> tuple[int, ...]:
        """Variables fixed by the symmetry, i.e. zero phases (0-based)."""
        return tuple(i for i, x in enumerate(self.num) if x == 0)

    def is_narrow(self) -> bool:
        return 0 not in self.num


def identity(W: InvertiblePolynomial) -> GroupElement:
    return GroupElement((0,) * W.N, W.D)


def require_in_group(W: InvertiblePolynomial, sectors) -> None:
    """Refuse any element that is not N numerators over D = W.D, the form
    of every element of G_W that the integer phase sums rely on."""
    for g in sectors:
        if g.den != W.D or len(g.num) != W.N:
            raise WrongConfiguration(
                f"{len(g.num)} phases over {g.den} are not an element of G_W "
                f"({W.N} phases over D = {W.D})")


def generator_rho(W: InvertiblePolynomial, j: int) -> GroupElement:
    """ρ_j, the symmetry scaling monomial inputs along column j of E⁻¹ (1-based j)."""
    if not 1 <= j <= W.N:
        raise IndexError(j)
    column = W.inverse_times([int(r == j - 1) for r in range(W.N)])
    return GroupElement(tuple(x % W.D for x in column), W.D)


def group_cap() -> int:
    raw = os.environ.get("LGMIRROR_GROUP_CAP", "")
    if raw:
        try:
            return parse_int(raw)
        except ValueError:
            raise GroupCapExceeded(
                f"LGMIRROR_GROUP_CAP={raw!r} is not an integer") from None
    return DEFAULT_GROUP_CAP


def enumerate_group(W: InvertiblePolynomial) -> list[GroupElement]:
    """All elements of G_W in numerator order: the product over the
    summands of the powers of ρ, the column of E⁻¹ at the row the summand's
    last variable heads, whose entry ±1/det at its first variable gives ρ
    order det.  Raises GroupCapExceeded if |det E| is above the cap
    (LGMIRROR_GROUP_CAP, default 10^5), and RuntimeError unless the
    product holds |det E| distinct elements."""
    cap = group_cap()
    order = W.group_order()
    if order > cap:
        raise GroupCapExceeded(
            f"group has {order} elements, cap is {cap} "
            "(raise LGMIRROR_GROUP_CAP to override)")
    elements = [identity(W)]
    for s in W.summands:
        rho = generator_rho(W, W.head[s.variables[-1]] + 1)
        powers = [rho ** k for k in range(s.det)]
        elements = [g * p for g in elements for p in powers]
    if len(set(elements)) != order:
        raise RuntimeError(f"the summand cycles do not hold {order} distinct elements")
    # every element is over D, so its numerators order as its phases
    return sorted(elements, key=lambda g: g.num)


def sector_degree(W: InvertiblePolynomial, g: GroupElement) -> Fraction:
    """Degree contribution of the sector γ: N_γ/2 + Σ_j (Θ^{(j)} − q_j),
    where N_γ counts the variables fixed by γ, summed over 2·W.D."""
    require_in_group(W, [g])
    total = len(g.fixed_indices()) * W.D + 2 * (sum(g.num) - sum(W.Dq))
    return Fraction(total, 2 * W.D)
