"""Helpers shared by the test modules."""

from fractions import Fraction

from lgmirror.groups import GroupElement


def grading_element(W):
    """J_W, with phases the fractional parts of the weights qᵢ = Dqᵢ/D."""
    return GroupElement(tuple(x % W.D for x in W.Dq), W.D)


def residue_pairing(R, a, b):
    """The residue pairing of two ring elements of R: the coefficient of the
    socle monomial ``R.top`` in the product a·b."""
    return dict(R.multiply(a, b).coeffs).get(R.basis.index[R.top], Fraction(0))
