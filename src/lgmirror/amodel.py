"""Genus-zero four-point correlators of the A-model state space.

For a target variable x_t the correlator of interest is

    X = < psi(x_t), psi(x_t), psi(M_t / x_t^2), psi(top) >

where M_t is the t-th monomial of the transposed polynomial, top is the
socle monomial of its milnor ring, and psi is the mirror map.  The value
is computed by one of four routes:

* ``concave``: all insertions narrow and every line bundle without
  sections on every fiber; the value is a Bernoulli-polynomial
  combination of the insertion and boundary-node phases.
* ``guere``: loop targets with a square (a_t = 2, N >= 3), where one line
  bundle acquires sections on a boundary stratum; the virtual class is
  evaluated through a limit formula that weighs the degree-one Chern
  characters of two line bundles.
* ``wdvv1`` / ``wdvv2``: the two-variable loops with a square, where an
  insertion is broad; the value is reconstructed from an auxiliary
  concave correlator (or an externally supplied seed) through
  associativity of the quantum product.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .errors import ConcavityViolated, InconsistentInput, WrongConfiguration
from .groups import GroupElement
from .jacobi import top_of
from .mirror import Monomial, Target, final_type_insertions, sector_of
from .poly import InvertiblePolynomial
from .selection import line_bundle_degrees

# Value of the seven-point seed correlator (all insertions the doubled
# grading sector) for x1^2*x2 + x2^2*x1.  It is concave, but lives on a
# seven-marked moduli space outside the scope of this module, so the
# value is shipped as a constant; it can be recomputed on the
# deformation-equivalent model x1^2*x2 + x2^3.
SYMMETRIC_LOOP_SEED = Fraction(2, 27)

_SPLITTINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class BoundaryDecoration(NamedTuple):
    """One two-component boundary stratum of the four-marked moduli space.

    ``splitting`` lists the marks (0-based) on each component; the node
    sector gamma_plus is forced by integrality of the line bundle degrees
    on the component carrying the first mark, and ell_plus/ell_minus are
    those degrees for each variable.
    """

    splitting: tuple[tuple[int, int], tuple[int, int]]
    gamma_plus: GroupElement
    ell_plus: tuple[int, ...]
    ell_minus: tuple[int, ...]

    def pair(self, i: int) -> tuple[int, int]:
        """Unordered component degrees of the i-th line bundle (1-based)."""
        a, b = self.ell_plus[i - 1], self.ell_minus[i - 1]
        return (a, b) if a >= b else (b, a)


def boundary_decorations(
    W: InvertiblePolynomial, sectors: list[GroupElement]
) -> list[BoundaryDecoration]:
    """The three decorated boundary graphs of a four-point correlator.

    Node phases come from h_side^(i) = q_i - sum of the side's insertion
    phases: the fractional part is the node sector and the floor is the
    component line bundle degree.  Both are taken in integers over
    D = W.D, as a mod and a floor division of D·h.  Degree
    bookkeeping (the two component degrees plus one when the node is
    narrow add up to the smooth-fiber degree) is checked on every
    decoration, against the smooth degrees times D.
    """
    if len(sectors) != 4:
        raise WrongConfiguration("expected exactly 4 sectors")
    smooth = line_bundle_degrees(W, sectors)
    D, theta = W.D, [g.num for g in sectors]
    out = []
    for plus, minus in _SPLITTINGS:
        (a, b), (c, e) = plus, minus
        h_plus = [qi - ta - tb for qi, ta, tb in zip(W.Dq, theta[a], theta[b])]
        h_minus = [qi - tc - te for qi, tc, te in zip(W.Dq, theta[c], theta[e])]
        gamma = tuple(h % D for h in h_plus)
        ell_plus = tuple(h // D for h in h_plus)
        ell_minus = tuple(h // D for h in h_minus)
        for i in range(W.N):
            g_plus, g_minus = gamma[i], h_minus[i] % D
            if g_plus * (D - g_plus) != g_minus * (D - g_minus):
                raise WrongConfiguration(
                    f"node phases {Fraction(g_plus, D)}, {Fraction(g_minus, D)} "
                    f"of line bundle {i + 1} are not inverse")
            node = 1 if g_plus != 0 else 0
            if smooth[i] != D * (ell_plus[i] + ell_minus[i] + node):
                raise WrongConfiguration(
                    f"line bundle {i + 1} has component degrees {ell_plus[i]}, "
                    f"{ell_minus[i]} on {(plus, minus)}, smooth degree {Fraction(smooth[i], D)}")
        out.append(BoundaryDecoration((plus, minus), GroupElement(gamma, D),
                                      ell_plus, ell_minus))
    return out


def _sections_vanish(dec: BoundaryDecoration, i: int) -> bool:
    """Whether the i-th line bundle (1-based) has no sections on this stratum.

    A component contributes sections unless its degree is negative, or the
    degree is zero and the node is untwisted there (the restriction map to
    the node fiber is then injective on the constants).
    """
    broad = dec.gamma_plus.num[i - 1] == 0
    for ell in (dec.ell_plus[i - 1], dec.ell_minus[i - 1]):
        if ell > 0 or (ell == 0 and not broad):
            return False
    return True


def _chern_combo(
    W: InvertiblePolynomial,
    sectors: list[GroupElement],
    decorations: list[BoundaryDecoration],
    j: int,
) -> int:
    """2D² times the Bernoulli combination at variable j (1-based):

    1/2 * [ -q_j(1-q_j) + sum over marks Theta(1-Theta)
            - sum over boundary graphs gamma(1-gamma) ].

    Equal to the concave correlator value when j is the target, and to
    minus the degree-one Chern character of the pushforward of the j-th
    line bundle in general (the constant terms of the three Bernoulli
    polynomials cancel: 1 - 4 + 3 = 0).  An integer, since D = W.D is the
    denominator of every phase.
    """
    D = W.D

    def bernoulli(th: int) -> int:
        return th * (D - th)

    total = -bernoulli(W.Dq[j - 1])
    total += sum(bernoulli(g.num[j - 1]) for g in sectors)
    total -= sum(bernoulli(dec.gamma_plus.num[j - 1]) for dec in decorations)
    return total


def _require_footprint(W: InvertiblePolynomial, sectors, target_index: int, error) -> None:
    """The final-type footprint: all four insertions narrow, and smooth-fiber
    line bundle degrees -2 at the target and -1 elsewhere; raises ``error``,
    the caller's exception class, otherwise."""
    if any(not g.is_narrow() for g in sectors):
        raise error("broad insertion sector")
    D = W.D
    for i, degree in enumerate(line_bundle_degrees(W, sectors), start=1):
        want = -2 if i == target_index else -1
        if degree != want * D:
            raise error(f"line bundle {i} has degree {Fraction(degree, D)}, expected {want}")


def b2_correlator(
    W: InvertiblePolynomial,
    sectors: list[GroupElement],
    target_index: int,
    decorations=None,
) -> Fraction:
    """Concave four-point correlator value at the target variable.

    Requires the final-type footprint (`_require_footprint`) and no
    sections on any boundary stratum; raises ConcavityViolated otherwise.
    No caller catches it: `four_point_report` picks the method by the
    summand's shape before it calls this, so on its targets the raise
    marks a broken invariant, not a fallback.  ``decorations`` are the
    sectors' boundary decorations when the caller has them already.
    """
    _require_footprint(W, sectors, target_index, ConcavityViolated)
    if decorations is None:
        decorations = boundary_decorations(W, sectors)
    for dec in decorations:
        for i in range(1, W.N + 1):
            if not _sections_vanish(dec, i):
                raise ConcavityViolated(
                    f"line bundle {i} has sections on stratum {dec.splitting}"
                )
    return Fraction(_chern_combo(W, sectors, decorations, target_index), 2 * W.D * W.D)


def final_type_correlator(W: InvertiblePolynomial, t: int) -> tuple[Monomial, Monomial, Monomial, Monomial]:
    """(x_t, x_t, M_t/x_t^2, top) at the 1-based t, as exponent tuples of
    Jac(Wᵗ): M_t is the t-th monomial of the transpose and top the socle
    monomial of its milnor ring, both read through ``W.head``, so the order
    of E's rows does not matter.  The one statement of the insertion list."""
    x, s, _ = final_type_insertions(W, t)
    return x, x, s, top_of(W.transpose())


def _final_type_sectors(W: InvertiblePolynomial, target: int) -> list[GroupElement]:
    """The sectors psi of `final_type_correlator`, theta(x_t) computed once."""
    x, _, s, top = final_type_correlator(W, target)
    theta = sector_of(W, x)
    return [theta, theta, sector_of(W, s), sector_of(W, top)]


def _loop_read(W: InvertiblePolynomial, t: int) -> tuple[int, int, int]:
    """(a_t, p, a_p), read off W's one summand: x_t's exponent (1-based t)
    and, on a loop, the 1-based p of x_p, which points at x_t, and a_p."""
    s = W.summands[0]
    k = s.variables.index(t - 1)
    return s.exponents[k], s.variables[k - 1] + 1, s.exponents[k - 1]


def guere_correlator(W: InvertiblePolynomial, sectors, decorations, target_index: int) -> Fraction:
    """Four-point value at x_t, t = ``target_index``, of a loop with a_t = 2
    and N >= 3.

    x_p is the loop variable that points at x_t, read off W's summand
    (`_loop_read`), so W may carry any labels and row order.  Its line
    bundle acquires sections on one boundary stratum, so the virtual class
    is evaluated through the limit

        X = a_p * Ch1(L_p) - Ch1(L_t),

    the a_p coefficient being lim (1 - u^{-a_p}) u/(1 - u) as u -> 1.
    Each Ch1 integral is minus the Bernoulli combination, an integer over
    2D² with D = W.D, so the value is one Fraction; every other line bundle
    is concave of degree -1 and contributes zero, which is checked.
    ``sectors`` and ``decorations`` are those of the final-type correlator.
    """
    if len(W.summands) != 1 or W.summands[0].kind != "loop":
        raise WrongConfiguration("expected a single loop")
    t = target_index
    a_t, p, a_p = _loop_read(W, t)
    if W.N < 3 or a_t != 2:
        raise WrongConfiguration("expected a loop with final exponent 2 and N >= 3")
    _require_footprint(W, sectors, t, WrongConfiguration)
    if decorations[0].pair(p) != (0, -2):
        raise WrongConfiguration(
            f"expected component degrees (0, -2) for line bundle {p}, "
            f"got {decorations[0].pair(p)}"
        )
    for j in range(1, W.N + 1):
        if j not in (p, t) and _chern_combo(W, sectors, decorations, j) != 0:
            raise WrongConfiguration(f"line bundle {j} contributes to the limit formula")
    ch1_p = -_chern_combo(W, sectors, decorations, p)
    ch1_t = -_chern_combo(W, sectors, decorations, t)
    return Fraction(a_p * ch1_p - ch1_t, 2 * W.D * W.D)


def _rational_fourth_root(v: Fraction) -> Fraction:
    """The nonnegative rational t with t**4 == v, or raise ValueError."""
    if v < 0:
        raise ValueError("negative value has no real fourth root")
    p, q = v.numerator, v.denominator
    rp, rq = isqrt(isqrt(p)), isqrt(isqrt(q))
    if rp**4 != p or rq**4 != q:
        raise ValueError(f"{v} is not a fourth power")
    return Fraction(rp, rq)


def wdvv_case1(W: InvertiblePolynomial, X0: Fraction) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction]]:
    """Solve the correlator system of x1^2*x2 + x2^2*x1 given the seed X0.

    Both primitive insertions are broad, so X = <theta, theta, theta', J^2>
    is out of reach of the concave formula.  Associativity closes the
    correlators into the system

        X1 = -2X,  X2 = 2X^2,  X3 = -X^2,  X0 = 6X^4,

    determined up to a fourth root of unity; the mirror map is rescaled so
    that the positive real root is the value.  Returns (X, (X1, X2, X3)).
    """
    if (
        len(W.summands) != 1
        or W.summands[0].kind != "loop"
        or W.N != 2
        or set(W.summands[0].exponents) != {2}
    ):
        raise WrongConfiguration("expected the two-variable loop with both exponents 2")
    x0 = Fraction(X0)
    try:
        x = _rational_fourth_root(x0 / 6)
    except ValueError:
        raise InconsistentInput(f"seed {x0} is not 6*t^4 for rational t") from None
    return x, (-2 * x, 2 * x * x, -x * x)


def wdvv_case2(W: InvertiblePolynomial, target_index: int) -> Fraction:
    """Four-point value at x_t, t = ``target_index``, of x_o^a*x_t +
    x_t^2*x_o with a > 2.

    The theta_t insertion is broad, so the value is reconstructed from the
    concave seed B = q_o, the final-type correlator at x_o, the other
    variable (`_loop_read`), in three associativity steps that
    trade a broad insertion for milnor-ring relations (x_t^2 =
    -a*x_o^(a-1)*x_t and x_o^a = -2*x_o*x_t):

        X = a*B - (B + B)/2 = (a - 1)*q_o.
    """
    s = W.summands[0] if len(W.summands) == 1 else None
    if s is None or s.kind != "loop" or W.N != 2:
        raise WrongConfiguration("expected a two-variable loop")
    a_t, o, a = _loop_read(W, target_index)
    if a_t != 2 or a <= 2:
        raise WrongConfiguration("expected exponents (a, 2) with a > 2")
    base = b2_correlator(W, _final_type_sectors(W, o), o)
    if base != W.q[o - 1]:
        raise WrongConfiguration(f"concave base correlator {base} is not q_{o} = {W.q[o - 1]}")
    bridge = base + base
    return a * base - bridge / 2


class FourPointResult(NamedTuple):
    value: Fraction
    method: str  # "concave" | "guere" | "wdvv1" | "wdvv2"
    decorations: tuple[BoundaryDecoration, ...]


def four_point_report(target: Target) -> FourPointResult:
    """Compute <psi(x_i), psi(x_i), psi(M_i/x_i^2), psi(top)> for an
    admitted target (`mirror.admissible_target`).

    Dispatches to the concave formula, the limit formula for a loop
    target with a square, or the two associativity reconstructions, on
    the target's atomic piece.  The result, decorations in `target_order`,
    is memoized on the piece under ("four_point", target.key); a raise
    stores nothing.
    """
    return target.piece.derive(("four_point", target.key), lambda: _four_point_report(*target))


def _four_point_report(piece: InvertiblePolynomial, local: int) -> FourPointResult:
    """`four_point_report` on the atomic piece, at its 1-based variable
    ``local``."""
    kind = piece.summands[0].kind
    a_t, _, a_p = _loop_read(piece, local)
    if kind == "loop" and piece.N == 2 and a_t == 2:
        if a_p == 2:
            value, _ = wdvv_case1(piece, SYMMETRIC_LOOP_SEED)
            return FourPointResult(value, "wdvv1", ())
        return FourPointResult(wdvv_case2(piece, local), "wdvv2", ())
    sectors = _final_type_sectors(piece, local)
    decorations = tuple(boundary_decorations(piece, sectors))
    if kind == "loop" and a_t == 2:
        value, method = guere_correlator(piece, sectors, decorations, local), "guere"
    else:
        value, method = b2_correlator(piece, sectors, local, decorations), "concave"
    if kind == "loop" and local != piece.N:
        # stored in target order, as the piece rotated to end at x_local reads them
        read = itemgetter(*piece.target_order(local))
        decorations = tuple(BoundaryDecoration(d.splitting, GroupElement(read(d.gamma_plus.num), piece.D),
                                               read(d.ell_plus), read(d.ell_minus)) for d in decorations)
    return FourPointResult(value, method, decorations)
