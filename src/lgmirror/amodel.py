"""Genus-zero four-point correlators of the A-model state space.

For a target variable x_t the correlator of interest is

    X = < psi(x_t), psi(x_t), psi(M_t / x_t^2), psi(top) >

where M_t is the t-th monomial of the transposed polynomial, top is the
socle monomial of its milnor ring, and psi is the mirror map.  The value
is computed by one of four routes:

* ``concave``: all insertions narrow and every line bundle without
  sections on every fiber; the value is a Bernoulli-polynomial
  combination of the insertion and boundary-node phases.
* ``guere``: loops ending in a square (a_N = 2, N >= 3), where one line
  bundle acquires sections on a boundary stratum; the virtual class is
  evaluated through a limit formula that weighs the degree-one Chern
  characters of two line bundles.
* ``wdvv1`` / ``wdvv2``: the two-variable loops with a square, where an
  insertion is broad; the value is reconstructed from an auxiliary
  concave correlator (or an externally supplied seed) through
  associativity of the quantum product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ConcavityViolated, InconsistentInput, UnsupportedByTheorem, WrongConfiguration
from .groups import GroupElement
from .jacobi import ring_of
from .mirror import final_type_insertions, require_mirror_hypotheses, sector_of
from .poly import AtomicSummand, InvertiblePolynomial, reassemble
from .selection import line_bundle_degrees

# Value of the seven-point seed correlator (all insertions the doubled
# grading sector) for x1^2*x2 + x2^2*x1.  It is concave, but lives on a
# seven-marked moduli space outside the scope of this module, so the
# value is shipped as a constant; it can be recomputed on the
# deformation-equivalent model x1^2*x2 + x2^3.
SYMMETRIC_LOOP_SEED = Fraction(2, 27)

_SPLITTINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _frac(x: Fraction) -> Fraction:
    return x - (x // 1)


@dataclass(frozen=True)
class PhaseProbe:
    """The numbers Y[i][c] = q_i + c*rho_t^(i) for c in [-2, 2].

    Insertion and node phases of the four-point correlator with target t
    are integer shifts of these; the probe is exposed for tracing which
    window each one falls into.
    """

    target: int
    values: tuple[tuple[Fraction, ...], ...]  # values[i][c + 2]

    @staticmethod
    def build(W: InvertiblePolynomial, target: int) -> "PhaseProbe":
        inv = W.inverse_exponents()
        t = target - 1
        rows = tuple(
            tuple(W.q[i] + c * inv[i][t] for c in range(-2, 3)) for i in range(W.N)
        )
        return PhaseProbe(target, rows)

    def y(self, i: int, c: int) -> Fraction:
        return self.values[i - 1][c + 2]


@dataclass(frozen=True)
class BoundaryDecoration:
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

    @property
    def gamma_minus(self) -> GroupElement:
        return self.gamma_plus.inverse()

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
    component line bundle degree.  Degree bookkeeping (the two component
    degrees plus one when the node is narrow add up to the smooth-fiber
    degree) is asserted on every decoration.
    """
    if len(sectors) != 4:
        raise WrongConfiguration("expected exactly 4 sectors")
    smooth = line_bundle_degrees(W, sectors)
    out = []
    for plus, minus in _SPLITTINGS:
        h_plus = [W.q[i] - sum(sectors[m].phases[i] for m in plus) for i in range(W.N)]
        h_minus = [W.q[i] - sum(sectors[m].phases[i] for m in minus) for i in range(W.N)]
        gamma = GroupElement(tuple(_frac(h) for h in h_plus))
        ell_plus = tuple(int(h // 1) for h in h_plus)
        ell_minus = tuple(int(h // 1) for h in h_minus)
        for i in range(W.N):
            g_plus, g_minus = _frac(h_plus[i]), _frac(h_minus[i])
            assert g_plus * (1 - g_plus) == g_minus * (1 - g_minus)
            node = 1 if g_plus != 0 else 0
            assert ell_plus[i] + ell_minus[i] == smooth[i] - node
        out.append(BoundaryDecoration((plus, minus), gamma, ell_plus, ell_minus))
    return out


def _sections_vanish(dec: BoundaryDecoration, i: int) -> bool:
    """Whether the i-th line bundle (1-based) has no sections on this stratum.

    A component contributes sections unless its degree is negative, or the
    degree is zero and the node is untwisted there (the restriction map to
    the node fiber is then injective on the constants).
    """
    broad = dec.gamma_plus.phases[i - 1] == 0
    for ell in (dec.ell_plus[i - 1], dec.ell_minus[i - 1]):
        if ell > 0 or (ell == 0 and not broad):
            return False
    return True


def _chern_combo(
    W: InvertiblePolynomial,
    sectors: list[GroupElement],
    decorations: list[BoundaryDecoration],
    j: int,
) -> Fraction:
    """The Bernoulli combination at variable j (1-based):

    1/2 * [ -q_j(1-q_j) + sum over marks Theta(1-Theta)
            - sum over boundary graphs gamma(1-gamma) ].

    Equal to the concave correlator value when j is the target, and to
    minus the degree-one Chern character of the pushforward of the j-th
    line bundle in general (the constant terms of the three Bernoulli
    polynomials cancel: 1 - 4 + 3 = 0).
    """
    q = W.q[j - 1]
    total = -q * (1 - q)
    for g in sectors:
        th = g.phases[j - 1]
        total += th * (1 - th)
    for dec in decorations:
        th = dec.gamma_plus.phases[j - 1]
        total -= th * (1 - th)
    return total / 2


def b2_correlator(
    W: InvertiblePolynomial, sectors: list[GroupElement], target_index: int
) -> Fraction:
    """Concave four-point correlator value at the target variable.

    Requires all four insertions narrow, smooth-fiber line bundle degrees
    -2 at the target and -1 elsewhere, and no sections on any boundary
    stratum; raises ConcavityViolated otherwise so the caller can route
    to another method.
    """
    if any(not g.is_narrow() for g in sectors):
        raise ConcavityViolated("broad insertion sector")
    smooth = line_bundle_degrees(W, sectors)
    for i in range(1, W.N + 1):
        want = -2 if i == target_index else -1
        if smooth[i - 1] != want:
            raise ConcavityViolated(
                f"line bundle {i} has degree {smooth[i - 1]}, expected {want}"
            )
    decorations = boundary_decorations(W, sectors)
    for dec in decorations:
        for i in range(1, W.N + 1):
            if not _sections_vanish(dec, i):
                raise ConcavityViolated(
                    f"line bundle {i} has sections on stratum {dec.splitting}"
                )
    return _chern_combo(W, sectors, decorations, target_index)


def _final_type_sectors(W: InvertiblePolynomial, target: int) -> list[GroupElement]:
    """Sectors of <psi(x_t), psi(x_t), psi(M_t/x_t^2), psi(top)>.

    M_t is the t-th monomial of the transpose and top the socle monomial
    of its milnor ring.
    """
    x, s, _ = final_type_insertions(W, target)
    top = ring_of(W.transpose()).top
    return [sector_of(W, x), sector_of(W, x), sector_of(W, s), sector_of(W, top)]


def guere_correlator(W: InvertiblePolynomial) -> Fraction:
    """Four-point value for a loop ending in a square (a_N = 2, N >= 3).

    The last-but-one line bundle acquires sections on one boundary
    stratum, so the virtual class is evaluated through the limit

        X = a_{N-1} * Ch1(L_{N-1}) - Ch1(L_N),

    the a_{N-1} coefficient being lim (1 - u^{-a_{N-1}}) u/(1 - u) as
    u -> 1.  Each Ch1 integral is minus the Bernoulli combination; every
    line bundle below N-1 is concave of degree -1 and contributes zero,
    which is asserted.
    """
    if len(W.summands) != 1 or W.summands[0].kind != "loop":
        raise WrongConfiguration("expected a single loop")
    n = W.N
    a = _loop_exponents_in_ambient_order(W)
    if n < 3 or a[-1] != 2:
        raise WrongConfiguration("expected a loop with final exponent 2 and N >= 3")
    sectors = _final_type_sectors(W, n)
    if any(not g.is_narrow() for g in sectors):
        raise WrongConfiguration("broad insertion sector")
    smooth = line_bundle_degrees(W, sectors)
    if smooth != [Fraction(-1)] * (n - 1) + [Fraction(-2)]:
        raise WrongConfiguration(f"unexpected line bundle degrees {smooth}")
    decorations = boundary_decorations(W, sectors)
    if decorations[0].pair(n - 1) != (0, -2):
        raise WrongConfiguration(
            f"expected component degrees (0, -2) for line bundle {n - 1}, "
            f"got {decorations[0].pair(n - 1)}"
        )
    for j in range(1, n - 1):
        assert _chern_combo(W, sectors, decorations, j) == 0
    ch1_next_to_last = -_chern_combo(W, sectors, decorations, n - 1)
    ch1_last = -_chern_combo(W, sectors, decorations, n)
    return a[-2] * ch1_next_to_last - ch1_last


def _loop_exponents_in_ambient_order(W: InvertiblePolynomial) -> list[int]:
    """Exponent a_i of ambient variable i for a single-loop polynomial."""
    s = W.summands[0]
    out = [0] * W.N
    for e, v in zip(s.exponents, s.variables):
        out[v] = e
    return out


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


def wdvv_case2(W: InvertiblePolynomial) -> Fraction:
    """Four-point value for x1^a*x2 + x2^2*x1 with a > 2, target x2.

    The theta_2 insertion is broad, so the value is reconstructed from the
    concave correlator B = <theta_1, theta_1, psi(x1^(a-2)x2), psi(x1^(a-1)x2)>
    = q_1 in three associativity steps that trade a broad insertion for
    milnor-ring relations (x2^2 = -a*x1^(a-1)*x2 and x1^a = -2*x1*x2):

        X = a*B - (B + B)/2 = (a - 1)*q_1.
    """
    s = W.summands[0] if len(W.summands) == 1 else None
    if s is None or s.kind != "loop" or W.N != 2:
        raise WrongConfiguration("expected a two-variable loop")
    a = _loop_exponents_in_ambient_order(W)
    if a[1] != 2 or a[0] <= 2:
        raise WrongConfiguration("expected exponents (a, 2) with a > 2")
    e1 = (1, 0)
    base_sectors = [
        sector_of(W, e1),
        sector_of(W, e1),
        sector_of(W, (a[0] - 2, 1)),
        sector_of(W, (a[0] - 1, 1)),
    ]
    base = b2_correlator(W, base_sectors, 1)
    assert base == W.q[0]
    bridge = base + base
    return a[0] * base - bridge / 2


@dataclass(frozen=True)
class FourPointResult:
    value: Fraction
    method: str  # "concave" | "guere" | "wdvv1" | "wdvv2"
    target: int  # 1-based variable index in the input polynomial
    decorations: tuple[BoundaryDecoration, ...]


def _atomic_piece(W: InvertiblePolynomial, i0: int) -> tuple[InvertiblePolynomial, int]:
    """Restrict to the atomic summand containing ambient variable i0.

    Returns the summand as a standalone polynomial (loops rotated so the
    target comes last) and the 1-based local target index.  Correlators of
    a direct sum factor through the summands: the complementary factor
    contributes a two-point pairing normalized to 1.
    """
    s = W.summand_of(i0)
    n = len(s.exponents)
    p = s.variables.index(i0)
    if s.kind == "loop":
        exps = s.exponents[p + 1 :] + s.exponents[: p + 1]
        local = n
    else:
        exps = s.exponents
        local = p + 1
    atom = AtomicSummand(s.kind, tuple(exps), tuple(range(n)))
    piece = InvertiblePolynomial.from_exponent_matrix(reassemble([atom], n))
    return piece, local


def admissible_target(W: InvertiblePolynomial, i: int) -> tuple[InvertiblePolynomial, int]:
    """Validate that <x_i, x_i, M_i/x_i^2, top> falls under the theorem.

    The variable must be a power-at-least-3 one when its summand is a
    Fermat or a chain (chains only support the final variable); every
    loop variable is supported.  Returns the atomic summand of x_i as a
    standalone polynomial together with the 1-based local target index;
    both correlator sides validate through this single gate.
    """
    require_mirror_hypotheses(W)
    if not 1 <= i <= W.N:
        raise WrongConfiguration(f"variable index {i} out of range")
    piece, local = _atomic_piece(W, i - 1)
    kind = piece.summands[0].kind
    a_local = [piece.E[j][j] for j in range(piece.N)]
    if kind == "fermat":
        if a_local[0] < 3:
            raise UnsupportedByTheorem("Fermat variables need exponent at least 3")
    elif kind == "chain":
        if local != piece.N:
            raise UnsupportedByTheorem(
                "chain variables other than the final one are not supported"
            )
        if a_local[-1] < 3:
            raise UnsupportedByTheorem("chains ending in a square are not supported")
    return piece, local


def four_point_report(W: InvertiblePolynomial, i: int) -> FourPointResult:
    """Compute <psi(x_i), psi(x_i), psi(M_i/x_i^2), psi(top)> for W.

    Dispatches to the concave formula, the limit formula for loops ending
    in a square, or the two associativity reconstructions, after reducing
    to the atomic summand of x_i.
    """
    piece, local = admissible_target(W, i)
    kind = piece.summands[0].kind
    a_local = [piece.E[j][j] for j in range(piece.N)]
    if kind == "loop":
        if piece.N == 2 and a_local == [2, 2]:
            value, _ = wdvv_case1(piece, SYMMETRIC_LOOP_SEED)
            return FourPointResult(value, "wdvv1", i, ())
        if piece.N == 2 and a_local[1] == 2:
            return FourPointResult(wdvv_case2(piece), "wdvv2", i, ())
        if a_local[-1] == 2:
            sectors = _final_type_sectors(piece, piece.N)
            decorations = tuple(boundary_decorations(piece, sectors))
            return FourPointResult(guere_correlator(piece), "guere", i, decorations)
    sectors = _final_type_sectors(piece, local)
    decorations = tuple(boundary_decorations(piece, sectors))
    value = b2_correlator(piece, sectors, local)
    return FourPointResult(value, "concave", i, decorations)


def fjrw_four_point(W: InvertiblePolynomial, i: int) -> Fraction:
    return four_point_report(W, i).value
