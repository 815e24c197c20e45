"""The A side's integer phase arithmetic against the rational formulas.

Sectors, line bundle degrees, boundary decorations, the Bernoulli
combination and the sector degree are computed in integers over the
exponent D of G_W.  The reference here is the same mathematics written
with `Fraction` phases, on direct sums of one to three atomic summands
with shuffled variables and rows.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from lgmirror.amodel import (
    _chern_combo,
    _final_type_sectors,
    boundary_decorations,
)
from lgmirror.errors import UnsupportedByTheorem, WrongConfiguration
from lgmirror.groups import enumerate_group, generator_rho, sector_degree
from lgmirror.jacobi import JacobiRing, top_of
from lgmirror.mirror import admissible_target, final_type_insertions, sector_of
from lgmirror.poly import AtomicSummand
from lgmirror.selection import line_bundle_degrees

from support import from_dense, grading_element, reassemble

SPLITTINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def frac(x):
    return x - (x.numerator // x.denominator)


def ref_sector(W, m):
    inverse = W.inverse_exponents()
    return tuple(frac(W.q[i] + sum((m[j] * inverse[i][j] for j in range(W.N)), Fraction(0)))
                 for i in range(W.N))


def ref_sector_degree(W, phases):
    return Fraction(sum(p == 0 for p in phases), 2) + sum(
        (p - qj for p, qj in zip(phases, W.q)), Fraction(0))


def ref_degrees(W, phases):
    k = len(phases)
    return [W.q[j] * (k - 2) - sum(p[j] for p in phases) for j in range(W.N)]


def ref_decorations(W, phases):
    """(gamma_plus phases, ell_plus, ell_minus) per splitting, with the
    same checks and messages as the program."""
    smooth = ref_degrees(W, phases)
    out = []
    for plus, minus in SPLITTINGS:
        h_plus = [W.q[i] - sum(phases[m][i] for m in plus) for i in range(W.N)]
        h_minus = [W.q[i] - sum(phases[m][i] for m in minus) for i in range(W.N)]
        ell_plus = tuple(int(h // 1) for h in h_plus)
        ell_minus = tuple(int(h // 1) for h in h_minus)
        for i in range(W.N):
            g_plus, g_minus = frac(h_plus[i]), frac(h_minus[i])
            if g_plus * (1 - g_plus) != g_minus * (1 - g_minus):
                raise WrongConfiguration(
                    f"node phases {g_plus}, {g_minus} of line bundle {i + 1} are not inverse")
            node = 1 if g_plus != 0 else 0
            if ell_plus[i] + ell_minus[i] != smooth[i] - node:
                raise WrongConfiguration(
                    f"line bundle {i + 1} has component degrees {ell_plus[i]}, "
                    f"{ell_minus[i]} on {(plus, minus)}, smooth degree {smooth[i]}")
        out.append((tuple(frac(h) for h in h_plus), ell_plus, ell_minus))
    return out


def ref_chern(W, phases, nodes, j):
    q = W.q[j - 1]
    total = -q * (1 - q)
    for p in phases:
        total += p[j - 1] * (1 - p[j - 1])
    for p in nodes:
        total -= p[j - 1] * (1 - p[j - 1])
    return total / 2


def check_four_sectors(W, sectors):
    """Degrees, decorations (or the refusal and its message) and every
    Bernoulli combination agree with the reference."""
    phases = [g.phases for g in sectors]
    assert [Fraction(x, W.D) for x in line_bundle_degrees(W, sectors)] == ref_degrees(W, phases)
    try:
        expected = ref_decorations(W, phases)
    except WrongConfiguration as exc:
        expected = str(exc)
    try:
        decorations = boundary_decorations(W, sectors)
    except WrongConfiguration as exc:
        assert str(exc) == expected
        return
    assert [(d.gamma_plus.phases, d.ell_plus, d.ell_minus) for d in decorations] == expected
    assert all(d.gamma_plus.den == W.D for d in decorations)
    nodes = [e[0] for e in expected]
    for j in range(1, W.N + 1):
        assert (Fraction(_chern_combo(W, sectors, decorations, j), 2 * W.D**2)
                == ref_chern(W, phases, nodes, j))


@st.composite
def direct_sums(draw):
    """1–3 Fermat/chain/loop summands, exponents 2–6, N ≤ 6, on shuffled
    variables, with the monomials in shuffled order."""
    pieces, room = [], 6
    for _ in range(draw(st.integers(1, 3))):
        if room == 0:
            break
        kind = draw(st.sampled_from(["fermat", "chain", "loop"]))
        size = 1 if kind == "fermat" or room == 1 else draw(st.integers(2, min(3, room)))
        pieces.append((kind, draw(st.lists(st.integers(2, 6), min_size=size, max_size=size))))
        room -= size
    n = 6 - room
    labels = draw(st.permutations(range(n)))
    summands, start = [], 0
    for kind, a in pieces:
        kind = "fermat" if len(a) == 1 else kind
        summands.append(AtomicSummand(kind, tuple(a), tuple(labels[start:start + len(a)])))
        start += len(a)
    rows = draw(st.permutations(reassemble(summands, n)))
    return from_dense(rows)


@settings(max_examples=60, deadline=None)
@given(direct_sums(), st.data())
def test_integer_phases_match_the_fraction_formulas(W, data):
    assume(W.group_order() <= 2000)
    basis = JacobiRing(W.transpose()).basis.monomials
    for m in basis[::max(1, len(basis) // 40)]:
        g = sector_of(W, m)
        assert g.phases == ref_sector(W, m)
        assert g.den == W.D
        assert sector_degree(W, g) == ref_sector_degree(W, g.phases)
    # every element of G_W that the program builds is over D
    assert all(generator_rho(W, j).den == W.D for j in range(1, W.N + 1))
    assert all(g.den == W.D for g in enumerate_group(W))

    # three sectors of W and the fourth that makes every degree integral,
    # then four arbitrary ones, which the checks mostly refuse
    picks = [sector_of(W, data.draw(st.sampled_from(basis))) for _ in range(4)]
    J = grading_element(W)
    closing = J * J * (picks[0] * picks[1] * picks[2]) ** -1
    assert closing.phases == tuple(
        frac(2 * q - sum(g.phases[i] for g in picks[:3])) for i, q in enumerate(W.q))
    check_four_sectors(W, picks[:3] + [closing])
    check_four_sectors(W, picks)

    for i in range(1, W.N + 1):
        try:
            piece, local = admissible_target(W, i)
        except UnsupportedByTheorem:
            continue
        x, s, _ = final_type_insertions(piece, local)
        sectors = _final_type_sectors(piece, local)
        top = top_of(piece.transpose())
        assert [g.phases for g in sectors] == [ref_sector(piece, m) for m in (x, x, s, top)]
        check_four_sectors(piece, sectors)
