import operator
from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import example, given, strategies as st

from lgmirror import jacobi, linalg
from lgmirror.jacobi import (JacobiRing, OracleQuotient, RingElement, _SummandRing,
                             _chain_excluded, _graded, _partials, ring_of, summand_box, top_of)
from lgmirror.poly import AtomicSummand, InvertiblePolynomial, weighted_degree

from support import (assert_certificate, criteria_atomics, from_dense, pairs, quotients, reassemble,
                     residue_pairing, slice_divide, values)

F = Fraction


def ring(text):
    return JacobiRing(InvertiblePolynomial.from_string(text))


RINGS = [
    "x1^3",
    "x1^2",
    "x1^5",
    "x1^2 + x1*x2^2",            # chain transpose, mu 3
    "x1^3 + x1*x2^3",
    "x1^4 + x1*x2^2",
    "x1^3*x2 + x2^4",            # chain in the other orientation
    "x1^2 + x1*x2^2 + x2*x3^3",  # length-3 chain transpose
    "x1^2*x2 + x2^2*x1",         # loop (2,2)
    "x1^3*x2 + x2^3*x1",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^3*x2 + x2^2*x3 + x3^2*x1",
    "x1^3 + x2^2*x3 + x3^2*x2",  # fermat ⊕ loop
    "x1^2 + x1*x2^2 + x3^3*x4 + x4^3*x3",   # chain ⊕ loop
    "x1^3*x3 + x2^4 + x3^2*x1",               # fermat ⊕ loop on x1, x3
    "x3^3 + x1^2*x3 + x2^3*x4 + x4^3*x2",    # chain on x1, x3 ⊕ loop on x2, x4
]


# ---------------------------------------------------------------------------
# standard basis combinatorics

def test_fermat_basis():
    R = ring("x1^4")
    assert R.basis.monomials == ((0,), (1,), (2,))
    assert R.top == (2,)
    assert R.mu == 3


def test_chain_transpose_basis_excludes_corner():
    R = ring("x1^2 + x1*x2^2")
    assert set(R.basis.monomials) == {(0, 0), (1, 0), (0, 1)}
    assert R.top == (1, 0)          # weight 1/2 = central charge


def test_loop_mu_is_product():
    R = ring("x1^3*x2 + x2^3*x1")
    assert R.mu == 9
    assert R.top == (2, 2)
    R2 = ring("x1^2*x2 + x2^3*x3 + x3^2*x1")
    assert R2.mu == 12


def test_tensor_law():
    A = ring("x1^3")
    B = ring("x1^2*x2 + x2^2*x1")
    AB = ring("x1^3 + x2^2*x3 + x3^2*x2")
    assert AB.mu == A.mu * B.mu
    products = {tuple(a) + tuple(b)
                for a in A.basis.monomials for b in B.basis.monomials}
    assert set(AB.basis.monomials) == products
    assert AB.top == A.top + B.top


def test_top_weight_is_central_charge():
    for text in RINGS:
        f = InvertiblePolynomial.from_string(text)
        R = JacobiRing(f)
        assert R.wt(R.top) == f.charge
        same = [m for m in R.basis.monomials if R.wt(m) == f.charge]
        assert same == [R.top]


def naive_basis(f):
    """Every summand's box of exponents below its own, minus
    `_chain_excluded` read in transposed-chain order for Fermat and chain
    summands, sorted by (degree, m) with the degree summed per monomial."""
    ranges = [None] * f.N
    for s in f.summands:
        for v, a in zip(s.variables, s.exponents):
            ranges[v] = range(a)
    box = [m for m in cartesian(*ranges)
           if not any(s.kind != "loop" and _chain_excluded(m, s.variables[::-1], s.exponents[::-1])
                      for s in f.summands)]
    return tuple(sorted(box, key=lambda m: (f.degree(m), m)))


BASIS_ORDER_SUMS = [
    "x2^3*x4 + x4^3 + x1^4 + x3^2*x5 + x5^3*x3",   # chain ⊕ Fermat ⊕ loop
    "x3^2*x1 + x1^3*x2 + x2^4 + x4^5",              # length-3 chain ⊕ Fermat
    "x4^2*x2 + x2^3*x4 + x1^3*x5 + x5^2*x3 + x3^3",  # loop ⊕ length-3 chain
]


def test_basis_order_is_the_naive_sort():
    """The stepped box walk lists the basis in the order of the naive sort
    by (degree, m): every criterion 1–3 atomic and its transpose with
    μ ≤ 300, direct sums on shuffled variables and their transposes, and
    loop(10³)ᵗ."""
    polys = [g for f in criteria_atomics() for g in (f, f.transpose()) if JacobiRing(g).mu <= 300]
    for text in BASIS_ORDER_SUMS:
        f = InvertiblePolynomial.from_string(text)
        polys += [f, f.transpose()]
    polys.append(InvertiblePolynomial.from_string("x1^10*x2 + x2^10*x3 + x3^10*x1").transpose())
    assert len(polys) > 1000
    for f in polys:
        R = JacobiRing(f)
        assert R.basis.monomials == naive_basis(f), f.to_string()
        assert len(R.basis.monomials) == R.mu


def _above_the_socle(c0, c, top):
    """A box entry (value, m) for m = x1·top, above the socle."""
    m = (top[0] + 1,) + top[1:]
    return c0 + weighted_degree(c, m), m


@pytest.mark.parametrize("corrupt", [
    lambda listing, c0, c, top: listing[1:],
    lambda listing, c0, c, top: listing + [_above_the_socle(c0, c, top)],
    lambda listing, c0, c, top: listing[:-1] + [_above_the_socle(c0, c, top)],
    lambda listing, c0, c, top: listing[1:] + [listing[-1]],
], ids=["drops one", "adds one above the socle", "one above the socle in place of the top",
        "the top twice"])
def test_basis_refuses_a_wrong_listing(monkeypatch, corrupt):
    """The listing `reduce`'s grading shortcut rests on is checked: μ
    monomials, the top last and alone in the socle degree."""
    R = ring("x1^3*x2 + x2^3*x1")
    monkeypatch.setattr(jacobi, "summand_box", lambda s, n, c0, c, modulus=None: corrupt(
        list(summand_box(s, n, c0, c, modulus)), c0, c, R.top))
    with pytest.raises(RuntimeError, match="basis listing"):
        R.basis


def test_ring_of_is_shared_and_matches_ring():
    f = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    assert ring_of(f) is ring_of(f)
    assert ring_of(f).basis == JacobiRing(f).basis


def test_ring_holds_no_reference_to_its_polynomial():
    """The ring `ring_of` keeps on f holds D and Dq, not f, so f and its
    ring form no reference cycle and f is freed as soon as it is dropped."""
    f = InvertiblePolynomial.from_string("x1^3*x2 + x2^4 + x3^3")
    for R in (ring_of(f), JacobiRing(f)):
        R.gram()  # fills the cached basis too
        assert [name for name, value in vars(R).items() if value is f] == []
        assert (R.D, R.Dq) == (f.D, f.Dq)


@pytest.mark.parametrize("c", [
    (2, 2), (2, 3), (4, 2), (2, 2, 2), (2, 2, 3), (3, 2, 4),
    (2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 4, 2), (2, 2, 2, 2, 2),
])
def test_chain_mu_alternating_sum(c):
    # μ of y1^c1 + y1·y2^c2 + … equals Σ_j (−1)^j c_1⋯c_{n−j}
    n = len(c)
    terms = ["x1^%d" % c[0]] + [
        "x%d*x%d^%d" % (i, i + 1, c[i]) for i in range(1, n)]
    R = ring(" + ".join(terms))
    expect = 0
    prod = 1
    partial = [1]
    for ci in c:
        prod *= ci
        partial.append(prod)
    for j in range(n + 1):
        expect += (-1) ** j * partial[n - j]
    assert R.mu == expect


def test_sub_boxes_list_each_basis_monomial_once():
    """`summand_box` steps a chain's disjoint sub-boxes with no
    exclusion test: on every Fermat and chain with N ≤ 4 and exponents 2–5,
    it lists each box monomial that passes `in_basis` once and nothing
    else, μ in all, each with its value on the affine row."""
    shapes = [("fermat", (a,)) for a in range(2, 6)]
    shapes += [("chain", a) for n in (2, 3, 4) for a in cartesian(range(2, 6), repeat=n)]
    assert len(shapes) == 340
    for kind, a in shapes:
        f = from_dense(
            reassemble([AtomicSummand(kind, a, tuple(range(len(a))))], len(a)))
        R = JacobiRing(f)
        part = R._parts[0]
        listed = list(summand_box(part.summand, f.N, 1, f.Dq, 7))
        assert all(x == (1 + weighted_degree(f.Dq, m)) % 7 for x, m in listed), a
        box = [m for m in cartesian(*map(range, a)) if part.in_basis(m)]
        assert sorted(m for _, m in listed) == box, a
        assert len(listed) == R.mu, a


# ---------------------------------------------------------------------------
# reduction

def test_reduce_known_values():
    assert ring("x1^4").reduce((3,)).is_zero()
    assert ring("x1^2 + x1*x2^2").reduce((2, 0)).is_zero()
    R = ring("x1^2*x2 + x2^2*x1")
    red = R.monomial_of(R.reduce((0, 2)))
    assert red == {(1, 1): F(-2)}


def test_reduce_idempotent_on_basis():
    for text in RINGS:
        R = ring(text)
        for m in R.basis.monomials:
            assert R.monomial_of(R.reduce(m)) == {m: F(1)}


def test_summand_reduce_fixes_its_basis():
    """A summand ring's walk settles each of its own basis monomials on
    itself with coefficient 1, with no shortcut for basis monomials."""
    for text in RINGS:
        R = ring(text)
        for part in R._parts:
            for m in R.basis.monomials:
                if part.in_basis(m):
                    assert part.reduce(m) == (m, 1, 1), f"{text}: {m}"


def test_reduce_preserves_weight():
    for text in RINGS:
        R = ring(text)
        for m in R.basis.monomials:
            probe = tuple(e + 1 for e in m)
            w = R.wt(probe)
            for m2, _ in R.monomial_of(R.reduce(probe)).items():
                assert R.wt(m2) == w


def test_reduce_is_one_term_or_zero():
    """Every relation is a monomial or a binomial, so a monomial reduces to
    one basis term or to 0."""
    for text in RINGS:
        R = ring(text)
        for m in R.basis.monomials:
            for probe in (tuple(e + 1 for e in m), tuple(e + 2 for e in m)):
                assert len(R.reduce(probe).coeffs) <= 1


def test_walk_refuses_a_basis_with_an_excluded_chain_monomial():
    # Jac(x1^2 + x1*x2^2): x1*x2 = 0 and x2^3 ≡ −2·x1*x2.  With the excluded
    # x1*x2 posing as a basis monomial, the walk from x2^3 reaches a basis
    # monomial and a zero, in the summand's walk and in `divide` alike.
    # x2^3 has degree 3/4, above the socle's 1/2, so `JacobiRing.reduce`
    # answers it zero by grading and does not walk.
    R = ring("x1^2 + x1*x2^2")
    part = R._parts[0]
    assert part.variables == (0, 1) and not part.in_basis((1, 1))
    assert R.reduce((0, 3)).is_zero()
    assert R.divide({(0, 3): (1, 1)})[0] == {}
    R = ring("x1^2 + x1*x2^2")
    part = R._parts[0]
    part.in_basis = lambda r, test=part.in_basis: test(r) or r == (1, 1)
    with pytest.raises(RuntimeError, match="and a zero"):
        part.reduce((0, 3))
    with pytest.raises(RuntimeError, match="and a zero"):
        R.divide({(0, 3): (1, 1)})


@pytest.mark.parametrize("text", ["x1^3*x2 + x2^3*x1",
                                  "x1^2 + x1*x2^2 + x2*x3^3"])
def test_walk_refuses_a_basis_missing_a_monomial(text):
    """A basis monomial taken out of the basis is nonzero in Jac but reaches
    no basis monomial: its walk raises instead of returning 0, in `reduce`
    and in `divide` alike."""
    for b in ring(text).basis.monomials:
        R = ring(text)
        part, gone = R._parts[0], b
        part.in_basis = lambda r, test=part.in_basis: test(r) and r != gone
        with pytest.raises(RuntimeError):
            R.reduce(b)
        with pytest.raises(RuntimeError):
            R.divide({b: (1, 1)})


class TwoWayWalk(_SummandRing):
    """The summand ring on the reference walk, which takes every move that
    applies, the reverse of the move that reached a node included, and
    checks that it closes on the parent's value.  `_SummandRing._walk` skips
    only that reverse; on every input it must give the same `reduce` and
    `divide`, and raise the same errors."""

    def _walk(self, m):
        node = {m: (1, 1, None, -1)}
        queue = [m]
        reached = []
        zero = False
        settled = None
        for u in queue:
            num, den, _, _ = node[u]
            applies = self.in_basis(u)
            if applies:
                reached.append(u)
                settled = settled or (u, [(node[u][2], 1, 1)])
            for (i, e, j, g), p, v, a in self.zeros:
                if u[i] >= e and u[j] >= g:
                    zero = applies = True
                    settled = settled or (None, [((u, v, p, a), 1, 1)])
            for (i, e, j, g), p, d, nb, a, v, _ in self.moves:
                if u[i] >= e and u[j] >= g:
                    applies = True
                    w = tuple(x + y for x, y in zip(u, d))
                    y, z = num * nb, den * a
                    if w not in node:
                        node[w] = y, z, (u, v, p, a), -1
                        queue.append(w)
                    elif node[w][0] * z != y * node[w][1]:
                        zero = True
                        if not settled:
                            ae, cb = node[w][0] * z, y * node[w][1]
                            settled = None, [(node[w][2], -cb, ae - cb),
                                             ((u, v, p, a), ae, ae - cb)]
            if not applies:
                raise RuntimeError(f"no relation applies to non-basis monomial {u}")
        if len(reached) > 1:
            raise RuntimeError(f"{m} reaches basis monomials {reached}")
        if reached and zero:
            raise RuntimeError(f"{m} reaches basis monomial {reached[0]} and a zero")
        if not settled:
            raise RuntimeError(f"the walk from {m} determines nothing")
        return node, *settled


def walk_outcome(part, m):
    """The walk from m on one summand ring, its nodes in walk order with
    their values and edges, with ``reduce`` and ``divide`` of m; or the
    error the walk raised."""
    try:
        node, b, legs = part._walk(m)
        return [(u, x[:3]) for u, x in node.items()], b, legs, part.reduce(m), part.divide(m)
    except RuntimeError as exc:
        return str(exc)


def walk_probes(f, steps=6):
    """Monomials at evenly spaced degrees up to twice the socle's, each with
    one exponent raised by one besides."""
    top = top_of(f)
    for k in range(1, steps + 1):
        ray = tuple(2 * k * e // steps for e in top)
        yield ray
        yield tuple(e + (i == k % f.N) for i, e in enumerate(ray))


def walks_agree(f, partials):
    """The outcomes of every probe of f on its summand rings built from
    ``partials``, after checking that the one-way and the two-way walk
    agree on each."""
    outcomes = []
    for s in f.summands:
        one_way, two_way = _SummandRing(s, partials), TwoWayWalk(s, partials)
        for m in walk_probes(f):
            outcomes.append(walk_outcome(one_way, m))
            assert outcomes[-1] == walk_outcome(two_way, m), f"{f.to_string()}: {m}"
    return outcomes


def test_the_walk_skips_only_its_tree_edges_echo():
    """On the criteria rings and their transposes, N ≤ 3 or every aᵢ ≤ 3,
    the one-way walk reaches the two-way walk's nodes in the same order,
    with the same values and edges, and gives its normal forms and
    certificates."""
    probes = 0
    for W in criteria_atomics():
        if W.N <= 3 or max(W.summands[0].exponents) <= 3:
            for f in (W, W.transpose()):
                outcomes = walks_agree(f, _partials(f))
                assert not any(isinstance(x, str) for x in outcomes)
                probes += len(outcomes)
    assert probes == 4_104


def test_the_walk_skips_only_its_tree_edges_echo_on_corrupted_relations():
    """Loop transposes with one relation coefficient doubled, in turn: the
    relations no longer have the ring's normal forms, and the one-way walk
    still gives the two-way walk's nodes, normal forms and certificates on
    every probe."""
    probes = changed = 0
    for W in criteria_atomics():
        if W.summands[0].kind != "loop" or W.N > 3:
            continue
        f = W.transpose()
        partials = _partials(f)
        true = walks_agree(f, partials)
        for v, rel in enumerate(partials):
            for mono in rel:
                bad = [dict(r) for r in partials]
                bad[v][mono] *= 2
                outcomes = walks_agree(f, bad)
                probes += len(outcomes)
                changed += sum(map(operator.ne, outcomes, true))
    assert probes == 448 * 12
    assert changed > 1000


def kept_value(answer):
    """A summand's answer (b, num, den) as (b, num/den), after checking den > 0."""
    if answer is None:
        return None
    assert answer[2] > 0, answer
    return answer[0], F(answer[1], answer[2])


def memo_outcome(make, probes):
    """`reduce` of ``probes`` on the summand ring make() builds: a walk that
    raises must leave the memo as it was, and every answer kept must be the
    one a fresh ring's walk from that monomial gives.  Returns the counts
    of walks, of walks that raised and of answers kept."""
    part = make()
    walked = raised = 0
    for m in probes:
        before = dict(part._cache)
        walked += m not in before
        try:
            part.reduce(m)
        except RuntimeError:
            raised += 1
            assert part._cache == before, m
    for u, answer in part._cache.items():
        assert kept_value(answer) == kept_value(make().reduce(u)), u
    return walked, raised, len(part._cache)


@pytest.mark.parametrize("text", [
    "x1^5",
    "x1^3*x2 + x2^4",
    "x1^2*x2 + x2^3*x3 + x3^2*x1",
    "x1^2 + x1*x2^2 + x3^3*x4 + x4^3*x3",
])
def test_one_walk_answers_its_whole_component(text):
    """A summand's `reduce` keeps an answer for every monomial its walk
    covers: after the probes of a Fermat, a chain, a loop and a direct sum,
    each kept answer is what a fresh ring's walk from that monomial gives,
    and the memo holds more monomials than were walked from, but on a
    Fermat, whose components are single monomials."""
    f = InvertiblePolynomial.from_string(text)
    for k, s in enumerate(f.summands):
        walked, raised, kept = memo_outcome(lambda: JacobiRing(f)._parts[k], walk_probes(f))
        assert raised == 0 and walked > 0, f"{text}: summand {k}"
        assert kept > walked or s.kind == "fermat" and kept == walked, f"{text}: summand {k}"


def test_a_raising_walk_keeps_nothing():
    """The memo on corrupted rings.  With the corrupted relations of the
    walk tests, loop transposes with one relation coefficient doubled in
    turn, no probe's walk raises, and every kept answer is a fresh walk's.
    With a basis monomial taken out of the basis, the walks that reach it
    raise and leave the memo as it was."""
    for W in criteria_atomics():
        if W.summands[0].kind != "loop" or W.N > 3:
            continue
        f = W.transpose()
        partials = _partials(f)
        for v, rel in enumerate(partials):
            for mono in rel:
                bad = [dict(r) for r in partials]
                bad[v][mono] *= 2
                outcome = memo_outcome(lambda: _SummandRing(f.summands[0], bad), walk_probes(f))
                assert outcome[1] == 0, f"{f.to_string()}: {v}, {mono}"
    raised = 0
    for text in ["x1^3*x2 + x2^3*x1", "x1^2 + x1*x2^2 + x2*x3^3"]:
        f = InvertiblePolynomial.from_string(text)
        monos = ring(text).basis.monomials
        for gone in monos:
            def make():
                part = ring(text)._parts[0]
                part.in_basis = lambda r, test=part.in_basis: test(r) and r != gone
                return part
            raised += memo_outcome(make, [*walk_probes(f), *monos])[1]
    assert raised > 0


def test_reduce_walks_nothing_above_the_socle(monkeypatch):
    """Jac(f) is zero above the socle degree, and `reduce` answers so by
    grading: on every ring, no probe above the socle reaches a summand's
    walk, and every probe at or below it outside the basis still does."""
    def refuse(self, m):
        raise LookupError(m)
    monkeypatch.setattr(_SummandRing, "_walk", refuse)
    walked = 0
    for text in RINGS:
        f = InvertiblePolynomial.from_string(text)
        R = JacobiRing(f)
        for m in walk_probes(f):
            if f.degree(m) > R.socle:
                assert R.reduce(m).is_zero(), f"{text}: {m}"
            elif not R.in_basis(m):
                with pytest.raises(LookupError):
                    R.reduce(m)
                walked += 1
    assert walked > 0


@pytest.mark.parametrize("text", RINGS)
def test_walk_and_grading_agree_above_the_socle(text, monkeypatch):
    """Above the socle, `divide` still walks each summand until one settles
    the monomial as zero, with a certificate, while `reduce` answers zero by
    grading: the walk and the grading check each other."""
    f = InvertiblePolynomial.from_string(text)
    R = JacobiRing(f)
    walks = []
    walk = _SummandRing._walk

    def recorded(self, m):
        walks.append((self, walk(self, m)))
        return walks[-1][1]
    monkeypatch.setattr(_SummandRing, "_walk", recorded)
    above = [m for m in walk_probes(f) if f.degree(m) > R.socle]
    assert above
    for m in above:
        walks.clear()
        nf, quot = R.divide({m: (1, 1)})
        assert nf == {}, f"{text}: {m}"
        assert [part for part, _ in walks] == R._parts[:len(walks)]
        assert walks[-1][1][1] is None
        assert_certificate(f, R, {m: (1, 1)}, nf, quot)
        assert R.reduce(m).is_zero()


# ---------------------------------------------------------------------------
# oracle equivalence: the binomial walk against blind Gaussian elimination

def oracle_nf(oracle, poly):
    """Extend the oracle's normal form linearly to a polynomial dict."""
    acc = {}
    for m, c in poly.items():
        for m2, c2 in oracle.normal_form(m).items():
            acc[m2] = acc.get(m2, F(0)) + c * c2
    return {m: c for m, c in acc.items() if c != 0}


TRANSPOSES = [t for t in dict.fromkeys(
    InvertiblePolynomial.from_string(text).transpose().to_string() for text in RINGS)
    if t not in RINGS]


@pytest.mark.parametrize("text", RINGS + TRANSPOSES)
def test_oracle_dimension_and_normal_forms(text):
    f = InvertiblePolynomial.from_string(text)
    R = JacobiRing(f)
    bound = f.charge + 1
    oracle = OracleQuotient(f, bound)
    # closed-form μ, the listed basis and the blind quotient agree
    assert oracle.dimension == R.mu == len(R.basis.monomials)
    # the standard basis must be independent in the oracle's quotient
    sp = linalg.RowSpace()
    oidx = {m: i for i, m in enumerate(oracle.basis)}
    for m in R.basis.monomials:
        vec = {oidx[m2]: c for m2, c in oracle.normal_form(m).items()}
        assert sp.add(vec), f"{text}: {m} dependent"
    # and every monomial must reduce, through the binomial walk, to
    # something the oracle agrees equals the original modulo the ideal
    caps = [int(bound / q) + 1 for q in f.q]
    for m in cartesian(*(range(c + 1) for c in caps)):
        if R.wt(m) > bound:
            continue
        mine = R.monomial_of(R.reduce(m))
        assert oracle_nf(oracle, mine) == oracle.normal_form(m), f"{text}: {m}"


def test_oracle_bound_too_small():
    W = InvertiblePolynomial.from_string("x1^3*x2 + x2^4")
    with pytest.raises(ValueError):
        OracleQuotient(W, W.charge - F(1, 2))


# ---------------------------------------------------------------------------
# ring structure

def basis_elements(R):
    return [RingElement(((i, F(1)),)) for i in range(R.mu)]


def test_unit_and_top_pairing():
    for text in RINGS:
        R = ring(text)
        top = R.reduce(R.top)
        one = R.reduce((0,) * R.n)
        assert residue_pairing(R, one, top) == 1
        assert R.monomial_of(R.multiply(one, top)) == {R.top: F(1)}


def test_fermat_pairing_antidiagonal():
    a = 6
    R = ring(f"x1^{a}")
    for r in range(a - 1):
        x_r = R.reduce((r,))
        x_dual = R.reduce((a - 2 - r,))
        assert residue_pairing(R, x_r, x_dual) == 1


def test_multiply_commutative_associative_small():
    for text in RINGS:
        R = ring(text)
        if R.mu > 30:
            continue
        els = basis_elements(R)
        for a in els:
            for b in els:
                assert R.multiply(a, b) == R.multiply(b, a)
        for a, b, c in cartesian(els, els, els):
            assert R.multiply(R.multiply(a, b), c) == R.multiply(a, R.multiply(b, c))


def test_frobenius_property():
    for text in RINGS:
        R = ring(text)
        if R.mu > 30:
            continue
        els = basis_elements(R)
        for a, b, c in cartesian(els, els, els):
            assert residue_pairing(R, R.multiply(a, b), c) == \
                residue_pairing(R, a, R.multiply(b, c))


def test_gram_symmetric_nondegenerate():
    for text in RINGS + ["x1^2*x2 + x2^3*x1"]:
        R = ring(text)
        if R.mu > 30:
            continue
        g = R.gram()
        els = basis_elements(R)
        assert g == [[residue_pairing(R, a, b) for b in els] for a in els]
        assert g == [list(row) for row in zip(*g)]
        span = linalg.RowSpace()
        for row in g:
            span.add(dict(enumerate(row)))
        assert len(span.rows) == R.mu


# ---------------------------------------------------------------------------
# graded slices

@given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.integers(-3, 12), st.integers(-3, 12))
@example(w=[2, 3], lo=-2, hi=-1)
def test_graded_is_the_filtered_exponent_box(w, lo, hi):
    box = cartesian(*(range(max(hi, 0) // wi + 1) for wi in w))
    expected = [m for m in box if lo <= sum(mi * wi for mi, wi in zip(m, w)) <= hi]
    assert _graded(tuple(w), lo, hi) == expected


# ---------------------------------------------------------------------------
# division with certificate

def divide_chunks(R):
    """Dividends spanning several monomials and several degrees: pairs and
    triples of monomials near the socle, with mixed coefficients, as
    `divide` takes them."""
    near = [R.top, tuple(e + 1 for e in R.top)]
    near += [tuple(e + (i == v) for i, e in enumerate(R.top)) for v in range(R.n)]
    near += [tuple(e + 2 * (i == v) for i, e in enumerate(R.top)) for v in range(R.n)]
    near += [tuple(e + 1 for e in m) for m in R.basis.monomials[::max(1, R.mu // 4)]]
    chunks = []
    for k in range(len(near)):
        a, b, c = near[k], near[(k + 1) % len(near)], near[(k + 3) % len(near)]
        chunks.append({a: F(1)})
        chunks.append({a: F(2, 3), b: F(-5)})
        chunks.append({a: F(1), b: F(7, 2), c: F(-1, 3)})
    return [pairs(p) for p in chunks]


SUMS = ["x1^2*x2+x2^5 + x3^4", "x1^3 + x2^2*x3 + x3^3*x4 + x4^2*x2"]


def reached_block_is_unique(f, R, p):
    """Whether every degree block, in R = Jac(f), of p's slice system that p reaches has
    rank equal to its column count, so that its solution, and with it the
    quotients, are unique.  Columns are the reached basis monomials and the
    s·∂_j f touching a reached monomial, as {monomial: coefficient}."""
    partials = _partials(f)
    for deg in {f.degree(m) for m in p}:
        reached = {m for m in p if f.degree(m) == deg}
        stack = list(reached)
        cols = {}
        while stack:
            u = stack.pop()
            if R.in_basis(u):
                cols[u] = {u: F(1)}
            for j, rel in enumerate(partials):
                for m0 in rel:
                    if all(a <= b for a, b in zip(m0, u)):
                        s = tuple(a - b for a, b in zip(u, m0))
                        col = cols.setdefault((j, s), {})
                        for m1, c1 in rel.items():
                            v = tuple(a + b for a, b in zip(s, m1))
                            col[v] = c1
                            if v not in reached:
                                reached.add(v)
                                stack.append(v)
        span = linalg.RowSpace()
        if sum(span.add(col) for col in cols.values()) != len(cols):
            return False
    return True


@pytest.mark.parametrize("text", RINGS + SUMS)
def test_divide_matches_the_whole_slice_solve(text):
    """The walk's normal form is the slice solve's on every chunk, and so
    are its quotients wherever the reached block has no syzygy column;
    elsewhere the quotients are one valid certificate among several."""
    for f in (InvertiblePolynomial.from_string(text),
              InvertiblePolynomial.from_string(text).transpose()):
        R = JacobiRing(f)
        compared = 0
        for p in divide_chunks(R):
            nf, quot = R.divide(p)
            slice_nf, slice_quot = slice_divide(f, R, p)
            assert values(nf) == values(slice_nf) == R.monomial_of(R.reduce(values(p))), \
                f"{f.to_string()}: {p}"
            assert_certificate(f, R, p, nf, quot)
            if reached_block_is_unique(f, R, p):
                assert quotients(R, quot) == quotients(R, slice_quot), \
                    f"{f.to_string()}: {p}"
                compared += 1
        assert compared > 0, f.to_string()


def test_divide_solves_less_than_a_hundredth_of_the_slice(monkeypatch):
    """One monomial one degree above the socle of loop(5⁵)ᵗ: the walk visits
    a sliver of its 33,649-monomial degree slice."""
    f = InvertiblePolynomial.from_string(
        "x1^5*x2 + x2^5*x3 + x3^5*x4 + x4^5*x5 + x5^5*x1").transpose()
    R = JacobiRing(f)
    visited = []
    in_basis = _SummandRing.in_basis
    monkeypatch.setattr(_SummandRing, "in_basis",
                        lambda self, r: visited.append(r) or in_basis(self, r))
    probe = (R.top[0] + 1,) + R.top[1:]
    nf, quot = R.divide({probe: (1, 1)})
    deg = f.degree(probe)
    assert 0 < len(visited) < len(_graded(f.Dq, deg, deg)) / 100
    assert_certificate(f, R, {probe: (1, 1)}, nf, quot)


@pytest.mark.parametrize("text", RINGS)
def test_divide_certificate(text):
    f = InvertiblePolynomial.from_string(text)
    R = JacobiRing(f)
    probes = [R.top, tuple(e + 1 for e in R.basis.monomials[min(1, R.mu - 1)]),
              tuple(e + 2 for e in R.top)]
    for probe in probes:
        nf, quot = R.divide({probe: (1, 1)})
        assert values(nf) == R.monomial_of(R.reduce(probe))
        assert_certificate(f, R, {probe: (1, 1)}, nf, quot)


# loop(5⁴)ᵗ, loop(10³)ᵗ, chain(5,4,4,5)ᵗ and loop(5⁵)ᵗ: the rings whose walks
# run longest, so that the unreduced (num, den) pairs grow most
LONG_WALKS = ["x1^5*x2 + x2^5*x3 + x3^5*x4 + x4^5*x1",
              "x1^10*x2 + x2^10*x3 + x3^10*x1",
              "x1^5*x2 + x2^4*x3 + x3^4*x4 + x4^5",
              "x1^5*x2 + x2^5*x3 + x3^5*x4 + x4^5*x5 + x5^5*x1"]


@pytest.mark.parametrize("text", LONG_WALKS)
def test_reduce_and_divide_agree_on_long_walks(text):
    """Monomials at evenly spaced degrees up to twice the socle's: `reduce`
    and `divide` give one normal form, and the certificate holds.  Up to
    the socle both read one walk, its value and its path; above it
    `reduce` answers 0 by grading, and `divide` still walks."""
    f = InvertiblePolynomial.from_string(text).transpose()
    R = JacobiRing(f)
    steps = 12
    for k in range(1, steps + 1):
        ray = tuple(2 * k * e // steps for e in R.top)
        for m in (ray, tuple(e + (i == k % R.n) for i, e in enumerate(ray))):
            nf, quot = R.divide({m: (1, 1)})
            assert values(nf) == R.monomial_of(R.reduce(m)), f"{text}: {m}"
            assert_certificate(f, R, {m: (1, 1)}, nf, quot)
