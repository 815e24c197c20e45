"""The independent reference, the generators and the checked runner."""

import random
from dataclasses import replace
from fractions import Fraction

import lgmirror
import lgmirror.cli  # noqa: F401

from reference import Summand, expected_verdict, exponent_matrix, milnor_number, solve_weights
from workloads import WORKLOADS, atomic, lattice_item, run_items, verify_item

F = Fraction


def verdict_of(*summands):
    n = sum(len(s.variables) for s in summands)
    E = exponent_matrix([m for s in summands for m in s.monomials()], n)
    return expected_verdict(list(summands), E)


def test_weights_and_milnor_number():
    chain = atomic("chain", (3, 4))            # x1^3*x2 + x2^4
    E = exponent_matrix(chain.monomials(), 2)
    assert solve_weights(E) == [F(1, 4), F(1, 4)]
    assert milnor_number(solve_weights(E)) == 9
    ET = tuple(zip(*E))                        # x1^3 + x1*x2^4
    assert milnor_number(solve_weights(ET)) == 10
    loop = atomic("loop", (2, 3, 4))
    assert milnor_number(solve_weights(exponent_matrix(loop.monomials(), 3))) == 24


def test_expected_routes_skips_and_exit_codes():
    v = verdict_of(atomic("loop", (2, 2)))
    assert v.methods == {1: "wdvv1", 2: "wdvv1"} and v.exit_code == 0
    v = verdict_of(atomic("loop", (3, 2)))      # x2 carries the square
    assert v.methods == {1: "concave", 2: "wdvv2"}
    v = verdict_of(atomic("loop", (3, 4, 2)))
    assert v.methods[3] == "guere"
    v = verdict_of(atomic("chain", (2, 3, 4)))
    assert v.methods == {3: "concave"} and v.skipped == (1, 2)
    v = verdict_of(atomic("chain", (3, 2)))     # weight-1/2 tail: all skipped
    assert v.methods == {} and v.exit_code == 3
    v = verdict_of(Summand("fermat", (3,), (1,)), Summand("fermat", (2,), (0,)))
    assert v.methods == {2: "concave"} and v.skipped == (1,) and v.exit_code == 3


def test_a_wrong_expected_q_fails_the_item():
    good = verify_item("loop(2,3)", [atomic("loop", (2, 3))])
    q = list(good.verdict.q)
    q[0] += F(1, 1000)
    bad = replace(good, verdict=replace(good.verdict, q=tuple(q)))
    ok = run_items(lgmirror, [good])
    result = run_items(lgmirror, [good, bad])
    assert ok.failed == 0
    assert result.failed == 1 and result.attempted == 2
    assert result.failed / result.attempted > 0
    assert all(k == 1 for k, _ in result.failures)


def test_a_wrong_expected_method_or_exit_code_fails_the_item():
    good = verify_item("chain(3,2)", [atomic("chain", (3, 2))])
    bad = replace(good, verdict=replace(good.verdict, exit_code=0))
    assert run_items(lgmirror, [good]).failed == 0
    assert run_items(lgmirror, [bad]).failed == 1


def test_lattice_item_checks_pass_and_digest_is_stable():
    rng = random.Random(0)
    items = [lattice_item("loop", (2, 3), rng), lattice_item("chain", (2, 3, 3), rng)]
    assert items[0].series
    first, second = run_items(lgmirror, items), run_items(lgmirror, items)
    assert first.failures == [] and first.attempted == 2
    assert first.digest.hexdigest() == second.digest.hexdigest()


def test_generators_are_seeded_and_distinct():
    for name, make in WORKLOADS.items():
        a, b = make(5, 2), make(5, 2)
        assert [i.text for i in a] == [i.text for i in b]
        texts = [i.text for i in a]
        assert len(set(texts)) == len(texts), name
    assert [i.text for i in WORKLOADS["sweep"](5, 2)] != [i.text for i in WORKLOADS["sweep"](6, 2)]
    assert [i.text for i in WORKLOADS["ladder"](5, 2)] == [i.text for i in WORKLOADS["ladder"](6, 2)]
