"""The B-model machinery underneath the verifier, on one loop example.

For f = x1^3*x2 + x2^3*x1 (its own transpose up to relabeling) this
script shows the three layers the Saito-Givental side is built from:

* the Jacobi ring with its standard monomial basis and residue pairing,
* the good-basis certificate: every pair of basis monomials whose
  exponent sum admits an integral pairing solution falls into the known
  families and pairs exactly at the central charge,
* the perturbative primitive form: zeta stays [d^2x] through order 1,
  flat coordinates match the deformation parameters to first order, and
  the first honest correction appears at the top weight.

Run:  python3 demos/lattice_and_basis.py
"""

from lgmirror.bmodel import good_basis_check, perturbative_expand
from lgmirror.jacobi import JacobiRing
from lgmirror.poly import InvertiblePolynomial, format_monomial

f = InvertiblePolynomial.from_string("x1^3*x2 + x2^3*x1")
ring = JacobiRing(f)

print(f"f = {f.to_string()}   mu = {ring.mu}   top = {format_monomial(ring.top)}")
print("standard basis:", ", ".join(format_monomial(m) for m in ring.basis.monomials))
print()

report = good_basis_check(f)
print(
    f"good-basis check: {report.checked_pairs} pairs, "
    f"{report.excluded_pairs} excluded by non-integral pairing solutions,"
)
print(f"families seen: {sorted(report.families_seen)}")
for cls in report.classes:
    print(
        f"  exponent sum {format_monomial(cls.exponent_sum):>10}: "
        f"{cls.pair_count} pair(s), k = {cls.k}, "
        f"degree at charge: {cls.degree_ok}"
    )
assert report.passed
print()

state = perturbative_expand(f, 2)
print("perturbative primitive form through order 2:")
linear = [sm for sm in state.zeta if 1 <= len(sm) <= 1]
print(f"  zeta corrections at order <= 1: {linear} (none)")
assert not linear
quadratic = [sm for sm in state.zeta if len(sm) == 2]
top_index = ring.basis.index[ring.top]
print(
    "  first zeta correction appears at s-monomial "
    f"{quadratic} = (top, top) only"
)
assert quadratic == [(top_index, top_index)]
flat_ok = all(
    {sm: c for sm, c in state.flat_coordinate(a).items() if len(sm) == 1}
    == {(a,): 1}
    for a in range(ring.mu)
)
print(f"  t_alpha = s_alpha + O(s^2) for all {ring.mu} directions: {flat_ok}")
assert flat_ok
