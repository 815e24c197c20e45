"""Rebuild four-point correlators from associativity alone.

Two reconstructions run here, both over exact rationals:

1. For the loop x1^a*x2 + x2^2*x1 the concave formula does not apply to
   the final variable, but three WDVV steps walk from the one correlator
   the formula does give (value q1) to the exceptional one, landing on
   (a-1)*q1 = q2 exactly.

2. For a sum of Fermat summands the single generator <x, x, x^(a-2), top>
   per variable determines every remaining final-type correlator in one
   associativity step each.

Run:  python3 demos/reconstruction_chain.py
"""

from lgmirror import admissible_target, four_point_report, sg_four_point
from lgmirror.poly import InvertiblePolynomial
from lgmirror.wdvv import fermat_closure, loop_square_chain

a = 5
W = InvertiblePolynomial.from_string(f"x1^{a}*x2 + x2^2*x1")
print(f"W = {W.to_string()}   q = ({W.q[0]}, {W.q[1]})")
print()

table, chain = loop_square_chain(W)
for step, ident in enumerate(chain, start=1):
    print(f"step {step}:  {ident.render()}")
    v = ident.values
    print(f"         {v[0]} = {v[1]} + {v[2]} - {v[3]}")
    print(f"         solves {table.describe_key(ident.solved)} = {ident.solved_value}")
    print()

final = chain[-1].solved_value
x2 = admissible_target(W, 2)
print(f"chain result    X = {final}")
print(f"direct A side     = {four_point_report(x2).value}")
print(f"direct B side     = {sg_four_point(x2)}  (the mirror sign)")
assert final == four_point_report(x2).value == -sg_four_point(x2) == W.q[1]
print()

print("-" * 60)
W2 = InvertiblePolynomial.from_string("x1^4 + x2^5")
print(f"W = {W2.to_string()}: closing the correlator table from the generators")
table2, chain2 = fermat_closure(W2)
for ident in chain2:
    print(f"  {ident.render()}")
    print(f"    -> {table2.describe_key(ident.solved)} = {ident.solved_value}")
print()
print("full table:")
for key, value in sorted(table2.values.items()):
    print(f"  {table2.describe_key(key)} = {value}")
