"""Independent expectations the benchmark checks lgmirror's outputs against.

Nothing in this module imports lgmirror.  The weights come from a fresh
exact Gaussian elimination of E·q = (1, …, 1)ᵗ, the Milnor number from the
Milnor–Orlik formula μ = ∏(1/qᵢ − 1), and the verdict that
`lgmirror verify` must reach from the atomic shapes the generator used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Summand:
    """One atomic piece as the generator built it.

    ``variables`` are 0-based ambient indices in chain/loop order, so the
    monomials are x_{v1}^{a1}·x_{v2} + x_{v2}^{a2}·x_{v3} + …; a chain ends
    in the pure power x_{vN}^{aN}, a loop's last monomial points back to v1.
    """

    kind: str  # "fermat" | "chain" | "loop"
    exponents: tuple[int, ...]
    variables: tuple[int, ...]

    def monomials(self) -> list[dict[int, int]]:
        n = len(self.variables)
        out = []
        for p, (v, a) in enumerate(zip(self.variables, self.exponents)):
            mono = {v: a}
            if self.kind == "chain" and p + 1 < n:
                mono[self.variables[p + 1]] = 1
            elif self.kind == "loop":
                mono[self.variables[(p + 1) % n]] = 1
            out.append(mono)
        return out


def render(monomials: list[dict[int, int]]) -> str:
    """'x1^3*x2 + x2^4' from monomials given as {0-based variable: exponent}."""
    terms = []
    for mono in monomials:
        terms.append("*".join(
            f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in mono.items()))
    return " + ".join(terms)


def exponent_matrix(monomials: list[dict[int, int]], n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(mono.get(j, 0) for j in range(n)) for mono in monomials)


def solve_weights(E) -> list[Fraction]:
    """The exact solution q of E·q = (1, …, 1)ᵗ by Gauss–Jordan elimination."""
    n = len(E)
    aug = [[Fraction(v) for v in row] + [Fraction(1)] for row in E]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            raise ValueError("singular exponent matrix")
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [v / pivot for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def milnor_number(q) -> int:
    """μ = ∏(1/qᵢ − 1) for an isolated quasihomogeneous singularity."""
    mu = Fraction(1)
    for qi in q:
        mu *= 1 / Fraction(qi) - 1
    if mu.denominator != 1:
        raise ValueError(f"Milnor–Orlik product {mu} is not an integer")
    return int(mu)


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def loop_method(local: tuple[int, ...]) -> str:
    """A-side route for a loop rotated so that the target's exponent is last."""
    if len(local) == 2 and local == (2, 2):
        return "wdvv1"
    if len(local) == 2 and local[-1] == 2:
        return "wdvv2"
    if local[-1] == 2:
        return "guere"
    return "concave"


@dataclass(frozen=True)
class Verdict:
    """What `lgmirror verify --json` must report for one polynomial."""

    exit_code: int
    q: tuple[Fraction, ...]
    methods: dict  # 1-based variable -> A-side method, for verified variables
    skipped: tuple[int, ...]


def expected_verdict(summands: list[Summand], E) -> Verdict:
    """Verdict from the generator's shapes and an independent solve for q.

    A chain ending in a square has a weight-1/2 tail, which the theorem
    excludes for the whole polynomial: every variable is skipped.  Otherwise
    a Fermat variable is verified when its exponent is at least 3, a chain
    only at its final variable, and every loop variable by the route
    `loop_method` names.  Any weight-1/2 variable makes the exit code 3.
    """
    q = tuple(solve_weights(E))
    methods: dict[int, str] = {}
    if not any(s.kind == "chain" and s.exponents[-1] == 2 for s in summands):
        for s in summands:
            if s.kind == "fermat":
                if s.exponents[0] >= 3:
                    methods[s.variables[0] + 1] = "concave"
            elif s.kind == "chain":
                methods[s.variables[-1] + 1] = "concave"
            else:
                for p, v in enumerate(s.variables):
                    local = s.exponents[p + 1:] + s.exponents[:p + 1]
                    methods[v + 1] = loop_method(local)
    skipped = tuple(i for i in range(1, len(q) + 1) if i not in methods)
    exit_code = 3 if HALF in q else 0
    return Verdict(exit_code, q, methods, skipped)


def verify_problems(verdict: Verdict, exit_code: int, doc) -> list[str]:
    """Every way a `verify --json` document and exit code miss the verdict."""
    problems = []
    if exit_code != verdict.exit_code:
        problems.append(f"exit code {exit_code}, expected {verdict.exit_code}")
    if not isinstance(doc, dict):
        return problems + ["no JSON report"]
    got = {v.get("i"): v for v in doc.get("variables", [])}
    if set(got) != set(verdict.methods):
        problems.append(f"verified {sorted(got)}, expected {sorted(verdict.methods)}")
    for i, method in verdict.methods.items():
        v = got.get(i)
        if v is None:
            continue
        q = verdict.q[i - 1]
        want = {"q_i": frac(q), "A_value": frac(q), "B_value": frac(-q),
                "method_A": method, "matched": True}
        for key, value in want.items():
            if v.get(key) != value:
                problems.append(f"x{i} {key} = {v.get(key)!r}, expected {value!r}")
    skipped = {s.get("i"): s for s in doc.get("skipped", [])}
    if sorted(skipped) != list(verdict.skipped):
        problems.append(f"skipped {sorted(skipped)}, expected {list(verdict.skipped)}")
    for i, s in skipped.items():
        if isinstance(i, int) and 1 <= i <= len(verdict.q) and s.get("q_i") != frac(verdict.q[i - 1]):
            problems.append(f"skipped x{i} q_i = {s.get('q_i')!r}")
    overall = "pass" if verdict.exit_code == 0 else "fail"
    if doc.get("overall") != overall:
        problems.append(f"overall {doc.get('overall')!r}, expected {overall!r}")
    if doc.get("hypothesis_violation") != (verdict.exit_code == 3):
        problems.append("hypothesis_violation flag wrong")
    return problems
