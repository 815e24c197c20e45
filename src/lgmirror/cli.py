"""Command-line front end and the end-to-end mirror verifier.

``lgmirror verify`` computes, for every variable the reconstruction
theorem covers, the four-point invariant <psi(x_i), psi(x_i),
psi(M_i/x_i^2), psi(top)> on the A side and the corresponding
Saito-Givental correlator on the B side, and checks

    A_i = q_i    and    B_i = -q_i

exactly.  The other subcommands are thin wrappers over the library:
``classify`` (atomic summands), ``mirror`` (the degree-preserving map on
the standard basis), ``jacobi`` (basis, Gram matrix, products),
``axioms`` (selection-rule bookkeeping for a correlator candidate),
``correlator`` (a single A- or B-side value) and ``wdvv`` (associativity
reconstruction chains).

Exit codes: 0 full pass, 1 mirror-identity mismatch, 2 parse/usage
error, 3 theorem-hypothesis violation (weight-1/2 variables), reported
with a skip list.  All rationals are serialized as "p/q" strings, never
decimals.  ``--trace`` adds boundary decorations on the A side and
Brieskorn-lattice reduction steps on the B side.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .amodel import FourPointResult, admissible_target, four_point_report
from .bmodel import LatticeElement, brieskorn_reduce, sg_four_point
from .errors import (
    InconsistentInput,
    UnderdeterminedSystem,
    UnsupportedByTheorem,
    WrongConfiguration,
)
from .groups import GroupCapExceeded, enumerate_group, sector_kind
from .jacobi import ring_of
from .mirror import degree_check, final_type_insertions, psi
from .poly import InvertiblePolynomial, NotInvertibleShape, PolynomialSyntaxError
from .selection import CorrelatorSpec, classify_type, passes_axioms
from .wdvv import fermat_closure, format_monomial, loop_square_chain

Monomial = tuple[int, ...]

_PARSE_ERRORS = (
    PolynomialSyntaxError,
    NotInvertibleShape,
    WrongConfiguration,
    InconsistentInput,
    UnderdeterminedSystem,
    GroupCapExceeded,
)


def frac(x) -> str:
    """The one serialization of a rational: 'p/q', never a decimal."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _pretty(x: Fraction) -> str:
    """Human-readable rational: integers drop the '/1'."""
    return str(x.numerator) if x.denominator == 1 else frac(x)


def _poly_dict(p: dict[Monomial, Fraction]) -> dict[str, str]:
    return {format_monomial(m): frac(c) for m, c in sorted(p.items())}


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse 'x1^2*x3' (or '1') into an exponent tuple of length n."""
    text = text.strip()
    out = [0] * n
    if text == "1":
        return tuple(out)
    for factor in text.split("*"):
        m = _FACTOR.fullmatch(factor.strip())
        if not m:
            raise PolynomialSyntaxError(f"cannot parse monomial factor {factor!r}")
        j, e = int(m.group(1)), int(m.group(2) or 1)
        if not 1 <= j <= n:
            raise PolynomialSyntaxError(f"variable x{j} out of range (N = {n})")
        out[j - 1] += e
    return tuple(out)


def load_polynomial(args) -> InvertiblePolynomial:
    if args.expr is not None:
        text = args.expr
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise PolynomialSyntaxError(f"cannot read {args.input}: {exc}") from exc
    text = text.strip()
    if text.startswith("{"):
        return InvertiblePolynomial.from_json(text)
    return InvertiblePolynomial.from_string(text)


def emit(args, document: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(document, indent=2, ensure_ascii=False))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------------------
# trace payloads


def decoration_json(dec) -> dict:
    plus, minus = dec.splitting
    return {
        "splitting": [[m + 1 for m in plus], [m + 1 for m in minus]],
        "gamma_plus": dec.gamma_plus.json_phases(),
        "ell_plus": list(dec.ell_plus),
        "ell_minus": list(dec.ell_minus),
    }


def decoration_lines(result: FourPointResult) -> list[str]:
    out = []
    for dec in result.decorations:
        plus, minus = dec.splitting
        marks = "|".join(
            ",".join(str(m + 1) for m in side) for side in (plus, minus)
        )
        phases = ", ".join(frac(p) for p in dec.gamma_plus.phases)
        out.append(
            f"    boundary {marks}: gamma+ = ({phases}), "
            f"ell+ = {list(dec.ell_plus)}, ell- = {list(dec.ell_minus)}"
        )
    return out


def reduction_trace(piece: InvertiblePolynomial, local: int) -> list[dict]:
    """Reduction trail of [M_i d^Nx] in the Brieskorn lattice of the summand."""
    _, _, target = final_type_insertions(piece, local)
    steps: list[dict] = []
    brieskorn_reduce(piece, LatticeElement.from_poly(target), steps)
    return [
        {
            "z": s["z"],
            "chunk": _poly_dict(s["chunk"]),
            "normal_form": _poly_dict(s["normal_form"]),
            "pushed": _poly_dict(s["pushed"]),
        }
        for s in steps
    ]


def reduction_lines(steps: list[dict]) -> list[str]:
    out = []
    for s in steps:
        chunk = " + ".join(f"{c}*{m}" for m, c in s["chunk"].items()) or "0"
        nf = " + ".join(f"{c}*{m}" for m, c in s["normal_form"].items()) or "0"
        push = " + ".join(f"{c}*{m}" for m, c in s["pushed"].items()) or "0"
        out.append(f"    z^{s['z']}: {chunk}  ->  nf {nf}, push {push}")
    return out


# ---------------------------------------------------------------------------
# verify


def verification_report(W: InvertiblePolynomial, trace: bool = False) -> dict:
    """Both sides of the mirror identity for every variable the theorem covers.

    Variables are either verified (A = q_i and B = -q_i checked exactly)
    or skipped with the reason the theorem does not speak about them.
    Skips caused by weight-1/2 variables are hypothesis violations; skips
    of non-final chain variables merely fall outside the stated
    correlator list and do not fail the run.
    """
    t0 = time.perf_counter()
    variables: list[dict] = []
    skipped: list[dict] = []
    for i in range(1, W.N + 1):
        try:
            result = four_point_report(W, i)
            b_value = sg_four_point(W, i)
        except UnsupportedByTheorem as exc:
            skipped.append({"i": i, "q_i": frac(W.q[i - 1]), "reason": str(exc)})
            continue
        entry = {
            "i": i,
            "q_i": frac(W.q[i - 1]),
            "A_value": frac(result.value),
            "B_value": frac(b_value),
            "method_A": result.method,
            "matched": result.value == W.q[i - 1] == -b_value,
        }
        if trace:
            entry["decorations"] = [decoration_json(d) for d in result.decorations]
            entry["reduction"] = reduction_trace(*admissible_target(W, i))
        variables.append(entry)
    hypothesis = bool(W.weight_half_variables())
    mismatch = any(not v["matched"] for v in variables)
    overall = "pass" if not (mismatch or hypothesis) else "fail"
    return {
        "command": "verify",
        "polynomial": W.to_string(),
        "variables": variables,
        "skipped": skipped,
        "overall": overall,
        "hypothesis_violation": hypothesis,
        "timing_ms": round((time.perf_counter() - t0) * 1000, 2),
    }


def cmd_verify(args) -> int:
    W = load_polynomial(args)
    report = verification_report(W, trace=args.trace)
    verified = {v["i"]: v for v in report["variables"]}
    skips = {s["i"]: s for s in report["skipped"]}
    lines = [f"polynomial: {report['polynomial']}"]
    for i in range(1, W.N + 1):
        if i in skips:
            lines.append(f"  x{i}  skipped: {skips[i]['reason']}")
            continue
        v = verified[i]
        ok = "ok" if v["matched"] else "MISMATCH"
        lines.append(
            f"  x{i}  q = {v['q_i']}   A = {v['A_value']} ({v['method_A']})"
            f"   B = {v['B_value']}   {ok}"
        )
        if args.trace:
            lines.extend(
                f"    boundary {'|'.join(','.join(str(m) for m in side) for side in d['splitting'])}: "
                f"gamma+ = ({', '.join(d['gamma_plus'])}), "
                f"ell+ = {d['ell_plus']}, ell- = {d['ell_minus']}"
                for d in v["decorations"]
            )
            lines.extend(reduction_lines(v["reduction"]))
    lines.append(
        f"overall: {report['overall']} ({len(report['variables'])} verified, "
        f"{len(report['skipped'])} skipped) [{report['timing_ms']} ms]"
    )
    emit(args, report, lines)
    if any(not v["matched"] for v in report["variables"]):
        return 1
    if report["hypothesis_violation"]:
        return 3
    return 0


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    W = load_polynomial(args)
    document = {
        "command": "classify",
        "polynomial": W.to_string(),
        "description": W.describe(),
        "summands": [
            {
                "kind": s.kind,
                "exponents": list(s.exponents),
                "variables": [v + 1 for v in s.variables],
            }
            for s in W.summands
        ],
        "weights": [frac(q) for q in W.q],
        "charge": frac(W.charge),
        "group_order": W.group_order(),
    }
    lines = [
        f"polynomial: {document['polynomial']}",
        f"  summands: {document['description']}",
        f"  weights:  ({', '.join(document['weights'])})",
        f"  charge:   {document['charge']}",
        f"  symmetry group order: {document['group_order']}",
    ]
    if args.trace:
        elements = enumerate_group(W)
        document["group"] = [
            {
                "phases": g.json_phases(),
                "narrow": sector_kind(g).narrow,
            }
            for g in elements
        ]
        lines.append(f"  group elements ({len(elements)}):")
        lines.extend(
            f"    ({', '.join(g.json_phases())})"
            f"{'' if sector_kind(g).narrow else '  [broad]'}"
            for g in elements
        )
    emit(args, document, lines)
    return 0


# ---------------------------------------------------------------------------
# mirror


def cmd_mirror(args) -> int:
    W = load_polynomial(args)
    WT = W.transpose()
    ring = ring_of(WT)
    classes = []
    for m in ring.basis.monomials:
        img = psi(W, m)
        classes.append(
            {
                "monomial": format_monomial(m),
                "weight": frac(ring.wt(m)),
                "phases": img.sector.json_phases(),
                "degree": frac(img.degree),
                "narrow": img.narrow,
                "broad_monomial": (
                    format_monomial(img.broad_monomial)
                    if img.broad_monomial is not None
                    else None
                ),
            }
        )
    violations = degree_check(W)
    document = {
        "command": "mirror",
        "polynomial": W.to_string(),
        "transpose": WT.to_string(),
        "weights": [frac(q) for q in W.q],
        "transpose_weights": [frac(q) for q in WT.q],
        "charge": frac(W.charge),
        "classes": classes,
        "degree_violations": [
            {"monomial": format_monomial(v["monomial"]), "wt": frac(v["wt"]),
             "deg": frac(v["deg"])}
            for v in violations
        ],
    }
    lines = [
        f"polynomial: {document['polynomial']}",
        f"  transpose: {document['transpose']}",
        f"  map on the {ring.mu} basis monomials of the transposed Jacobi ring:",
    ]
    for c in classes:
        broad = f", broad {c['broad_monomial']}" if c["broad_monomial"] else ""
        kind = "narrow" if c["narrow"] else "broad sector" + broad
        lines.append(
            f"    {c['monomial']}  ->  phases ({', '.join(c['phases'])}), "
            f"degree {c['degree']}  [{kind}]"
        )
    lines.append(
        "  degree preserved on all basis monomials"
        if not violations
        else f"  DEGREE VIOLATIONS: {len(violations)}"
    )
    emit(args, document, lines)
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# jacobi


def cmd_jacobi(args) -> int:
    W = load_polynomial(args)
    ring = ring_of(W)
    monomials = [format_monomial(m) for m in ring.basis.monomials]
    document = {
        "command": "jacobi",
        "polynomial": W.to_string(),
        "mu": ring.mu,
        "basis": monomials,
        "weights": [frac(ring.wt(m)) for m in ring.basis.monomials],
        "top": format_monomial(ring.top),
        "gram": [[frac(v) for v in row] for row in ring.gram()],
    }
    lines = [
        f"polynomial: {document['polynomial']}",
        f"  milnor number: {ring.mu}",
        f"  basis: {', '.join(monomials)}",
        f"  top:   {document['top']}",
    ]
    if args.trace:
        table = []
        for i, a in enumerate(ring.basis.monomials):
            for j, b in enumerate(ring.basis.monomials[i:], start=i):
                prod = ring.multiply(ring.reduce(a), ring.reduce(b))
                if prod.is_zero():
                    continue
                table.append(
                    {
                        "left": monomials[i],
                        "right": monomials[j],
                        "product": {
                            monomials[k]: frac(c) for k, c in prod.coeffs
                        },
                    }
                )
        document["products"] = table
        lines.append(f"  nonzero products ({len(table)}):")
        lines.extend(
            f"    {t['left']} * {t['right']} = "
            + " + ".join(f"{c}*{m}" for m, c in t["product"].items())
            for t in table
        )
    emit(args, document, lines)
    return 0


# ---------------------------------------------------------------------------
# axioms


def _standard_candidates(W: InvertiblePolynomial):
    """The final-type correlator of each admissible variable, as exponent
    tuples in the transposed Jacobi ring."""
    top = ring_of(W.transpose()).top
    for i in range(1, W.N + 1):
        try:
            admissible_target(W, i)
        except UnsupportedByTheorem:
            continue
        x, s, _ = final_type_insertions(W, i)
        yield i, [x, x, s, top]


def cmd_axioms(args) -> int:
    W = load_polynomial(args)
    if args.insertions:
        rows = [parse_monomial(t, W.N) for t in args.insertions.split(",")]
        candidates = [(None, rows)]
    else:
        candidates = list(_standard_candidates(W))
        if not candidates:
            raise UnsupportedByTheorem(
                "no admissible variables; pass --insertions explicitly"
            )
    reports = []
    for i, rows in candidates:
        spec = CorrelatorSpec.build(W, rows)
        reports.append(
            {
                **({"i": i} if i is not None else {}),
                "insertions": [format_monomial(m) for m in spec.insertions],
                "k": spec.k,
                "ell": list(spec.ell),
                "b": [frac(v) for v in spec.b],
                "K": [frac(v) for v in spec.K],
                "type": classify_type(W, spec),
                "passes_axioms": passes_axioms(W, spec),
            }
        )
    document = {
        "command": "axioms",
        "polynomial": W.to_string(),
        "candidates": reports,
    }
    lines = [f"polynomial: {document['polynomial']}"]
    for r in reports:
        head = f"  i={r['i']}  " if "i" in r else "  "
        ins = ", ".join(r["insertions"])
        K = ", ".join(_pretty(Fraction(v)) for v in r["K"])
        verdict = "pass" if r["passes_axioms"] else "fail"
        lines.append(
            f"{head}<{ins}>: K = ({K}), type {r['type']}, axioms {verdict}"
        )
    emit(args, document, lines)
    return 0


# ---------------------------------------------------------------------------
# correlator


def cmd_correlator(args) -> int:
    W = load_polynomial(args)
    i = args.target
    document: dict = {
        "command": "correlator",
        "polynomial": W.to_string(),
        "i": i,
        "q_i": None,
    }
    lines = [f"polynomial: {document['polynomial']}"]
    piece, local = admissible_target(W, i)  # validates i before any evaluation
    document["q_i"] = frac(W.q[i - 1])
    if args.side in ("A", "both"):
        result = four_point_report(W, i)
        document["A"] = {
            "value": frac(result.value),
            "method": result.method,
            "decorations": [decoration_json(d) for d in result.decorations],
        }
        lines.append(f"  A side: {frac(result.value)}  (method {result.method})")
        if args.trace:
            lines.extend(decoration_lines(result))
    if args.side in ("B", "both"):
        b_value = sg_four_point(W, i)
        document["B"] = {"value": frac(b_value)}
        steps = reduction_trace(piece, local)
        if args.trace:
            document["B"]["reduction"] = steps
        lines.append(f"  B side: {frac(b_value)}")
        if args.trace:
            lines.extend(reduction_lines(steps))
    emit(args, document, lines)
    return 0


# ---------------------------------------------------------------------------
# wdvv


def cmd_wdvv(args) -> int:
    W = load_polynomial(args)
    kinds = {s.kind for s in W.summands}
    if kinds == {"fermat"}:
        table, chain = fermat_closure(W)
        canonical = W
    elif (
        len(W.summands) == 1
        and W.summands[0].kind == "loop"
        and W.N == 2
        and sorted(W.summands[0].exponents) != [2, 2]
        and 2 in W.summands[0].exponents
    ):
        a = max(W.summands[0].exponents)
        table, chain = loop_square_chain(a)
        canonical = InvertiblePolynomial.from_string(f"x1^{a}*x2 + x2^2*x1")
    else:
        raise UnsupportedByTheorem(
            "associativity chains are implemented for sums of Fermat summands "
            "and for two-variable loops with one exponent equal to 2"
        )
    identities = [
        {
            "identity": ident.render(),
            "values": [frac(v) for v in ident.values],
            "solved": (
                table.describe_key(ident.solved) if ident.solved is not None else None
            ),
            "solved_value": (
                frac(ident.solved_value) if ident.solved_value is not None else None
            ),
        }
        for ident in chain
    ]
    document = {
        "command": "wdvv",
        "polynomial": canonical.to_string(),
        "identities": identities,
        "correlators": {
            table.describe_key(k): frac(v) for k, v in sorted(table.values.items())
        },
    }
    lines = [f"polynomial: {document['polynomial']}"]
    for ident in identities:
        lines.append(f"  {ident['identity']}")
        lines.append(
            f"    values: {ident['values'][0]} = {ident['values'][1]} + "
            f"{ident['values'][2]} - {ident['values'][3]}"
        )
        if ident["solved"] is not None:
            lines.append(f"    solves {ident['solved']} = {ident['solved_value']}")
    lines.append("  table:")
    lines.extend(f"    {k} = {v}" for k, v in document["correlators"].items())
    emit(args, document, lines)
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description=(
            "Exact genus-zero mirror checks for invertible quasihomogeneous "
            "polynomials: FJRW four-point invariants (A side) against "
            "Saito-Givental four-point correlators of the transpose (B side)."
        ),
        epilog=(
            "exit codes: 0 full pass, 1 mismatch, 2 parse error, "
            "3 theorem-hypothesis violation. "
            "LGMIRROR_GROUP_CAP overrides the group enumeration cap."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--expr", help="polynomial, e.g. 'x1^3*x2 + x2^4'")
        source.add_argument(
            "--input",
            help="file holding the polynomial (expression or "
            '{"E": [[...], ...]} JSON)',
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--trace",
            action="store_true",
            help="emit boundary decorations (A side) and reduction steps (B side)",
        )

    p = sub.add_parser("verify", help="check A = q_i and B = -q_i for all variables")
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("classify", help="atomic summand decomposition and weights")
    common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("mirror", help="sector data of the transposed basis monomials")
    common(p)
    p.set_defaults(handler=cmd_mirror)

    p = sub.add_parser("jacobi", help="standard basis and Gram matrix of Jac(W)")
    common(p)
    p.set_defaults(handler=cmd_jacobi)

    p = sub.add_parser("axioms", help="selection-rule data (l, b, K, type)")
    common(p)
    p.add_argument(
        "--insertions",
        help="comma-separated monomials in the transposed ring, "
        "e.g. 'x1,x1,x1^2,x1^2' (default: each admissible final-type correlator)",
    )
    p.set_defaults(handler=cmd_axioms)

    p = sub.add_parser("correlator", help="one four-point value on one side")
    common(p)
    p.add_argument("--target", type=int, required=True, help="variable index i (1-based)")
    p.add_argument("--side", choices=("A", "B", "both"), default="both")
    p.set_defaults(handler=cmd_correlator)

    p = sub.add_parser("wdvv", help="print an associativity reconstruction chain")
    common(p)
    p.set_defaults(handler=cmd_wdvv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UnsupportedByTheorem as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
