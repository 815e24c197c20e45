"""Command-line front end and the end-to-end mirror verifier.

``lgmirror verify`` computes, for every variable the reconstruction
theorem covers, the four-point invariant <psi(x_i), psi(x_i),
psi(M_i/x_i^2), psi(top)> on the A side and the corresponding
Saito-Givental correlator on the B side, and checks

    A_i = q_i    and    B_i = -q_i

exactly.  The other subcommands are thin wrappers over the library:
``classify`` (atomic summands), ``mirror`` (the degree-preserving map on
the standard basis), ``jacobi`` (basis and socle; ``--json`` adds the Gram
matrix, ``--trace`` the products of basis monomials), ``axioms``
(selection-rule bookkeeping for a correlator candidate),
``correlator`` (a single A- or B-side value) and ``wdvv`` (associativity
reconstruction chains; its handler alone imports the `wdvv` module, whose
two reconstructions refuse the shapes they have no chain for).

``main`` is the one frame: it reads the polynomial, runs the handler, which
returns (exit code, document, text lines), and prints the document headed
by "command" and "polynomial" under ``--json``, else ``polynomial: ...``
and the lines; a failed run prints only its message, on stderr.

Exit codes: 0 full pass, 1 mirror-identity mismatch, 2 parse/usage
error, 3 theorem-hypothesis violation (weight-1/2 variables), reported
with a skip list.  All rationals are serialized as "p/q" strings, never
decimals, and every integer prints in full, of any size.  ``--trace``
adds boundary decorations on the A side and Brieskorn-lattice reduction
steps on the B side.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .amodel import final_type_correlator, four_point_report
from .bmodel import brieskorn_reduce, sg_four_point
from .errors import (
    InconsistentInput,
    UnderdeterminedSystem,
    UnsupportedByTheorem,
    WrongConfiguration,
)
from .groups import GroupCapExceeded, enumerate_group
from .jacobi import ring_of
from .mirror import Target, admissible_target, final_type_insertions, psi, require_mirror_hypotheses
from .poly import InvertiblePolynomial, NotInvertibleShape, PolynomialSyntaxError, format_monomial, parse_term
from .selection import CorrelatorSpec, classify_type, passes_axioms

Monomial = tuple[int, ...]
Output = tuple[int, dict, list[str]]  # a handler's (exit code, document, text lines)

_PARSE_ERRORS = (
    PolynomialSyntaxError,
    NotInvertibleShape,
    WrongConfiguration,
    InconsistentInput,
    UnderdeterminedSystem,
    GroupCapExceeded,
)


def frac(x) -> str:
    """The one serialization of a rational (an int or a ``Fraction``):
    'p/q', never a decimal."""
    return f"{x.numerator}/{x.denominator}"


def _poly_dict(p: dict[Monomial, Fraction], order: tuple[int, ...]) -> dict[str, str]:
    terms = sorted((tuple(m[k] for k in order), c) for m, c in p.items())
    return {format_monomial(m): frac(c) for m, c in terms}


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse 'x1^2*x3' (or '1') into an exponent tuple of length n, with
    the factor grammar of the polynomial input."""
    text = "".join(text.split())
    if text == "1":
        return (0,) * n
    exps = parse_term(text)
    if max(exps) > n:
        raise PolynomialSyntaxError(f"variable x{max(exps)} out of range (N = {n})")
    return tuple(exps.get(j, 0) for j in range(1, n + 1))


def load_polynomial(args) -> InvertiblePolynomial:
    if args.expr is not None:
        text = args.expr
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PolynomialSyntaxError(f"cannot read {args.input}: {exc}") from exc
    text = text.strip()
    if text.startswith("{"):
        return InvertiblePolynomial.from_json(text)
    return InvertiblePolynomial.from_string(text)


# ---------------------------------------------------------------------------
# trace payloads


def decoration_json(dec) -> dict:
    plus, minus = dec.splitting
    return {
        "splitting": [[m + 1 for m in plus], [m + 1 for m in minus]],
        "gamma_plus": [frac(p) for p in dec.gamma_plus.phases],
        "ell_plus": list(dec.ell_plus),
        "ell_minus": list(dec.ell_minus),
    }


def decoration_lines(decorations: list[dict]) -> list[str]:
    """The ``--trace`` text of ``decoration_json`` payloads."""
    return [
        f"    boundary {'|'.join(','.join(str(m) for m in side) for side in d['splitting'])}: "
        f"gamma+ = ({', '.join(d['gamma_plus'])}), "
        f"ell+ = {d['ell_plus']}, ell- = {d['ell_minus']}"
        for d in decorations
    ]


def reduction_trace(target: Target) -> list[dict]:
    """Reduction trail of [M_i d^Nx] in the Brieskorn lattice of the piece's
    transpose, where ``sg_four_point`` computes the B side, its monomials
    read in `target_order`: variable k there is the piece's row k."""
    piece, local = target
    steps: list[dict] = []
    brieskorn_reduce(ring_of(piece.transpose()), {0: {final_type_insertions(piece, local)[2]: (1, 1)}}, steps)
    order = piece.target_order(local)
    return [{"z": s["z"], **{k: _poly_dict(s[k], order) for k in ("chunk", "normal_form", "pushed")}}
            for s in steps]


def reduction_lines(steps: list[dict]) -> list[str]:
    def text(p):
        return " + ".join(f"{c}*{m}" for m, c in p.items()) or "0"
    return [f"    z^{s['z']}: {text(s['chunk'])}  ->  nf {text(s['normal_form'])}, push {text(s['pushed'])}"
            for s in steps]


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
            target = admissible_target(W, i)
        except UnsupportedByTheorem as exc:
            skipped.append({"i": i, "q_i": frac(W.q[i - 1]), "reason": str(exc)})
            continue
        result, b_value = four_point_report(target), sg_four_point(target)
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
            entry["reduction"] = reduction_trace(target)
        variables.append(entry)
    hypothesis = bool(W.weight_half_variables())
    mismatch = any(not v["matched"] for v in variables)
    overall = "pass" if not (mismatch or hypothesis) else "fail"
    return {
        "variables": variables,
        "skipped": skipped,
        "overall": overall,
        "hypothesis_violation": hypothesis,
        "timing_ms": round((time.perf_counter() - t0) * 1000, 2),
    }


def verify_lines(report: dict, trace: bool) -> list[str]:
    """The text output of ``verify`` for its report, one variable at a time."""
    lines = []
    for v in sorted(report["variables"] + report["skipped"], key=lambda v: v["i"]):
        if "reason" in v:
            lines.append(f"  x{v['i']}  skipped: {v['reason']}")
            continue
        ok = "ok" if v["matched"] else "MISMATCH"
        lines.append(
            f"  x{v['i']}  q = {v['q_i']}   A = {v['A_value']} ({v['method_A']})"
            f"   B = {v['B_value']}   {ok}"
        )
        if trace:
            lines.extend(decoration_lines(v["decorations"]))
            lines.extend(reduction_lines(v["reduction"]))
    lines.append(
        f"overall: {report['overall']} ({len(report['variables'])} verified, "
        f"{len(report['skipped'])} skipped) [{report['timing_ms']} ms]"
    )
    return lines


def cmd_verify(W: InvertiblePolynomial, args) -> Output:
    report = verification_report(W, trace=args.trace)
    # the text lines only on the text path: main prints none under --json
    lines = [] if args.json else verify_lines(report, args.trace)
    if any(not v["matched"] for v in report["variables"]):
        return 1, report, lines
    return (3 if report["hypothesis_violation"] else 0), report, lines


# ---------------------------------------------------------------------------
# classify


def cmd_classify(W: InvertiblePolynomial, args) -> Output:
    document = {
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
        f"  summands: {document['description']}",
        f"  weights:  ({', '.join(document['weights'])})",
        f"  charge:   {document['charge']}",
        f"  symmetry group order: {document['group_order']}",
    ]
    if args.trace:
        elements = enumerate_group(W)
        document["group"] = [
            {"phases": [frac(p) for p in g.phases], "narrow": g.is_narrow()}
            for g in elements
        ]
        lines.append(f"  group elements ({len(elements)}):")
        lines.extend(
            f"    ({', '.join(e['phases'])}){'' if e['narrow'] else '  [broad]'}"
            for e in document["group"]
        )
    return 0, document, lines


# ---------------------------------------------------------------------------
# mirror


def cmd_mirror(W: InvertiblePolynomial, args) -> Output:
    require_mirror_hypotheses(W)  # before building Wᵗ's ring; `psi` checks again
    WT = W.transpose()
    ring = ring_of(WT)
    classes, violations = [], []
    for m in ring.basis.monomials:
        img, wt = psi(W, m), ring.wt(m)
        if wt != img.degree:
            violations.append({"monomial": format_monomial(m), "wt": frac(wt),
                               "deg": frac(img.degree)})
        classes.append(
            {
                "monomial": format_monomial(m),
                "weight": frac(wt),
                "phases": [frac(p) for p in img.sector.phases],
                "degree": frac(img.degree),
                "narrow": img.narrow,
                "broad_monomial": (
                    format_monomial(img.broad_monomial)
                    if img.broad_monomial is not None
                    else None
                ),
            }
        )
    document = {
        "transpose": WT.to_string(),
        "weights": [frac(q) for q in W.q],
        "transpose_weights": [frac(q) for q in WT.q],
        "charge": frac(W.charge),
        "classes": classes,
        "degree_violations": violations,
    }
    lines = [
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
    return (1 if violations else 0), document, lines


# ---------------------------------------------------------------------------
# jacobi


def cmd_jacobi(W: InvertiblePolynomial, args) -> Output:
    ring = ring_of(W)
    monomials = [format_monomial(m) for m in ring.basis.monomials]
    document = {
        "mu": ring.mu,
        "basis": monomials,
        "weights": [frac(ring.wt(m)) for m in ring.basis.monomials],
        "top": format_monomial(ring.top),
    }
    if args.json:
        document["gram"] = [[frac(v) for v in row] for row in ring.gram()]
    lines = [
        f"  milnor number: {ring.mu}",
        f"  basis: {', '.join(monomials)}",
        f"  top:   {document['top']}",
    ]
    if args.trace:
        table = []
        for i, a in enumerate(ring.basis.monomials):
            for j, b in enumerate(ring.basis.monomials[i:], start=i):
                # a product of basis monomials is one basis term or zero
                product = ring.reduce(tuple(x + y for x, y in zip(a, b)))
                if product.is_zero():
                    continue
                table.append(
                    {
                        "left": monomials[i],
                        "right": monomials[j],
                        "product": {monomials[k]: frac(c) for k, c in product.coeffs},
                    }
                )
        document["products"] = table
        lines.append(f"  nonzero products ({len(table)}):")
        lines.extend(
            f"    {t['left']} * {t['right']} = "
            + " + ".join(f"{c}*{m}" for m, c in t["product"].items())
            for t in table
        )
    return 0, document, lines


# ---------------------------------------------------------------------------
# axioms


def _standard_candidates(W: InvertiblePolynomial):
    """The final-type correlator of each admissible variable, as exponent
    tuples in the transposed Jacobi ring."""
    for i in range(1, W.N + 1):
        try:
            admissible_target(W, i)
        except UnsupportedByTheorem:
            continue
        yield i, list(final_type_correlator(W, i))


def cmd_axioms(W: InvertiblePolynomial, args) -> Output:
    if args.insertions is not None:
        rows = [parse_monomial(t, W.N) for t in args.insertions.split(",")]
        candidates = [(None, rows)]
    else:
        candidates = list(_standard_candidates(W))
        if not candidates:
            raise UnsupportedByTheorem(
                "no admissible variables; pass --insertions explicitly"
            )
    document = {"candidates": []}
    lines = []
    for i, rows in candidates:
        spec = CorrelatorSpec.build(W, rows)
        b, K = ([Fraction(x, W.D) for x in v] for v in (spec.Db, spec.DK))
        r = {
            **({"i": i} if i is not None else {}),
            "insertions": [format_monomial(m) for m in spec.insertions],
            "k": spec.k,
            "ell": list(spec.ell),
            "b": [frac(v) for v in b],
            "K": [frac(v) for v in K],
            "type": classify_type(W, spec),
            "passes_axioms": passes_axioms(W, spec),
        }
        document["candidates"].append(r)
        head = f"  i={i}  " if i is not None else "  "
        ins = ", ".join(r["insertions"])
        verdict = "pass" if r["passes_axioms"] else "fail"
        lines.append(
            f"{head}<{ins}>: K = ({', '.join(map(str, K))}), type {r['type']}, axioms {verdict}"
        )
    return 0, document, lines


# ---------------------------------------------------------------------------
# correlator


def cmd_correlator(W: InvertiblePolynomial, args) -> Output:
    i = args.target
    target = admissible_target(W, i)  # validates i before any evaluation
    document: dict = {"i": i, "q_i": frac(W.q[i - 1])}
    lines = []
    if args.side in ("A", "both"):
        result = four_point_report(target)
        document["A"] = {
            "value": frac(result.value),
            "method": result.method,
            "decorations": [decoration_json(d) for d in result.decorations],
        }
        lines.append(f"  A side: {frac(result.value)}  (method {result.method})")
        if args.trace:
            lines.extend(decoration_lines(document["A"]["decorations"]))
    if args.side in ("B", "both"):
        b_value = sg_four_point(target)
        document["B"] = {"value": frac(b_value)}
        lines.append(f"  B side: {frac(b_value)}")
        if args.trace:
            steps = reduction_trace(target)
            document["B"]["reduction"] = steps
            lines.extend(reduction_lines(steps))
    return 0, document, lines


# ---------------------------------------------------------------------------
# wdvv


def cmd_wdvv(W: InvertiblePolynomial, args) -> Output:
    from .wdvv import fermat_closure, loop_square_chain  # no other command loads wdvv
    fermat = all(s.kind == "fermat" for s in W.summands)
    table, chain = (fermat_closure if fermat else loop_square_chain)(W)
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
        "identities": identities,
        "correlators": {
            table.describe_key(k): frac(v) for k, v in sorted(table.values.items())
        },
    }
    lines = []
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
    return 0, document, lines


# ---------------------------------------------------------------------------
# wiring


# (name, handler, help) of each subcommand, in the order `--help` lists them
_COMMANDS = (
    ("verify", cmd_verify, "check A = q_i and B = -q_i for all variables"),
    ("classify", cmd_classify, "atomic summand decomposition and weights"),
    ("mirror", cmd_mirror, "sector data of the transposed basis monomials"),
    ("jacobi", cmd_jacobi, "standard basis and Gram matrix of Jac(W)"),
    ("axioms", cmd_axioms, "selection-rule data (l, b, K, type)"),
    ("correlator", cmd_correlator, "one four-point value on one side"),
    ("wdvv", cmd_wdvv, "print an associativity reconstruction chain"),
)


@functools.cache
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
    for name, handler, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
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
        p.set_defaults(handler=handler)

    sub.choices["axioms"].add_argument(
        "--insertions",
        help="comma-separated monomials in the transposed ring, "
        "e.g. 'x1,x1,x1^2,x1^2' (default: each admissible final-type correlator)",
    )
    correlator = sub.choices["correlator"]
    correlator.add_argument("--target", type=int, required=True, help="variable index i (1-based)")
    correlator.add_argument("--side", choices=("A", "B", "both"), default="both")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # integers of any size print: the process-wide int-string limit (none
    # before Python 3.10.7) is lifted until main returns; `parse_int` bounds
    # the input's numerals, the polynomial's and --insertions', itself
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        W = load_polynomial(args)
        code, document, lines = args.handler(W, args)
    except UnsupportedByTheorem as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    else:
        if args.json:
            document = {"command": args.command, "polynomial": W.to_string(), **document}
            print(json.dumps(document, indent=2, ensure_ascii=False))
        else:
            print(f"polynomial: {W.to_string()}", *lines, sep="\n")
        return code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
