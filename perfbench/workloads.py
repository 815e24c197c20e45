"""Workload generators and the closed-loop item runner.

Every workload is a list of distinct items built from the seed alone; the
program only ever sees the generated polynomial text.  One client in one
process sends the next item after the previous verdict returns.

* sweep   — seeded draw of small polynomials through `verify --json`.
* ladder  — a fixed list of large atomic polynomials through the same call.
* lattice — transposed atomic chains and loops through the B-model layers:
            ring build, good-basis check, reductions and (small rings)
            the perturbative expansion.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from speed import SpeedProbe
from reference import (
    Summand,
    Verdict,
    expected_verdict,
    exponent_matrix,
    frac,
    milnor_number,
    render,
    solve_weights,
    verify_problems,
)

# Nominal run length (s) the item counts below are calibrated to: at this
# size a run takes about that long on a 2-CPU sandbox at the commit that
# defined the benchmark.  `--seconds` scales the counts, never the items.
NOMINAL_SECONDS = 15

# ---------------------------------------------------------------------------
# shapes


def atomic(kind: str, exps) -> Summand:
    """A chain, loop or Fermat on x1, …, xN in order."""
    exps = tuple(exps)
    return Summand(kind, exps, tuple(range(len(exps))))


def _shapes(sizes=(2, 3, 4)) -> list[tuple[int, ...]]:
    """Every exponent tuple with entries 2..5, for each number of variables."""
    return [a for n in sizes for a in itertools.product(range(2, 6), repeat=n)]


@dataclass(frozen=True)
class VerifyItem:
    """One `lgmirror verify --json --expr text` call and its expected verdict."""

    label: str
    text: str
    verdict: Verdict


@dataclass(frozen=True)
class LatticeItem:
    """B-model work on f = Wᵗ for an atomic W, given as the text of f."""

    label: str
    text: str
    ET: tuple                 # exponent matrix of f, rows in the text's order
    loop_mu: int | None       # ∏aᵢ when W is a loop
    insertions: tuple | None  # (x_t, M_t/x_t²) of f for an admissible target
    samples: tuple            # monomials of f to reduce
    multiples: tuple          # (j, s): reduce s·∂ⱼf, which must vanish
    basis_picks: tuple        # integers; basis monomial index = pick mod μ
    series: bool              # run perturbative_expand(f, 2)


def verify_item(label: str, summands: list[Summand], rng: random.Random | None = None) -> VerifyItem:
    monos = [m for s in summands for m in s.monomials()]
    if rng is not None:
        rng.shuffle(monos)
    n = sum(len(s.variables) for s in summands)
    E = exponent_matrix(monos, n)
    return VerifyItem(label, render(monos), expected_verdict(summands, E))


def _label(s: Summand) -> str:
    return f"{s.kind}({','.join(map(str, s.exponents))})"


# ---------------------------------------------------------------------------
# sweep

# Pieces of the direct sums; drawn from a short list so they recur across
# items, as they do in a real sweep.
SUM_PIECES = (
    ("fermat", (3,)), ("fermat", (4,)), ("fermat", (5,)), ("fermat", (7,)),
    ("chain", (2, 3)), ("chain", (3, 4)), ("chain", (4, 3)), ("chain", (2, 2, 3)),
    ("loop", (2, 2)), ("loop", (2, 3)), ("loop", (3, 3)), ("loop", (2, 4)),
    ("loop", (2, 2, 2)), ("loop", (3, 2, 4)),
)
# Pieces with a weight-1/2 variable: exit 3.
SQUARE_PIECES = (("fermat", (2,)), ("chain", (3, 2)), ("chain", (2, 2)))

# Items per round, by stratum; a run is a number of rounds, each shuffled.
# Strata split the draw by cost class, so every seed gets the same mix.
SWEEP_ROUND = (("fermat", 1), ("chain23", 1), ("chain4", 2), ("loop23", 1), ("loop4", 1),
               ("sum2", 2), ("sum3", 1), ("exit3", 1))
SWEEP_ROUNDS_PER_S = 3.9


def _direct_sum(pieces, rng: random.Random) -> list[Summand]:
    n = sum(len(e) for _, e in pieces)
    perm = list(range(n))
    rng.shuffle(perm)
    out, k = [], 0
    for kind, exps in pieces:
        out.append(Summand(kind, exps, tuple(perm[k:k + len(exps)])))
        k += len(exps)
    return out


def sweep(seed: int, seconds: float) -> list[VerifyItem]:
    rng = random.Random(f"sweep:{seed}")
    pools = {
        "fermat": [[atomic("fermat", (a,))] for a in range(3, 63)],
        "chain23": [[atomic("chain", a)] for a in _shapes((2, 3)) if a[-1] >= 3],
        "chain4": [[atomic("chain", a)] for a in _shapes((4,)) if a[-1] >= 3],
        "loop23": [[atomic("loop", a)] for a in _shapes((2, 3))],
        "loop4": [[atomic("loop", a)] for a in _shapes((4,))],
        "square_chain": [[atomic("chain", a)] for a in _shapes() if a[-1] == 2],
    }
    for pool in pools.values():
        rng.shuffle(pool)
    capacity = min(len(pools[k]) // q for k, q in SWEEP_ROUND if k in pools)
    rounds = max(1, min(capacity, round(seconds * SWEEP_ROUNDS_PER_S)))
    seen: set[str] = set()
    items: list[VerifyItem] = []

    def fresh(draw) -> VerifyItem:
        while True:
            label, summands = draw()
            item = verify_item(label, summands, rng if len(summands) > 1 else None)
            if item.text not in seen:
                seen.add(item.text)
                return item

    def draw_sum(k):
        pieces = rng.sample(SUM_PIECES, k)
        summands = _direct_sum(pieces, rng)
        return "+".join(map(_label, summands)), summands

    def draw_exit3(r):
        if r % 2 == 0:
            summands = pools["square_chain"].pop()
        else:
            summands = _direct_sum([rng.choice(SUM_PIECES), rng.choice(SQUARE_PIECES)], rng)
        return "+".join(map(_label, summands)), summands

    for r in range(rounds):
        batch = []
        for kind, quota in SWEEP_ROUND:
            for _ in range(quota):
                if kind in ("sum2", "sum3"):
                    batch.append(fresh(lambda: draw_sum(int(kind[-1]))))
                elif kind == "exit3":
                    batch.append(fresh(lambda: draw_exit3(r)))
                else:
                    summands = pools[kind].pop()
                    batch.append(verify_item(_label(summands[0]), summands))
        rng.shuffle(batch)
        items.extend(batch)
    return items


# ---------------------------------------------------------------------------
# ladder

# Large single atomic polynomials, μ ≈ 10³–10⁴, interleaved by cost so that
# a shorter run (a prefix) still spans the range.  Many rungs cost 0.2–0.9 s,
# so the median item is not one polynomial's time.
LADDER = (
    ("loop", (20, 20, 20)),          # μ = 8000
    ("fermat", (2000,)),             # μ = 1999
    ("loop", (6, 6, 6, 6)),          # μ = 1296
    ("loop", (5, 5, 5, 5, 5)),       # μ = 3125
    ("loop", (11, 11, 11)),          # μ = 1331
    ("chain", (10, 10, 10, 10)),     # μ = 9091
    ("loop", (50, 50)),              # μ = 2500
    ("loop", (7, 7, 7, 7)),          # μ = 2401
    ("loop", (3, 4, 5, 6, 3)),       # μ = 1080
    ("chain", (7, 7, 7, 7)),         # μ = 2101
    ("loop", (4, 4, 4, 4, 4)),       # μ = 1024
    ("fermat", (8000,)),             # μ = 7999
    ("loop", (5, 6, 7, 8)),          # μ = 1680
    ("chain", (6, 6, 6, 6, 6)),      # μ = 6665
    ("loop", (10, 10, 10)),          # μ = 1000
    ("loop", (6, 6, 6, 5)),          # μ = 1080
    ("loop", (12, 13, 14)),          # μ = 2184
    ("loop", (40, 40)),              # μ = 1600
    ("fermat", (5000,)),             # μ = 4999
)


def ladder(seed: int, seconds: float) -> list[VerifyItem]:
    del seed  # the ladder is the same list for every seed
    count = max(1, math.ceil(len(LADDER) * min(1.0, seconds / NOMINAL_SECONDS)))
    return [verify_item(_label(atomic(k, e)), [atomic(k, e)]) for k, e in LADDER[:count]]


# ---------------------------------------------------------------------------
# lattice

# Fixed larger members: loop(5⁴)ᵗ and loop(10³)ᵗ exercise the O(μ²)
# good-basis pair sweep and its memory (μ = 625 and 1000).  loop(7⁴)ᵗ
# (μ = 2401) would take half the run in one numpy-bound call whose time the
# speed probe tracks poorly, so it is left out.
LATTICE_LARGE = (("loop", (5, 5, 5, 5)), ("loop", (10, 10, 10)))
# The shapes drawn: every STEP[N]-th exponent tuple with N variables, for
# chains and loops, in a fixed shuffled order.  They are the same for every
# seed, so every run has the same mix of sizes; the seed picks how each is
# presented (variable labels, loop rotation, monomial order) and which
# monomials are reduced.  A shorter run takes a prefix.
LATTICE_STEP = {2: 2, 3: 2, 4: 5}
SERIES_MAX_MU = 12   # perturbative_expand(f, 2) only on small rings (N ≤ 3)
REDUCE_SAMPLES, MULTIPLES, BASIS_PICKS = 8, 3, 3


def lattice_item(kind: str, exps: tuple, rng: random.Random) -> LatticeItem:
    n = len(exps)
    if kind == "loop":  # a rotation is the same loop, relabelled
        r = rng.randrange(n)
        exps = exps[r:] + exps[:r]
    W = Summand(kind, exps, tuple(rng.sample(range(n), n)))
    monos = W.monomials()
    rng.shuffle(monos)
    E = exponent_matrix(monos, n)
    ET = tuple(zip(*E))
    text = render([{j: e for j, e in enumerate(row) if e} for row in ET])
    mu = milnor_number(solve_weights(ET))
    insertions = None
    if kind == "loop" or exps[-1] >= 3:
        # target x_v, v the last variable of W: in f it is the variable of
        # the monomial v heads, and M_v is row v of f
        v = W.variables[-1]
        r = next(i for i, m in enumerate(monos) if m.get(v, 0) >= 2)
        x = tuple(int(j == r) for j in range(n))
        s = tuple(e - 2 * xj for e, xj in zip(ET[v], x))
        insertions = (x, s)
    # Sampled monomials reach the criterion-5 degree cap, Σ(aᵢ − 1) + 2 (one
    # more than sum(top) + 2 for chains), at evenly spaced degrees, so every
    # seed reduces the same spread of degrees; the multipliers s of s·∂ⱼf go
    # to half the cap.
    cap = sum(a - 1 for a in exps) + 2
    by_degree: dict[int, list] = {}
    for m in itertools.product(range(cap + 1), repeat=n):
        if sum(m) <= cap:
            by_degree.setdefault(sum(m), []).append(m)
    return LatticeItem(
        label=f"{kind}({','.join(map(str, exps))})ᵗ",
        text=text,
        ET=ET,
        loop_mu=math.prod(exps) if kind == "loop" else None,
        insertions=insertions,
        samples=tuple(rng.choice(by_degree[(k + 1) * cap // REDUCE_SAMPLES])
                      for k in range(REDUCE_SAMPLES)),
        multiples=tuple((rng.randrange(n), rng.choice(by_degree[(k + 1) * cap // (2 * MULTIPLES)]))
                        for k in range(MULTIPLES)),
        basis_picks=tuple(rng.randrange(1 << 30) for _ in range(BASIS_PICKS)),
        series=n <= 3 and mu <= SERIES_MAX_MU,
    )


def lattice_shapes() -> list[tuple[str, tuple[int, ...]]]:
    shapes = [(kind, a) for kind in ("chain", "loop") for n, step in LATTICE_STEP.items()
              for a in _shapes((n,))[::step] if (kind, a) not in LATTICE_LARGE]
    random.Random("lattice shapes").shuffle(shapes)
    return shapes


def lattice(seed: int, seconds: float) -> list[LatticeItem]:
    rng = random.Random(f"lattice:{seed}")
    shapes = lattice_shapes()
    count = max(1, round(len(shapes) * min(1.0, seconds / NOMINAL_SECONDS)))
    seen: set[str] = set()

    def fresh(kind, exps) -> LatticeItem:
        while True:  # rotated loops can coincide once relabelled
            item = lattice_item(kind, exps, rng)
            if item.text not in seen:
                seen.add(item.text)
                return item

    items = [fresh(kind, exps) for kind, exps in shapes[:count]]
    # the fixed members sit at evenly spaced positions
    for j, (kind, exps) in enumerate(LATTICE_LARGE):
        pos = (j + 1) * len(items) // (len(LATTICE_LARGE) + 1) + j
        items.insert(pos, fresh(kind, exps))
    return items


WORKLOADS = {"sweep": sweep, "ladder": ladder, "lattice": lattice}


# ---------------------------------------------------------------------------
# running


@dataclass
class PassResult:
    """Outcome of one closed-loop pass over a workload's items."""

    durations: list[float] = field(default_factory=list)   # wall seconds per item
    scales: list[float] = field(default_factory=list)      # reference s per wall s
    failures: list[tuple[int, str]] = field(default_factory=list)  # (item, problem)
    digest: object = field(default_factory=hashlib.sha256)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len({k for k, _ in self.failures})

    @property
    def wall_s(self) -> float:
        return sum(self.durations)

    @property
    def ref_durations(self) -> list[float]:
        """Item times in reference seconds (see speed.py)."""
        return [d * s for d, s in zip(self.durations, self.scales)]

    @property
    def ref_s(self) -> float:
        return sum(self.ref_durations)


def run_items(lg, items, tracer=None) -> PassResult:
    """Run every item once, in order, and check each against the reference.

    ``lg`` is the imported lgmirror package.  An item's duration runs from
    its input text to the program's verdict, minus the speed probes that
    ran inside it; the benchmark's own checks and the digest of the
    canonical output happen outside it.  Any exception, wrong verdict or
    wrong exit code fails the item.
    """
    result = PassResult()
    bounds = []
    # probes that interrupt a span are charged to no span's self time
    with SpeedProbe(on_probe=tracer.pause if tracer is not None else None) as probe:
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.current_item = k
            runner = _run_verify if isinstance(item, VerifyItem) else _run_lattice
            t0 = time.perf_counter()
            try:
                t0, t1, canonical, problems = runner(lg, item)
            except Exception as exc:  # a crash is a failed item, not a failed run
                t1 = time.perf_counter()
                canonical, problems = f"exception {type(exc).__name__}", [repr(exc)]
            bounds.append((t0, t1))
            result.failures += [(k, f"{item.label} {item.text[:60]}: {p}") for p in problems]
            result.digest.update(f"{k}\t{item.text}\t{canonical}\n".encode())
        if tracer is not None:
            tracer.current_item = -1
    result.durations = [t1 - t0 - probe.inside(t0, t1) for t0, t1 in bounds]
    result.scales = [probe.scale(t0, t1) for t0, t1 in bounds]
    return result


def _run_verify(lg, item: VerifyItem):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lg.cli.main(["verify", "--json", "--expr", item.text])
    t1 = time.perf_counter()
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        doc = None
    problems = verify_problems(item.verdict, code, doc)
    if isinstance(doc, dict):
        doc.pop("timing_ms", None)
    canonical = json.dumps([code, doc], sort_keys=True)
    return t0, t1, canonical, problems


def _partial(ET, j: int) -> dict:
    """∂ⱼf as {monomial: coefficient}, from the exponent matrix alone."""
    d = {}
    for row in ET:
        if row[j] > 0:
            m = list(row)
            m[j] -= 1
            d[tuple(m)] = Fraction(row[j])
    return d


def _poly_json(p: dict) -> list:
    return sorted([list(m), frac(c)] for m, c in p.items())


def _run_lattice(lg, item: LatticeItem):
    n = len(item.ET)
    multiples = []
    for j, s in item.multiples:
        multiples.append({tuple(a + b for a, b in zip(s, m)): c for m, c in _partial(item.ET, j).items()})

    t0 = time.perf_counter()
    f = lg.poly.InvertiblePolynomial.from_string(item.text)
    ring = lg.jacobi.JacobiRing(f)
    report = lg.bmodel.good_basis_check(f)
    reduced = [ring.reduce(m) for m in item.samples]
    vanish = [ring.reduce(p) for p in multiples]
    basis = [ring.basis.monomials[p % ring.mu] for p in item.basis_picks]
    kept = [ring.reduce(m) for m in basis]
    state = lg.bmodel.perturbative_expand(f, 2) if item.series else None
    t1 = time.perf_counter()

    q = solve_weights(item.ET)
    mu = milnor_number(q)
    problems = []
    if ring.mu != mu:
        problems.append(f"mu {ring.mu}, Milnor–Orlik gives {mu}")
    if item.loop_mu is not None and ring.mu != item.loop_mu:
        problems.append(f"loop mu {ring.mu} != prod(a) {item.loop_mu}")
    if report.checked_pairs != mu * (mu + 1) // 2 or not report.passed:
        problems.append(f"good basis: {report.checked_pairs} pairs, passed={report.passed}")
    for m, el in zip(item.samples, reduced):
        w = sum(a * b for a, b in zip(m, q))
        if any(sum(a * b for a, b in zip(ring.basis.monomials[i], q)) != w for i, _ in el.coeffs):
            problems.append(f"reduce{m} is not homogeneous")
    for (j, s), el in zip(item.multiples, vanish):
        if not el.is_zero():
            problems.append(f"reduce(x^{s}·∂{j}f) != 0")
    for m, el in zip(basis, kept):
        if el.coeffs != ((ring.basis.index[m], Fraction(1)),):
            problems.append(f"reduce{m} != {m}")
    if state is not None:
        problems += _series_problems(item, ring, state, n)

    canonical = json.dumps({
        "mu": ring.mu,
        "top": list(ring.top),
        "good_basis": [report.checked_pairs, report.excluded_pairs, report.admissible_pairs,
                       report.passed, [list(k) for k in report.families_seen],
                       [[list(c.exponent_sum), c.pair_count, list(c.k), c.in_family, c.degree_ok]
                        for c in report.classes]],
        "reduce": [_poly_json(ring.monomial_of(el)) for el in reduced + vanish + kept],
        "series": None if state is None else {
            side: [[list(sm), sorted([k, _poly_json(p)] for k, p in el.terms.items())]
                   for sm, el in sorted(table.items())]
            for side, table in (("zeta", state.zeta), ("J", state.jfunc))},
    }, sort_keys=True)
    return t0, t1, canonical, problems


def _series_problems(item: LatticeItem, ring, state, n: int) -> list[str]:
    """The criterion-9 properties of the order-2 primitive-form series."""
    problems = []
    unit = (0,) * n
    low = {sm: el.terms for sm, el in state.zeta.items() if len(sm) <= 1}
    if low != {(): {0: {unit: Fraction(1)}}}:
        problems.append("zeta through order 1 is not [d^Nx]")
    for a in range(len(state.basis)):
        first = {sm: c for sm, c in state.flat_coordinate(a).items() if len(sm) == 1}
        if first != {(a,): Fraction(1)}:
            problems.append(f"flat coordinate t_{a} is not s_{a} to first order")
    if item.insertions is not None:
        x, s = item.insertions
        if x not in ring.basis.index or s not in ring.basis.index:
            problems.append("four-point insertions outside the basis")
        else:
            ix, isv = ring.basis.index[x], ring.basis.index[s]
            for pair in ((ix, ix), (ix, isv)):
                sm = tuple(sorted(pair))
                if any(state.j_coefficient(-1, sm, a) != 0 for a in range(len(state.basis))):
                    problems.append(f"quadratic flat-coordinate correction at {sm}")
    return problems
