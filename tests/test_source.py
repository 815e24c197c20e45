"""Guards on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "lgmirror"


def test_no_assert_statements():
    """`python -O` strips asserts, so every invariant in src/ must be an
    explicit check."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _cache_decorated(path):
    """Names of the functions in one source file decorated with
    functools.cache or lru_cache, in any spelling."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("cache", "lru_cache"):
                yield f"{path.stem}.{node.name}"


def test_memoization_is_per_polynomial():
    """Derived objects, the Jacobi ring included, are memoized on the
    polynomial they come from; the only process-wide cache is the parser."""
    found = sorted(name for path in sorted(SOURCE.glob("*.py"))
                   for name in _cache_decorated(path))
    assert found == ["cli.build_parser"]


def test_subcommands_are_added_in_one_place():
    """`cli.build_parser` adds every subcommand from one table, so src/
    calls `add_parser` at exactly one place."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_parser"]
    assert len(found) == 1, found


def test_polynomial_stores_one_integer_form():
    """W is stored as its summands: InvertiblePolynomial's fields are N, the
    summands, `head`, D, Dq and the memo, so it holds no N×N matrix and no
    `Fraction`.  E, q and ĉ are views built on first read, and E⁻¹ is
    applied along the summands by `inverse_times`."""
    tree = ast.parse((SOURCE / "poly.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "InvertiblePolynomial")
    fields = {node.target.id: ast.unparse(node.annotation) for node in cls.body
              if isinstance(node, ast.AnnAssign)}
    assert list(fields) == ["N", "summands", "head", "D", "Dq", "memo"]
    assert [name for name, annotation in fields.items() if "Fraction" in annotation] == []


# Definitions that only tests call, each with the reason it stays in src/.
TEST_ONLY = {
    "linalg.invert": "the reference E⁻¹ `inverse_times` is checked against",
    "linalg.solve": "the reference solve, a view of `invert`",
    "linalg.mat_vec": "the product `solve` and the tests check solutions with",
    "linalg.solve_general": "the whole-slice reference `slice_divide` solves with; "
                            "a span of the benchmark's span list",
    "linalg.RowSpace": "the elimination kernel of the references above and of "
                       "`OracleQuotient`; a span of the benchmark's span list",
    "linalg._subtract": "`RowSpace`'s one elimination step",
    "jacobi.OracleQuotient": "the blind normal-form oracle the ring is checked against",
    "poly.InvertiblePolynomial.inverse_exponents": "a span of the benchmark's span list",
}


def _definitions(tree, prefix=""):
    """(qualified name, node) of every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _names(tree, skip=()):
    """Identifiers the code reads, outside the subtrees in ``skip``.  Strings
    and docstrings carry no `Name` or `Attribute` node, so a mention there
    does not count."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_no_definition_only_tests_use():
    """Every function, class and method in src/ is named by the package, the
    benchmark or the demos; the ones only tests call are listed above.  A
    name read inside a listed definition does not count as a use."""
    root = SOURCE.parents[1]
    defs, trees = {}, []
    for path in sorted(SOURCE.glob("*.py")):
        trees.append(ast.parse(path.read_text(encoding="utf-8")))
        defs.update(_definitions(trees[-1], path.stem + "."))
    for path in sorted(root.glob("perfbench/*.py")) + sorted(root.glob("demos/*.py")):
        trees.append(ast.parse(path.read_text(encoding="utf-8")))
    listed = {defs[name] for name in TEST_ONLY if name in defs}
    used = {n for tree in trees for n in _names(tree, listed)}
    unused = [name for name, node in defs.items()
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used
              and not any(name == e or name.startswith(e + ".") for e in TEST_ONLY)]
    assert unused == []
    # the list holds no stale entry: each name exists and is still unused
    assert [e for e in TEST_ONLY if e not in defs or defs[e].name in used] == []


# The only definitions, in src/ and the benchmark, that read the view E,
# each with what it reads there; every other pairing of a row of E with a
# variable goes through `W.head`.
E_READERS = {
    "jacobi._partials": "the relations ∂ⱼf, one term per row",
    "mirror.final_type_insertions": "M_i, column i of E",
    "poly.InvertiblePolynomial.__repr__": "the value's text, which shows E",
    "spans._hooks.ring_build": "the key that counts distinct rings built",
}


def _owners(path, match):
    """Qualified names of the innermost definitions in one source file that
    hold a node ``match`` accepts (the module's name for a node outside any)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {node: path.stem for node in ast.walk(tree) if match(node)}
    # outer definitions come first, so an inner one overwrites them
    for name, definition in _definitions(tree, path.stem + "."):
        for node in ast.walk(definition):
            if node in owner:
                owner[node] = name
    return set(owner.values())


def _reads_E(node):
    return isinstance(node, ast.Attribute) and node.attr == "E"


def test_one_reader_of_the_rows_of_E():
    """E's row structure is read through `W.head`; only the definitions
    listed above read the attribute E itself."""
    paths = sorted(SOURCE.glob("*.py")) + [SOURCE.parents[1] / "perfbench" / "spans.py"]
    found = set().union(*(_owners(path, _reads_E) for path in paths))
    assert sorted(found - set(E_READERS)) == []
    # the list holds no stale entry: each listed definition still reads E
    assert sorted(set(E_READERS) - found) == []


def _names_lcm_or_gcd(node):
    """A read, call or import of a function named lcm or gcd."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    return name in ("lcm", "gcd")


def test_one_phase_denominator():
    """D = W.D, the exponent of G_W, is taken once, in `_assemble`, and
    every phase of the program lives over it: no other definition (and no
    import) takes an lcm or a gcd to bring phases to a common denominator."""
    found = set().union(*(_owners(path, _names_lcm_or_gcd)
                          for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["poly.InvertiblePolynomial._assemble"]


def test_summand_walks_stay_integer():
    """`_SummandRing._walk` carries each value as an integer pair
    (num, den), and so do `JacobiRing.divide`, `brieskorn_reduce` and
    `perturbative_expand`, which take its values on: `Fraction` is named in
    none of their loops.  Only what `reduce` returns, the stored ζ and J
    entries, the value of `sg_four_point` and the ``--trace`` steps are
    built as ``Fraction``s."""
    for module, name in [("jacobi", "_SummandRing._walk"), ("jacobi", "JacobiRing.divide"),
                         ("bmodel", "brieskorn_reduce"), ("bmodel", "perturbative_expand")]:
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        node = dict(_definitions(tree))[name]
        loops = [n for n in node.body if isinstance(n, (ast.For, ast.While))]
        assert loops, name
        assert "Fraction" not in {n for loop in loops for n in _names(loop)}, name


def _calls(attribute):
    """A matcher for a call of ``attribute``, as a plain name or as the
    attribute of any object."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == attribute
    return match


def test_one_brieskorn_reduction():
    """The B side reduces in one place: `brieskorn_reduce` is the only
    caller of a ring's `divide` (besides `JacobiRing.divide`, which calls
    each summand's), and `perturbative_expand`, which stores the ζ and J
    entries, is the only builder of a `LatticeElement`."""
    for attribute, owners in [("divide", ["bmodel.brieskorn_reduce", "jacobi.JacobiRing.divide"]),
                              ("LatticeElement", ["bmodel.perturbative_expand"])]:
        found = set().union(*(_owners(path, _calls(attribute))
                              for path in sorted(SOURCE.glob("*.py"))))
        assert sorted(found) == owners, attribute


def test_one_basis_box_listing():
    """A summand's basis box is stepped in one place, `summand_box`: the
    ring's basis listing and the good-basis check call it directly, and no
    other definition does."""
    found = set().union(*(_owners(path, _calls("summand_box"))
                          for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["bmodel.good_basis_check", "jacobi.JacobiRing.basis"]


def _reads_window(node):
    """A read of a z-window bound, as a plain name or as an attribute."""
    name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name in ("Z_MIN", "Z_MAX")


def test_one_z_window():
    """The Laurent z-window is one decision: `brieskorn_reduce` enforces it
    and `perturbative_expand` reads its order cap off it; every other
    definition stores or reads what the reducer returned."""
    found = set().union(*(_owners(path, _reads_window) for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["bmodel.brieskorn_reduce", "bmodel.perturbative_expand"]


def _calls_from_exponent_matrix(node):
    return isinstance(node, ast.Attribute) and node.attr == "from_exponent_matrix"


def test_derived_polynomials_are_not_parsed():
    """Only the two input readers hand monomials on to be classified; the
    transpose and the atomic pieces are read off W."""
    found = set().union(*(_owners(path, _calls_from_exponent_matrix)
                          for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["poly.InvertiblePolynomial.from_json",
                             "poly.InvertiblePolynomial.from_string"]


def _checks_an_int(node):
    """``type(x) is int`` or ``type(x) is not int``: an exponent's type check."""
    return (isinstance(node, ast.Compare) and _calls("type")(node.left)
            and [ast.unparse(c) for c in node.comparators] == ["int"])


def test_each_input_format_is_checked_once():
    """Each input format is checked by its own reader: `from_json`, the one
    reader of a dense matrix, is the only definition in src/ that checks an
    exponent's type, and `from_exponent_matrix` does nothing but classify
    the row maps it is handed and assemble the result."""
    found = set().union(*(_owners(path, _checks_an_int) for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["poly.InvertiblePolynomial.from_json"]
    tree = ast.parse((SOURCE / "poly.py").read_text(encoding="utf-8"))
    node = dict(_definitions(tree))["InvertiblePolynomial.from_exponent_matrix"]
    called = {ast.unparse(n.func).split(".")[-1] for n in ast.walk(node) if isinstance(n, ast.Call)}
    assert sorted(called) == ["_assemble", "_classify_rows"]


def _imports(tree):
    """(module, name) of every import in one parsed source file, with the
    module as written, so a relative import keeps no package prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module or "", alias.name) for alias in node.names)


def test_pieces_are_built_in_poly():
    """Every polynomial is assembled in `poly`, from its summands and
    `head` alone: only the parser, the transpose and `piece` call
    `_assemble`, which takes those two.  E⁻¹ is stated once, in
    `InvertiblePolynomial.inverse_times`, which `_assemble` takes the weights
    from and which every reader of E⁻¹ calls; the transpose and `piece`
    read no matrix of W.  No module imports a private name of `poly`, and
    the B side imports nothing from the A side."""
    for attribute, owners in [("_assemble", ["poly.InvertiblePolynomial.from_exponent_matrix",
                                             "poly.InvertiblePolynomial.piece",
                                             "poly.InvertiblePolynomial.transpose"]),
                              ("inverse_times", ["bmodel.good_basis_check",
                                                 "groups.generator_rho",
                                                 "mirror.sector_of",
                                                 "poly.InvertiblePolynomial._assemble",
                                                 "poly.InvertiblePolynomial.inverse_exponents",
                                                 "selection.CorrelatorSpec.build"])]:
        found = set().union(*(_owners(path, _calls(attribute))
                              for path in sorted(SOURCE.glob("*.py"))))
        assert sorted(found) == owners, attribute
    defined = [f"{path.stem}.{name}" for path in sorted(SOURCE.glob("*.py"))
               for name, _ in _definitions(ast.parse(path.read_text(encoding="utf-8")))
               if name.split(".")[-1] == "inverse_times"]
    assert defined == ["poly.InvertiblePolynomial.inverse_times"]
    defs = dict(_definitions(ast.parse((SOURCE / "poly.py").read_text(encoding="utf-8"))))
    assert [a.arg for a in defs["InvertiblePolynomial._assemble"].args.args] == ["summands", "head"]
    for name in ("InvertiblePolynomial.transpose", "InvertiblePolynomial.piece"):
        assert sorted({"E", "inverse_times", "inverse_exponents"} & set(_names(defs[name]))) == [], name
    private = [f"{path.stem}: {name}" for path in sorted(SOURCE.glob("*.py"))
               for module, name in _imports(ast.parse(path.read_text(encoding="utf-8")))
               if module.split(".")[-1] == "poly" and name and name.startswith("_")]
    assert private == []
    bmodel = ast.parse((SOURCE / "bmodel.py").read_text(encoding="utf-8"))
    assert [m for m, name in _imports(bmodel) if "amodel" in (m.split(".")[-1], name)] == []


def _reads_tables(node):
    return isinstance(node, ast.Attribute) and node.attr in ("zeros", "moves")


def test_one_walk_over_the_relation_tables():
    """`reduce` and `divide` share one traversal of the binomial graph: only
    `_SummandRing.__init__`, which compiles the relation tables, and
    `_SummandRing._walk` read ``zeros`` and ``moves``."""
    found = set().union(*(_owners(path, _reads_tables) for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["jacobi._SummandRing.__init__", "jacobi._SummandRing._walk"]


def test_good_basis_sectors_stay_integer():
    """`good_basis_check` buckets the basis by one integer per mirror
    sector, read off f itself, and finds each inverse bucket by negating it
    mod D: it builds no `GroupElement` and no transpose, and calls neither
    `sector_of` nor an `inverse`."""
    tree = ast.parse((SOURCE / "bmodel.py").read_text(encoding="utf-8"))
    node = dict(_definitions(tree))["good_basis_check"]
    assert sorted({"GroupElement", "sector_of", "inverse", "transpose"} & set(_names(node))) == []


def test_a_side_stays_integer():
    """Line-bundle degrees and Chern sums are integers over D = W.D: the
    six A-side definitions name `Fraction` only in an error text, which
    shows a degree over D, and in the value `b2_correlator` and
    `guere_correlator` return, which each builds once."""
    value_builders = {"b2_correlator", "guere_correlator"}
    found = []
    for module, names in [("selection", ["line_bundle_degrees"]),
                          ("amodel", ["boundary_decorations", "_chern_combo", "_require_footprint",
                                      "b2_correlator", "guere_correlator"])]:
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        defs = dict(_definitions(tree))
        for name in names:
            node = defs[name]
            kinds = (ast.Raise, ast.Return) if name in value_builders else ast.Raise
            skip = {n for n in ast.walk(node) if isinstance(n, kinds)}
            if name in value_builders:
                skip.add(node.returns)
            if "Fraction" in set(_names(node, skip)):
                found.append(name)
    assert found == []


def test_basis_and_sectors_are_stepped_over_the_box():
    """`JacobiRing.basis` takes its degrees and `good_basis_check` its
    sectors stepped along the summand's sub-boxes, with no per-monomial
    degree or sector sum, and `good_basis_check` builds no ring; the chain
    exclusions are read only by the membership test, since the sub-boxes
    hold no excluded monomial."""
    for module, name in [("jacobi", "JacobiRing.basis"), ("bmodel", "good_basis_check")]:
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        node = dict(_definitions(tree))[name]
        assert sorted({"degree", "sector_of", "sector_numerators"} & set(_names(node))) == [], name
        if module == "bmodel":
            assert sorted({"ring_of", "JacobiRing"} & set(_names(node))) == [], name
    found = set().union(*(_owners(path, lambda n: isinstance(n, ast.Name) and n.id == "_chain_excluded")
                          for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["jacobi._SummandRing.in_basis"]


def test_box_test_has_no_generator():
    """`_SummandRing.in_basis` runs on every node of the walk, so it tests
    the box with a plain loop, not a generator expression."""
    tree = ast.parse((SOURCE / "jacobi.py").read_text(encoding="utf-8"))
    node = dict(_definitions(tree))["_SummandRing.in_basis"]
    assert [n.lineno for n in ast.walk(node) if isinstance(n, ast.GeneratorExp)] == []


def test_group_is_read_off_the_summands():
    """`enumerate_group` multiplies out one cycle per summand: it runs no
    closure search, so it holds no `while` loop."""
    tree = ast.parse((SOURCE / "groups.py").read_text(encoding="utf-8"))
    node = dict(_definitions(tree))["enumerate_group"]
    assert [n.lineno for n in ast.walk(node) if isinstance(n, ast.While)] == []


def test_rows_are_classified_in_one_walk():
    """`_classify_rows` follows the successor map in one walk per summand,
    chains, Fermats and loops alike: it holds one `while` loop."""
    tree = ast.parse((SOURCE / "poly.py").read_text(encoding="utf-8"))
    node = dict(_definitions(tree))["_classify_rows"]
    assert len([n for n in ast.walk(node) if isinstance(n, ast.While)]) == 1


def _subtracts_a_sign(node):
    """``x - (-1) ** k`` or ``x -= (-1) ** k``: the loop's correction to
    the product of its exponents."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        right = node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
        right = node.value
    else:
        return False
    return (isinstance(right, ast.BinOp) and isinstance(right.op, ast.Pow)
            and ast.unparse(right.left) in ("-1", "(-1)"))


def test_one_determinant_formula():
    """`AtomicSummand.det` is the one determinant formula in src/: no other
    definition subtracts (−1)^N from a product of exponents, so
    `inverse_times` reads each summand's determinant off it."""
    found = sorted({f"{path.stem}.{name}"
                    for path in sorted(SOURCE.glob("*.py"))
                    for name, node in _definitions(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for n in ast.walk(node) if _subtracts_a_sign(n)})
    assert found == ["poly.AtomicSummand.det"]


def test_mirror_does_not_import_jacobi():
    """The mirror map ψ reads only the polynomial and its group: `mirror`
    imports nothing from `jacobi`, and the ring-side degree check lives
    with the `mirror` command that builds the ring."""
    tree = ast.parse((SOURCE / "mirror.py").read_text(encoding="utf-8"))
    imported = {alias.name if isinstance(node, ast.Import) else node.module or ""
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert [m for m in imported if m.split(".")[-1] == "jacobi"] == []


def _iterates_target_order(node):
    """A comprehension over a call of ``target_order`` that reads
    ``.exponents``: the loop's memo key."""
    return (isinstance(node, (ast.GeneratorExp, ast.ListComp))
            and any(_calls("target_order")(g.iter) for g in node.generators)
            and any(isinstance(n, ast.Attribute) and n.attr == "exponents" for n in ast.walk(node.elt)))


def test_one_theorem_gate():
    """The gate admits a target once and hands it on: neither correlator
    side imports `admissible_target`, only the gate builds a `Target`, and
    the loop's memo key is stated once in src/, in `Target.key`."""
    for side in ("amodel", "bmodel"):
        tree = ast.parse((SOURCE / f"{side}.py").read_text(encoding="utf-8"))
        assert [m for m, name in _imports(tree) if name == "admissible_target"] == [], side
    sources = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SOURCE.glob("*.py"))]
    found = set().union(*(_owners(path, _calls("Target")) for path, _ in sources))
    assert sorted(found) == ["mirror.admissible_target"]
    keys = [path.stem for path, tree in sources for n in ast.walk(tree) if _iterates_target_order(n)]
    assert keys == ["mirror"]
    assert sorted(_owners(SOURCE / "mirror.py", _iterates_target_order)) == ["mirror.Target.key"]


def _repeats_first_insertion(node):
    """A four-entry tuple or list display whose first entry, a name, is
    repeated once and no other is: an insertion list (x, x, s, top), or its
    sectors."""
    if not (isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Load)
            and len(node.elts) == 4):
        return False
    entries = [ast.unparse(e) for e in node.elts]
    return isinstance(node.elts[0], ast.Name) and entries[0] == entries[1] and len(set(entries)) == 3


def test_one_final_type_correlator():
    """(x_t, x_t, M_t/x_t², top) is stated once, in
    `amodel.final_type_correlator`, which ``axioms`` and the associativity
    chains read as it stands and `_final_type_sectors` maps to sectors: no
    other definition writes a four-entry list that repeats its first entry,
    and only it and the Jacobi ring call `top_of`."""
    for match, owners in [(_repeats_first_insertion, ["amodel._final_type_sectors",
                                                      "amodel.final_type_correlator"]),
                          (_calls("top_of"), ["amodel.final_type_correlator",
                                              "jacobi.JacobiRing.__init__"])]:
        found = set().union(*(_owners(path, match) for path in sorted(SOURCE.glob("*.py"))))
        assert sorted(found) == owners


def test_one_footprint_check():
    """The final-type footprint (every insertion narrow, smooth-fiber
    degrees −2 at the target and −1 elsewhere) is checked once, in
    `amodel._require_footprint`, for the concave and the limit formula: no
    other definition in `amodel` asks whether a sector is narrow, and only
    it and `boundary_decorations` take the smooth degrees."""
    path = SOURCE / "amodel.py"
    for attribute, owners in [("_require_footprint", ["amodel.b2_correlator", "amodel.guere_correlator"]),
                              ("is_narrow", ["amodel._require_footprint"]),
                              ("line_bundle_degrees", ["amodel._require_footprint",
                                                       "amodel.boundary_decorations"])]:
        assert sorted(_owners(path, _calls(attribute))) == owners, attribute


def _reads_variables(node):
    return isinstance(node, ast.Attribute) and node.attr == "variables"


def test_one_loop_reader():
    """x_t's exponent and the variable x_p that points at x_t are read off
    the summand in one place, `amodel._loop_read`, for the dispatch, the
    limit formula and the wdvv2 reconstruction: no other definition in
    `amodel` reads a summand's ``variables``, so none can take x_p from
    the labels."""
    path = SOURCE / "amodel.py"
    assert sorted(_owners(path, _reads_variables)) == ["amodel._loop_read"]
    assert sorted(_owners(path, _calls("_loop_read"))) == ["amodel._four_point_report",
                                                          "amodel.guere_correlator",
                                                          "amodel.wdvv_case2"]


def _prints(node):
    """A call of ``print`` or a read of ``sys.stdout`` or ``sys.stderr``."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
            or isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and getattr(node.value, "id", None) == "sys")


def test_one_command_frame():
    """`cli.main` is the only definition in src/ that prints: it writes each
    command's output and error message, and the handlers return theirs."""
    found = set().union(*(_owners(path, _prints) for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == ["cli.main"]


def _raises_unsupported(node):
    """A ``raise UnsupportedByTheorem(…)``."""
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "UnsupportedByTheorem")


def test_cli_states_no_theorem_rule():
    """The theorem's refusals are raised where its rules live (the gate in
    `mirror`, the chain shapes in `wdvv`); in `cli` only `axioms` refuses,
    when no variable is admissible."""
    assert sorted(_owners(SOURCE / "cli.py", _raises_unsupported)) == ["cli.cmd_axioms"]


def _imports_dataclasses(node):
    """``import dataclasses`` or ``from dataclasses import …``."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"


def test_no_dataclasses():
    """Records are `NamedTuple`s: importing `dataclasses` would cost every
    invocation its import and a method generation per record class."""
    found = set().union(*(_owners(path, _imports_dataclasses) for path in sorted(SOURCE.glob("*.py"))))
    assert sorted(found) == []


def _fresh_env():
    """The environment of a fresh interpreter that imports this src/."""
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_package_import_loads_every_benchmark_module():
    """The benchmark finds the modules of its ENTRY_POINTS through
    `sys.modules`, after importing only `lgmirror` and `lgmirror.cli`; a
    fresh interpreter must load each of them, and neither `dataclasses`
    nor `wdvv`, which only `lgmirror wdvv` runs.  In a test session other
    tests import them too, which would hide a module the package stopped
    importing or started to."""
    tree = ast.parse((SOURCE.parents[1] / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    entry_points = next(ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign)
                        and [t.id for t in node.targets] == ["ENTRY_POINTS"])
    wanted = sorted({module for _, module, _ in entry_points})
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lgmirror, lgmirror.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert sorted(set(wanted) - loaded) == []
    assert sorted({"dataclasses", "lgmirror.wdvv"} & loaded) == []


def test_wdvv_command_loads_its_module():
    """`lgmirror wdvv` imports `wdvv` itself: in a fresh process it prints
    the same bytes as an in-process run, where `wdvv` is already loaded."""
    import test_golden
    argv = ["wdvv", "--expr", "x1^5*x2+x2^2*x1", "--json"]
    proc = subprocess.run([sys.executable, "-m", "lgmirror.cli", *argv],
                          capture_output=True, text=True, encoding="utf-8", env=_fresh_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == test_golden.run(argv)
