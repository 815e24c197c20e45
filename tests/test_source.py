"""Guards on the package source itself."""

import ast
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


def test_polynomial_stores_one_integer_form():
    """E⁻¹ and the grading are stored once, as integers over D; the only
    `Fraction` fields of InvertiblePolynomial are the reported q and ĉ."""
    tree = ast.parse((SOURCE / "poly.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "InvertiblePolynomial")
    found = [node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign) and "Fraction" in ast.unparse(node.annotation)]
    assert found == ["q", "charge"]
