"""The public API of the package, pinned so that any change to it is explicit,
and the library names the benchmark's tracer wraps."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import jordanlab
from jordanlab.freealg import RewriteSystem
from jordanlab.reps import fiber_basis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PUBLIC_NAMES = [
    "CanonicalParams", "Decomposition", "FiberBasis", "ImageAlgebra",
    "InputFormatError", "IrrationalEigenvaluesError", "JordanAutomorphism",
    "JordanLabError", "NcPoly", "NonSquareError", "NormalPoly",
    "NotFullBlockJordanCoordinatesError", "OutOfRangeError", "Partition",
    "PolyParseError", "QMatrix", "QuiverData", "RelationViolationError", "RepPair",
    "RewriteSystem", "Scalar", "SingularMatrixError",
    "SizeMismatchError", "SpanBuilder", "StratumInfo", "TameLabel", "UniPoly",
    "Violation", "WitnessResult", "alpha_coeff", "apply_automorphism", "block_diag",
    "canonical_pair", "census", "char_poly", "compose_automorphisms", "conjugate",
    "decompose", "deglex_key", "dim_bound", "discover_relations",
    "epsilon_rep", "evaluate", "exact", "extract_params",
    "faithful_witness", "fiber_basis", "full_block_canonicalize",
    "gs_series_coefficients", "hilbert_dim", "ideal_codim", "idempotents",
    "image_algebra", "inverse", "is_nilpotent", "jacobian_rank",
    "jordan_block", "jordan_matrix", "jordan_system", "matrix_from_json",
    "matrix_to_json", "multiply", "nilpotency_index", "normal_form", "nullspace_basis",
    "overlaps", "parse_poly", "parse_scalar", "partitions", "poly_at_matrix",
    "poly_ext_gcd", "poly_gcd", "quiver", "radical_basis", "rank", "rational_roots",
    "rational_spectrum", "reduce_poly", "relation_coefficient_vector", "scalar_str",
    "single_eigenvalue_test", "solve", "squarefree_part", "verify_rep", "x_zero",
]


def test_public_names_are_pinned():
    assert sorted(jordanlab.__all__) == PUBLIC_NAMES
    assert all(hasattr(jordanlab, name) for name in PUBLIC_NAMES)


def annotated_callables():
    """(qualified name, object) of every public function and class of every
    module, and of every function a public class defines in its body."""
    for info in pkgutil.iter_modules(jordanlab.__path__):
        module = importlib.import_module("jordanlab." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = member.fget if isinstance(member, property) else member
                    func = getattr(func, "__func__", func)  # classmethod, staticmethod
                    if inspect.isfunction(func) and func.__module__ == module.__name__:
                        yield f"{module.__name__}.{name}.{attr}", func


def test_annotations_resolve():
    # Annotations are strings (``from __future__ import annotations``), so
    # a name a module never imports fails only when something resolves them.
    checked = 0
    for qualname, obj in annotated_callables():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            raise AssertionError(f"{qualname}: {exc}") from None
        checked += 1
    assert checked > 100


def traced_spans() -> dict:
    """The SPANS table of perfbench/tracing.py, read from its source text."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANS table")


def test_traced_spans_resolve():
    """A rename or privatization of a traced function fails here, not in the
    benchmark: each span names a module function or a method defined in its
    class, and the tracer's two extra hooks find what they wrap."""
    spans = traced_spans()
    assert spans
    for metric, (modname, attr) in spans.items():
        module = importlib.import_module("jordanlab." + modname)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), metric
        else:
            assert callable(getattr(module, attr, None)), metric
    assert "leftmost_match" in vars(RewriteSystem)
    assert callable(fiber_basis.cache_info)
    assert callable(fiber_basis.cache_clear)


SRC = Path(jordanlab.__file__).resolve().parent

# Every function that uses the unverified constructor ``RepPair._proved``.
# Each proves the relation in its docstring, and tests/test_proved.py checks
# its pairs against the verifying ``RepPair(X, Y)``.  A new site is added
# here only with both.
PROVED_SITES = {
    "cli._cmd_rep_build",
    "imagealg._summands",
    "imagealg.ideal_codim",
    "reps.conjugate",
    "sampling.rand_rep",
}


# Every function outside matrices.py that calls the integer kernels
# ``flat_matmul`` or ``_divided`` itself instead of multiplying through
# ``matrices._product``: the right-ideal closure and the seed products of
# ``quiver``, the combinations of A's stored integer rows by the kernel rows
# in ``radical_basis`` (wrapping those rows in a QMatrix would coerce dim A
# * n^2 entries, and the echelon form, not one denominator, scales the
# result), the block products C[:, block] C^-1[block, :] of
# ``_eigenprojections`` on the numerators of C and C^-1, the relation
# check, ``evaluate``'s Horner rule in Y on the numerators of Y and of the
# rows in X, and the sampler: the integer c = L U and c^-1 = U^-1 L^-1 of
# ``_unimodular_ints``, and ``rand_rep``, which conjugates on integers
# (X's numerators over 12, c J as a column shift of c), where ``_product``
# would wrap five matrices.  A new hand-rolled product fails here; it
# belongs in ``_product``.
RAW_PRODUCT_SITES = {
    "imagealg._eigenprojections",
    "imagealg._right_ideal",
    "imagealg.quiver",
    "imagealg.radical_basis",
    "reps._relation_residual",
    "reps.evaluate",
    "sampling._unimodular_ints",
    "sampling.rand_rep",
}

# Every function that reads a ``QMatrix`` as exact scalars: its ``entries``,
# formed as Fractions on first read, or the public readers built on them.
# Only the public readers of one entry or one row do; ``str``, JSON,
# ``block_diag`` and ``full_block_canonicalize`` go through ``m[i, j]``.
# Products, spans, spectral splits, evaluation and sampling read the stored
# numerators ``nums`` over ``den`` instead, so a hot path that brings the
# Fractions back fails here.
ENTRY_READERS = {
    "matrices.QMatrix.__getitem__",
    "matrices.QMatrix.row",
    "matrices.QMatrix.to_rows",
}


def source_sites(match, root: Path = SRC) -> "set[str]":
    """module.function (classes and nested functions dotted in) of every
    node of the package source, or of the modules in root, that ``match``
    accepts."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                sites.add(".".join(scope))
            visit(child, scope)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sites


def test_only_the_proved_sites_skip_the_relation_check():
    assert source_sites(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_proved") == PROVED_SITES


def test_only_the_raw_product_sites_bypass_the_product_kernel():
    sites = source_sites(
        lambda node: isinstance(node, ast.Name) and node.id in ("flat_matmul", "_divided"))
    assert {s for s in sites if not s.startswith("matrices.")} == RAW_PRODUCT_SITES


def test_only_the_entry_readers_form_fraction_entries():
    assert source_sites(lambda node: isinstance(node, ast.Attribute)
                        and node.attr in ("entries", "row", "to_rows")) == ENTRY_READERS
    assert {site.split(".")[0] for site in source_sites(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_entries")} == {"matrices"}
    assert "__post_init__" in vars(jordanlab.QMatrix)


# Every function that reads ``SpanBuilder``'s echelon rows ``_rows`` or its
# ``_rref`` flag.  Outside matrices.py only ``ideal_codim`` does: its
# second closure needs a spanning set of M, not M's reduced rows.  Every
# other reduced row leaves a span through the ``rows`` property, which
# forms the reduced form first; a new private reader fails here.
ECHELON_SITES = {
    "imagealg.ideal_codim",
    "matrices.SpanBuilder",
    "matrices.SpanBuilder.__init__",
    "matrices.SpanBuilder._back_substitute",
    "matrices.SpanBuilder.add",
    "matrices.SpanBuilder.contains",
    "matrices.SpanBuilder.rows",
}


def test_only_the_echelon_sites_read_the_unreduced_rows():
    def match(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("_rows", "_rref")
                or isinstance(node, ast.Constant) and node.value in ("_rows", "_rref"))

    assert source_sites(match) == ECHELON_SITES


# The stored form of ``freealg._Terms``: int numerators over one
# denominator, proved canonical in the ``NormalPoly`` docstring.  Only
# freealg.py reads or writes it; other modules go through ``items()``,
# ``coefficient()`` and ``numerators()``, and the tests read it at one
# site, to check it.
STORED_FORM = ("_nums", "_den")


def test_only_freealg_touches_the_stored_form():
    def match(node):
        return isinstance(node, ast.Attribute) and node.attr in STORED_FORM

    assert {site.split(".")[0] for site in source_sites(match)} == {"freealg"}
    assert source_sites(match, Path(__file__).resolve().parent) == {"test_freealg.stored_form"}


# Every ``functools.lru_cache`` of the package with its maxsize.  An
# unbounded cache keeps everything it meets, so a new one, or a bound
# lifted, is a decision made visible here.
LRU_CACHES = {
    "freealg._expansion": 4096,
    "freealg.jordan_system": None,
    "reps._particular_solution": None,
    "reps.epsilon_rep": None,
    "reps.fiber_basis": None,
    "reps.jordan_block": None,
    "reps.jordan_matrix": None,
    "reps.x_zero": None,
    "strata._partitions_tuple": None,
}


def test_every_lru_cache_is_pinned_with_its_maxsize():
    assert source_sites(
        lambda node: isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
    ) == set(LRU_CACHES)
    for maxsize in set(LRU_CACHES.values()):
        assert source_sites(
            lambda node: isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lru_cache"
            and [(k.arg, ast.literal_eval(k.value)) for k in node.keywords]
            == [("maxsize", maxsize)]
        ) == {site for site, size in LRU_CACHES.items() if size == maxsize}


def test_the_expansion_cache_holds_at_most_the_expansion_budget():
    # It keeps an expansion only if its bound is at most EXPANSION_BITS //
    # maxsize, so its maxsize entries hold at most EXPANSION_BITS bits.
    from jordanlab import freealg

    maxsize = freealg._expansion.cache_info().maxsize
    assert maxsize == LRU_CACHES["freealg._expansion"]
    kept = freealg.EXPANSION_BITS // maxsize
    for c in (1, 7, 100):
        b = 0
        while freealg._bound(b + 1, c) <= kept:
            b += 1
        assert freealg._expansion(b, c) == freealg._x_power_times_y_power(b, c)
        assert freealg._expansion(b + 1, c) is None

