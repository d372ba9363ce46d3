"""The public API of the package, pinned so that any change to it is explicit."""

from __future__ import annotations

import jordanlab

PUBLIC_NAMES = [
    "CanonicalParams", "Decomposition", "FiberBasis", "ImageAlgebra",
    "IrrationalEigenvaluesError", "JordanAutomorphism", "JordanLabError", "NcPoly",
    "NonSquareError", "NormalPoly", "NotFullBlockJordanCoordinatesError",
    "OutOfRangeError", "Partition", "PolyParseError", "QMatrix", "QuiverData",
    "RelationViolationError", "RepPair", "RepeatedBlockSizesError", "RewriteSystem",
    "Scalar", "SingularMatrixError", "SizeMismatchError", "SpanBuilder", "StratumInfo",
    "TameLabel", "UniPoly", "Violation", "WitnessResult", "alpha_coeff",
    "apply_automorphism", "block_diag", "canonical_pair", "census", "char_poly",
    "compose_automorphisms", "conjugate", "decompose", "deglex_key", "dim_bound",
    "discover_relations", "eigenvalues_distinct_blocks", "epsilon_rep", "errors",
    "evaluate", "exact", "extract_params", "faithful_witness", "fiber_basis", "freealg",
    "full_block_canonicalize", "gs_series_coefficients", "hilbert_dim", "ideal_codim",
    "idempotents", "image_algebra", "imagealg", "inverse", "is_b_toeplitz",
    "is_nilpotent", "jacobian_rank", "jordan_block", "jordan_matrix", "jordan_system",
    "matrices", "matrix_from_json", "matrix_to_json", "multiply", "nilpotency_index",
    "normal_form", "nullspace_basis", "overlaps", "parse_poly", "parse_scalar",
    "partitions", "poly_at_matrix", "poly_ext_gcd", "poly_gcd", "polynomials", "quiver",
    "radical_basis", "rank", "rational_roots", "rational_spectrum", "reduce_poly",
    "relation_coefficient_vector", "reps", "scalar_str", "scalars",
    "single_eigenvalue_test", "solve", "squarefree_part", "strata",
    "sylvester_operator", "verify_rep", "x_zero",
]


def test_public_names_are_pinned():
    assert sorted(jordanlab.__all__) == PUBLIC_NAMES
