"""Exact-arithmetic computations with the quadratic algebra k<x,y>/(xy-yx-y^2):
normal forms, finite-dimensional representations, image-algebra analysis and
the stratum census of the representation variety."""

from .errors import (
    IrrationalEigenvaluesError,
    JordanLabError,
    NonSquareError,
    NotFullBlockJordanCoordinatesError,
    OutOfRangeError,
    PolyParseError,
    RelationViolationError,
    RepeatedBlockSizesError,
    SingularMatrixError,
    SizeMismatchError,
)
from .scalars import Scalar, exact, parse_scalar, scalar_str
from .polynomials import UniPoly, poly_ext_gcd, poly_gcd, rational_roots, squarefree_part
from .matrices import (
    QMatrix,
    SpanBuilder,
    block_diag,
    char_poly,
    inverse,
    is_nilpotent,
    matrix_from_json,
    matrix_to_json,
    nilpotency_index,
    nullspace_basis,
    poly_at_matrix,
    rank,
    solve,
)
from .freealg import (
    JordanAutomorphism,
    NcPoly,
    NormalPoly,
    RewriteSystem,
    alpha_coeff,
    apply_automorphism,
    compose_automorphisms,
    deglex_key,
    gs_series_coefficients,
    hilbert_dim,
    jordan_system,
    multiply,
    normal_form,
    overlaps,
    parse_poly,
    reduce_poly,
)
from .reps import (
    CanonicalParams,
    FiberBasis,
    Partition,
    RepPair,
    Violation,
    WitnessResult,
    canonical_pair,
    conjugate,
    eigenvalues_distinct_blocks,
    epsilon_rep,
    evaluate,
    extract_params,
    faithful_witness,
    fiber_basis,
    full_block_canonicalize,
    is_b_toeplitz,
    jordan_block,
    jordan_matrix,
    sylvester_operator,
    verify_rep,
    x_zero,
)
from .imagealg import (
    ImageAlgebra,
    QuiverData,
    dim_bound,
    discover_relations,
    ideal_codim,
    idempotents,
    image_algebra,
    quiver,
    radical_basis,
    rational_spectrum,
    relation_coefficient_vector,
)
from .strata import (
    Decomposition,
    StratumInfo,
    TameLabel,
    census,
    decompose,
    jacobian_rank,
    partitions,
    single_eigenvalue_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
