"""Stratum census, module decomposition and the orbit-map Jacobian rank.

The stratum attached to a partition consists of all verified pairs whose Y
has that Jordan type; it fibers over the conjugacy class of Y with fiber the
affine solution space computed in reps.fiber_basis, so every stratum has
dimension exactly n^2.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .errors import OutOfRangeError
from .imagealg import _summands, dim_bound, rational_spectrum
from .matrices import QMatrix, _echelon, char_poly
from .polynomials import UniPoly
from .reps import Partition, RepPair, _centralizer_diagonals
from .scalars import Scalar, _Record, cleared, exact


class TameLabel(enum.Enum):
    TAME = "tame"
    WILD = "wild"
    UNKNOWN = "unknown"


class StratumInfo(_Record):
    __slots__ = _fields = ("partition", "fiber_dim", "base_dim", "stratum_dim",
                           "image_dim_bound", "tame")

    def __init__(self, partition: Partition, fiber_dim: int, base_dim: int,
                 stratum_dim: int, image_dim_bound: int, tame: TameLabel):
        super().__init__(partition, fiber_dim, base_dim, stratum_dim, image_dim_bound, tame)

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "fiber_dim": self.fiber_dim,
            "base_dim": self.base_dim,
            "stratum_dim": self.stratum_dim,
            "image_dim_bound": self.image_dim_bound,
            "tame": self.tame.value,
        }


@lru_cache(maxsize=None)
def _partitions_tuple(n: int) -> tuple:
    def gen(total, maxpart):
        if total == 0:
            yield ()
            return
        for k in range(min(total, maxpart), 0, -1):
            for rest in gen(total - k, k):
                yield (k,) + rest

    return tuple(Partition(parts) for parts in gen(n, n))


def partitions(n: int) -> "list[Partition]":
    """All partitions of n, weakly decreasing parts, descending lex order."""
    if n < 1:
        raise OutOfRangeError("partitions are defined for n >= 1")
    return list(_partitions_tuple(n))


def _tame_label(p: Partition) -> TameLabel:
    # Classified only for the full-block stratum: tame through n = 4, wild
    # from n = 5 on.  Other strata are deliberately reported as unknown.
    if len(p.parts) == 1:
        return TameLabel.TAME if p.n <= 4 else TameLabel.WILD
    return TameLabel.UNKNOWN


def census(n: int) -> "list[StratumInfo]":
    """One row per partition: fiber/base/stratum dimensions and labels.

    fiber_dim is the dimension of the centralizer of Y = jordan_matrix(p),
    counted as the number of diagonals ``reps._centralizer_diagonals``
    enumerates: the ``fiber_basis`` theorem proves their 0/1 matrices a
    basis, so no matrix or cell list is built.  It is not read off the
    closed forms sum of min(p_a, p_b) or the paper's sum of (2(r - i) - 1)
    p_i, because the acceptance suite checks the census against both, and
    a count taken from either would check that formula against itself.
    """
    out = []
    for p in partitions(n):
        fiber_dim = sum(1 for _ in _centralizer_diagonals(p))
        out.append(StratumInfo(
            partition=p,
            fiber_dim=fiber_dim,
            base_dim=n * n - fiber_dim,
            stratum_dim=n * n,
            image_dim_bound=dim_bound(n),
            tame=_tame_label(p),
        ))
    return out


class Decomposition(_Record):
    """Summands per distinct eigenvalue of X plus the conjugating matrix.

    change_of_basis columns are the generalized eigenbases in eigenvalue
    order; conjugating the original pair by its inverse gives exactly the
    block-diagonal assembly of the summands.
    """

    __slots__ = _fields = ("summands", "eigenvalues", "change_of_basis")  # summands: RepPairs

    def __init__(self, summands: tuple, eigenvalues: tuple, change_of_basis: QMatrix):
        super().__init__(summands, eigenvalues, change_of_basis)

    def __iter__(self):
        return iter(self.summands)

    def __len__(self) -> int:
        return len(self.summands)

    def __getitem__(self, i):
        return self.summands[i]


def decompose(rep: RepPair) -> Decomposition:
    """Split into submodules on the generalized eigenspaces of X.

    change_of_basis is C of ``imagealg._eigenbasis``, whose block for
    lambda spans the eigenspace ker (X - lambda I)^mult, and the summands
    are the diagonal blocks of the conjugated pair, which are proved
    Y-invariant and verified in ``imagealg._summands``.  Requires the
    spectrum of X to be rational.
    """
    spectrum = rational_spectrum(rep.X)
    c, summands = _summands(rep, spectrum)
    return Decomposition(tuple(summands), tuple(lam for lam, _ in spectrum), c)


def single_eigenvalue_test(rep: RepPair) -> bool:
    """True iff char(X) = (t - lambda)^n for a rational lambda.

    False certifies decomposability; True alone does not certify
    indecomposability.  Defined for n >= 1.
    """
    n = rep.n
    if n < 1:
        raise OutOfRangeError("single_eigenvalue_test is defined for n >= 1")
    lam = exact(Fraction(rep.X.trace()) / n)
    return char_poly(rep.X) == UniPoly.from_roots([lam] * n)


def jacobian_rank(n: int, c_coeffs, x_coeffs) -> int:
    """Rank of the differential of the stabilizer orbit map at C.

    C = I + sum c_k J^k runs over the unipotent stabilizer of J = J_n and
    X = x_zero(n) + q(J), q = sum x_k J^k, over the zero-eigenvalue slice;
    D = J^k (k = 1..n-1) goes to C^-1 X D - C^-1 D C^-1 X C.  The first
    n - 1 entries of each list are read, missing ones are 0; the rank,
    computed here, is n - 2.

    Theorem: that image is J^(k+1)(kC - JC')/C^2 mod J^n, whatever X is.
    Proof: [x_zero, J] = J^2 and q(J) commutes with k[J], so [X, p(J)] =
    J^2 p'(J); C^-1 is in k[J] (c_0 = 1), so C^-1 X C = X + J^2 C'/C, and D
    commutes with C, so the image is C^-1 [X, D] - D J^2 C'/C^2 =
    kJ^(k+1)/C - J^(k+2)C'/C^2.  X drops out, so x_coeffs cannot change the
    result (a float there still raises TypeError).  p(J) mod J^n is the upper-triangular Toeplitz matrix with
    entry (r, s) = p_(s-r), fixed linearly by its first row, so the matrix
    images have the rank of their coefficient rows (``_orbit_differential``).
    The rows are taken at the integers c_i D^i = C_i D^(i-1) (c_i = C_i/D,
    ``cleared``), i.e. at C(DJ): A_m becomes A_m D^m, so column m of row k
    is scaled by D^m D^-(k+1), which keeps the rank.
    """
    if n < 2:
        raise OutOfRangeError("jacobian_rank is defined for n >= 2")
    c, d = cleared(exact(v) for v in islice(c_coeffs, n - 1))
    for v in islice(x_coeffs, n - 1):
        exact(v)
    c = [v * d ** i for i, v in enumerate(c)] + [0] * (n - 1 - len(c))
    return _echelon(_orbit_differential(n, c), n).rank


def _orbit_differential(n: int, c: list) -> "list[list[Scalar]]":
    """Row k - 1: the coefficients of J^0..J^(n-1) in the image of J^k at
    C = 1 + sum c[i-1] J^i.  With A = 1/C (A_0 = 1, A_m = -sum_(i=1..m)
    c_i A_(m-i)) and A' = -C'/C^2, it is J^(k+1)(kA + JA') = J^2 (J^k A)',
    whose J^m coefficient is (m - 1) A_(m-1-k)."""
    inv = [1]
    for m in range(1, n):
        inv.append(-sum(c[i - 1] * inv[m - i] for i in range(1, m + 1)))
    return [[0] * (k + 1) + [(m - 1) * inv[m - 1 - k] for m in range(k + 1, n)]
            for k in range(1, n)]
