"""Cross-check for ``jordanlab.imagealg._right_ideal``, used only by the tests.

The library continues each X-chain from the primitive row the span stored
for the candidate.  The oracle is the closure it replaced, kept verbatim:
each chain continues from the candidate as it came, the raw product.  Both
make the same accept/reject sequence and close the same span.
"""

from __future__ import annotations

from jordanlab.matrices import SpanBuilder, flat_matmul
from jordanlab.reps import RepPair
from jordanlab.scalars import primitive_integral


def right_ideal_from_products(rep: RepPair, seeds) -> SpanBuilder:
    """The right ideal M = seeds*A, closed level by level in Y.

    Seeds and candidates are row-major integer entry sequences; the seeds
    need not lie in A.  Level j holds the nonzero products s*Y^j of the
    seeds s; Y is nilpotent, so there are at most n levels.  From the
    deepest level to level 0, each candidate v is followed by v*X, v*X^2,
    ... until the span rejects one.  ``SpanBuilder.add`` stores the
    primitive multiple of each candidate, which spans the same line; the
    products are taken of the candidate as it came, and by the primitive
    integer multiples of X and Y (closing under products by a nonzero
    multiple of a matrix is closing under products by the matrix), so
    every product is integral and no fraction is formed.

    Theorem: the span is M.  Proof, with A = k[X] + YA and AY = YA
    (``quiver``, (a) and (b)):
    (i) The level recursion.  AY^j = Y^jA, so M*Y^j = sum of s_i Y^j A: each
        M*Y^j is a right ideal, and A = k[X] + YA splits it as
        M*Y^j = sum of s_i Y^j k[X] + M*Y^(j+1).
    (ii) The stopping rule.  Let S be X-stable and v*X^m lie in
        span(v, ..., v*X^(m-1)) + S.  That span plus S is then X-stable,
        so it holds v*k[X].
    (iii) By induction from the deepest level, below which M*Y^(j+1) = 0:
        the span before level j is M*Y^(j+1), which is X-stable; after each
        of the level's X-chains it is still X-stable and, by (ii), holds
        that candidate's s_i Y^j k[X].  So by (i) the span after level j is
        M*Y^j, and after level 0 it is M.  Every vector added lies in M.
    The span is canonical (``SpanBuilder``), so ``rows`` and ``pivots`` are
    those of any other closure of the same seeds.  (The span before each
    chain is X-stable in any order of the chains, so the theorem needs no
    order; deepest first makes the span before level j equal M*Y^(j+1),
    which the count below uses.)

    Cost: for the identity seed each level ends with exactly one
    rejection, so ``image_algebra`` makes dim A + nu calls of
    ``SpanBuilder.add``, nu the nilpotency index of Y.  Y^j is not in
    Y^(j+1)A for j < nu: else Y^jA = Y^(j+1)A, and right products by Y,
    which map Y^iA onto Y^(i+1)A since AY = YA, give Y^jA = Y^nu A = 0.
    """
    n = rep.n
    x, y = primitive_integral(rep.X.entries), primitive_integral(rep.Y.entries)
    levels = [[vec for vec in seeds if any(vec)]]
    while levels[-1]:
        levels.append([w for w in (flat_matmul(v, y, n, n, n) for v in levels[-1]) if any(w)])
    span = SpanBuilder(n * n)
    for level in reversed(levels):
        for vec in level:
            while span.add(vec):
                vec = flat_matmul(vec, x, n, n, n)
    return span
