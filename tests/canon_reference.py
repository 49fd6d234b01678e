"""Reference reading of linkrep.search.canonical_class, for differential
tests: the key as it was computed before the integer kernel.  Each axis is
the group's canonical AxisLine, the Gram entries and cos^2 are ExactScalar
arithmetic, and every triple sign is the sign of a Matrix3 determinant, one
matrix per triple."""

from itertools import combinations
from typing import Sequence

from linkrep.field import Matrix3
from linkrep.rotation import RotationElement, axis_of_involution, is_involution
from linkrep.search import ConjugacyClassKey, _least_flip_pattern


def reference_canonical_class(elements: Sequence[RotationElement]) -> ConjugacyClassKey:
    for g in elements:
        if not is_involution(g):
            raise ValueError("canonical_class requires pi-rotations")
    axes = [axis_of_involution(g).direction for g in elements]
    n = len(axes)
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    gram = [[axes[i].dot(axes[j]) for j in range(n)] for i in range(n)]
    cos2 = tuple(
        (gram[i][j] * gram[i][j]) / (gram[i][i] * gram[j][j]) for i, j in pairs
    )
    comps = [v.components() for v in axes]
    signs = _least_flip_pattern(
        [(1 << i | 1 << j, gram[i][j].sign()) for i, j in pairs]
        + [
            (1 << i | 1 << j | 1 << k, Matrix3((comps[i], comps[j], comps[k])).det().sign())
            for i, j, k in triples
        ]
    )
    return ConjugacyClassKey(
        size=n,
        cos_squared=cos2,
        gram_signs=signs[: len(pairs)],
        triple_signs=signs[len(pairs) :],
    )
