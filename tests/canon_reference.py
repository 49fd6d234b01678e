"""Reference reading of linkrep.search.canonical_class, for differential
tests: the key as it was computed before the integer kernel.  Each axis is
read from the matrix (tests/matrix_reference.py), the Gram entries and cos^2
are ExactScalar arithmetic, every triple sign is the sign of a cofactor
determinant there, one matrix per triple, and the least sign pattern is the
greedy over every entry, with no closed form after full rank."""

from itertools import combinations
from typing import Dict, Sequence, Tuple

from linkrep.rotation import RotationElement
from linkrep.search import ConjugacyClassKey

from matrix_reference import det, reference_axis, reference_is_involution


def reference_least_flip_pattern(entries: Sequence[Tuple[int, int]]) -> tuple:
    """Lexicographically least sign pattern under per-axis sign flips, where
    entry (mask, sign) reads sign * (-1)^(number of flipped axes in mask).
    Greedy: walk the entries in order, keep the parity constraints chosen
    so far as an echelon basis keyed by leading bit, and make every nonzero
    entry that those constraints leave free read -1."""
    basis: Dict[int, Tuple[int, int]] = {}  # leading bit -> (mask, parity)
    out = []
    for mask, sign in entries:
        parity = 0
        while mask and mask.bit_length() in basis:
            m, p = basis[mask.bit_length()]
            mask ^= m
            parity ^= p
        if mask and sign:
            basis[mask.bit_length()] = (mask, parity ^ (sign > 0))
            out.append(-1)
        else:
            out.append(-sign if parity else sign)
    return tuple(out)


def reference_canonical_class(elements: Sequence[RotationElement]) -> ConjugacyClassKey:
    for g in elements:
        if not reference_is_involution(g):
            raise ValueError("canonical_class requires pi-rotations")
    axes = [reference_axis(g).direction for g in elements]
    n = len(axes)
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    gram = [[axes[i].dot(axes[j]) for j in range(n)] for i in range(n)]
    cos2 = tuple(
        (gram[i][j] * gram[i][j]) / (gram[i][i] * gram[j][j]) for i, j in pairs
    )
    comps = [v.components() for v in axes]
    signs = reference_least_flip_pattern(
        [(1 << i | 1 << j, gram[i][j].sign()) for i, j in pairs]
        + [
            (1 << i | 1 << j | 1 << k, det((comps[i], comps[j], comps[k])).sign())
            for i, j, k in triples
        ]
    )
    return ConjugacyClassKey(
        size=n,
        cos_squared=cos2,
        gram_signs=signs[: len(pairs)],
        triple_signs=signs[len(pairs) :],
    )
