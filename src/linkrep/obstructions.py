"""Numerical obstruction calculus for negative definite 4-manifolds.

Characteristic classes of the traceless endomorphism bundle, the Chern-Weil
energy window, expected dimension, the exact reducibility lock, and the
mod-4 divisibility obstructions coming from the Pontryagin square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Sequence, Tuple

#: energies at which the moduli space is compact regardless of the metric
COMPACT_ENERGIES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

HUREWICZ_NOTE = (
    "informational: non-emptiness additionally requires that no dual basis class "
    "is represented by a sphere; sphere representability is not computable here"
)


@dataclass(frozen=True)
class BundleProfile:
    """Topological profile of a rank-2 bundle with characteristic first Chern class
    over a negative definite 4-manifold (b2+ = 0, diagonal lattice)."""

    b1: int
    b2: int
    c2: int
    c1sq: int
    p1: int
    energy: Fraction
    compact: bool
    flat: bool
    irreducible_locked: bool
    d: int


def _splitting_exists(b2: int, c2: int) -> bool:
    """Is c2 = sum of b2 terms of the form l(l-1), l integer?

    The terms are 2 T(l-1) for triangular T, so: for b2 >= 3, iff c2 is even
    (Gauss: every n is a sum of three triangular numbers); for b2 = 2, iff
    2 c2 + 1 = ((2l-1)^2 + (2m-1)^2) / 2 is a sum of two squares;
    for b2 = 1, iff 4 c2 + 1 = (2l-1)^2 is a perfect square.
    """
    if c2 < 0:
        return False
    if b2 >= 3:
        return c2 % 2 == 0
    if b2 == 2:
        n = 2 * c2 + 1
        return any(_is_square(n - a * a) for a in range(isqrt(n) + 1))
    return _is_square(4 * c2 + 1)


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def bundle_profile(b1: int, b2: int, c2: int) -> BundleProfile:
    """Derived invariants for c1 = sum of the diagonalizing basis elements."""
    if b2 < 1:
        raise ValueError("b2 must be at least 1")
    if b1 < 0:
        raise ValueError("b1 must be non-negative")
    c1sq = -b2
    p1 = -4 * c2 + c1sq
    energy = Fraction(c2) - Fraction(c1sq, 4)
    flat = energy == 0
    compact = energy in COMPACT_ENERGIES
    irreducible_locked = not _splitting_exists(b2, c2)
    d = -2 * p1 + 3 * (b1 - 1)  # b2+ = 0 throughout
    return BundleProfile(
        b1=b1,
        b2=b2,
        c2=c2,
        c1sq=c1sq,
        p1=p1,
        energy=energy,
        compact=compact,
        flat=flat,
        irreducible_locked=irreducible_locked,
        d=d,
    )


def pontryagin_square_diag(c: Sequence[int]) -> int:
    """Pontryagin square of the mod-2 reduction of an integral class in the
    diagonal negative definite lattice: (-sum c_i^2) mod 4."""
    if len(c) == 0:
        raise ValueError("empty class vector")
    return (-sum(ci * ci for ci in c)) % 4


@dataclass(frozen=True)
class ObstructionReport:
    psq: int
    divisibility_pass: bool
    summand_verdicts: Optional[Tuple[Tuple[int, bool], ...]] = None
    hurewicz_flag: str = HUREWICZ_NOTE

    def __post_init__(self):
        if self.divisibility_pass != (self.psq == 0):
            raise ValueError("divisibility verdict must mirror the residue")


def divisibility_obstruction(b2: int) -> ObstructionReport:
    """A representation with characteristic Stiefel-Whitney class and p1 = 0
    forces b2 divisible by four."""
    if b2 < 1:
        raise ValueError("b2 must be at least 1")
    psq = pontryagin_square_diag([1] * b2)
    return ObstructionReport(psq=psq, divisibility_pass=psq == 0)


def connected_sum_obstruction(summand_b2s: Sequence[int]) -> ObstructionReport:
    """Every summand with nonzero b2 must itself have b2 divisible by four.

    The report's residue is 0 when all summands pass, otherwise the residue
    of the first failing summand, so that the pass flag mirrors the residue.
    """
    if any(b < 0 for b in summand_b2s):
        raise ValueError("summand b2 values must be non-negative")
    verdicts = tuple((b, b == 0 or b % 4 == 0) for b in summand_b2s)
    failing = [b for b, ok in verdicts if not ok]
    psq = 0 if not failing else pontryagin_square_diag([1] * failing[0])
    return ObstructionReport(
        psq=psq, divisibility_pass=not failing, summand_verdicts=verdicts
    )
