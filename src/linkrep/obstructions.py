"""Numerical obstruction calculus for negative definite 4-manifolds.

Characteristic classes of the traceless endomorphism bundle, the Chern-Weil
energy window, expected dimension, the exact reducibility lock, and the
mod-4 divisibility obstructions coming from the Pontryagin square.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

from ._value import Value, slot_setters

#: energies at which the moduli space is compact regardless of the metric
COMPACT_ENERGIES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

HUREWICZ_NOTE = (
    "informational: non-emptiness additionally requires that no dual basis class "
    "is represented by a sphere; sphere representability is not computable here"
)


class BundleProfile(Value):
    """Topological profile of a rank-2 bundle with characteristic first Chern class
    over a negative definite 4-manifold (b2+ = 0, diagonal lattice)."""

    __slots__ = __match_args__ = (
        "b1", "b2", "c2", "c1sq", "p1", "energy", "compact", "flat",
        "irreducible_locked", "d",
    )

    def __init__(
        self, b1: int, b2: int, c2: int, c1sq: int, p1: int, energy: Fraction,
        compact: bool, flat: bool, irreducible_locked: bool, d: int,
    ) -> None:
        _set_b1(self, b1)
        _set_b2(self, b2)
        _set_c2(self, c2)
        _set_c1sq(self, c1sq)
        _set_p1(self, p1)
        _set_energy(self, energy)
        _set_compact(self, compact)
        _set_flat(self, flat)
        _set_irreducible_locked(self, irreducible_locked)
        _set_d(self, d)


(_set_b1, _set_b2, _set_c2, _set_c1sq, _set_p1, _set_energy, _set_compact, _set_flat,
 _set_irreducible_locked, _set_d) = slot_setters(BundleProfile)


def _splitting_exists(b2: int, c2: int) -> bool:
    """Is c2 = sum of b2 terms of the form l(l-1), l integer?

    The terms are 2 T(l-1) for triangular T, so: for b2 >= 3, iff c2 is even
    (Gauss: every n is a sum of three triangular numbers); for b2 = 2, iff
    2 c2 + 1 = ((2l-1)^2 + (2m-1)^2) / 2 is a sum of two squares;
    for b2 = 1, iff 4 c2 + 1 = (2l-1)^2 is a perfect square.

    For b2 = 2 the answer is exact only while 2 c2 + 1 < MR_EXACT_BOUND,
    where the primality test is proven; a larger c2 is a ValueError.
    """
    if c2 < 0:
        return False
    if b2 >= 3:
        return c2 % 2 == 0
    if b2 == 2:
        if 2 * c2 + 1 >= MR_EXACT_BOUND:
            raise ValueError(
                f"b2 = 2 is decided only for 2*c2 + 1 < {MR_EXACT_BOUND}"
            )
        return _sum_of_two_squares(2 * c2 + 1)
    return _is_square(4 * c2 + 1)


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _sum_of_two_squares(n: int) -> bool:
    """Fermat: n >= 1 is a sum of two squares iff every prime p = 3 (mod 4)
    divides n to an even power."""
    if n % 4 == 3:  # squares are 0 or 1 mod 4
        return False
    exponents = Counter(_prime_factors(n))
    return all(e % 2 == 0 for p, e in exponents.items() if p % 4 == 3)


#: Miller-Rabin with these bases is exact below MR_EXACT_BOUND (Sorenson &
#: Webster, Math. Comp. 2017); above that it is a strong probable-prime test
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def _prime_factors(n: int) -> List[int]:
    """The prime factors of n >= 1 with multiplicity, unordered: trial
    division by the Miller-Rabin bases, then Pollard rho."""
    out = []
    for p in _MR_BASES:
        while n % p == 0:
            out.append(p)
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            out.append(m)
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES, for n > 1 with no factor among them."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Floyd cycle
    finding); x -> x^2 + c for c = 1, 2, ... until one splits n."""
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


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


class ObstructionReport(Value):
    __slots__ = __match_args__ = (
        "psq", "divisibility_pass", "summand_verdicts", "hurewicz_flag"
    )

    def __init__(
        self, psq: int, divisibility_pass: bool,
        summand_verdicts: Optional[Tuple[Tuple[int, bool], ...]] = None,
        hurewicz_flag: str = HUREWICZ_NOTE,
    ) -> None:
        if divisibility_pass != (psq == 0):
            raise ValueError("divisibility verdict must mirror the residue")
        _set_psq(self, psq)
        _set_divisibility_pass(self, divisibility_pass)
        _set_summand_verdicts(self, summand_verdicts)
        _set_hurewicz_flag(self, hurewicz_flag)


_set_psq, _set_divisibility_pass, _set_summand_verdicts, _set_hurewicz_flag = (
    slot_setters(ObstructionReport)
)


def divisibility_obstruction(b2: int) -> ObstructionReport:
    """A representation with characteristic Stiefel-Whitney class and p1 = 0
    forces b2 divisible by four."""
    if b2 < 1:
        raise ValueError("b2 must be at least 1")
    psq = (-b2) % 4  # pontryagin_square_diag of the all-ones class, in closed form
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
    psq = 0 if not failing else (-failing[0]) % 4
    return ObstructionReport(
        psq=psq, divisibility_pass=not failing, summand_verdicts=verdicts
    )
