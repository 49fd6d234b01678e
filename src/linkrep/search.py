"""Decoration search over a finite rotation group, with conjugacy counting.

Backtracking works on indices into the group's Cayley table (a finite
group is its table, so no matrix products) and assigns nodes in an order
that maximizes forced conjugation propagation: an arc whose word mentions
only assigned nodes determines one endpoint from the other.  Propagation follows the trail of newly assigned
nodes and visits only the arcs that mention them (the diagram's watch
lists).

Symmetry breaking (Crawford, Ginsberg, Luks & Roy, KR 1996): conjugating
every node by one group element maps leaves to leaves and keeps every
relator and Stiefel-Whitney verdict.  So the first node of the order ranges
over one representative r per conjugacy class of its domain (two involution
classes in the octahedral group, one in the icosahedral, every class for a
simple circle), and each leaf found below r is carried to the others by a
left transversal of the centralizer C(r), read from the group's conjugation
table.  The images differ at the first node, so none repeats, and the
expanded leaves are exactly the leaves of the unbroken search.

Every expanded leaf is verified by the public condition checks.  Its
elements belong to one group, so the checks fold its words on the group's
indices with the same _word_index the backtracking uses.

With SearchOptions.prune_sw, once every node a Hopf node's
Stiefel-Whitney verdict depends on is assigned, the verdict is computed on
indices: the transport P = C(A_k)^(+-1) ... C(A_1)^(+-1) along the shortest
member path is the product of the diagram's cached member word, read like an
arc word, and a branch where P lies in {I, g} is pruned, as check_sw rejects
it.  The solutions and their order are the same; the leaves are then exactly
the solutions, each still re-verified by the public checks.  It is off by
default because the benchmark pins the number of re-verified REF-1 leaves
(273 leaves for 120 solutions).

Classes are counted one orbit at a time (the orbit algorithm, Holt, Eick &
O'Brien, Handbook of Computational Group Theory, ch. 4): each distinct index
tuple not yet seen has its whole conjugation orbit in the group read from
the group's conjugation table; the orbit's members are marked seen and its
minimum kept.  That takes |G| conjugates per orbit, not per solution.

Solution tuples of pi-rotations are compared up to simultaneous rotation via
an exact invariant of their axis configuration: the pairwise squared-cosine
matrix plus the sign pattern of the Gram entries and of all axis triple
products, minimized over independent per-axis sign flips.  It is computed
once per conjugacy orbit in the group, on integer coordinates: each axis is
a column of n*(M + I), for n the lcm of the denominators of M, with entries
in Z[sqrt(5)], and the key is the same for any vector along the axis.  Each
pair's Gram entry and cross product is taken once, and each triple product
is a dot with a pair's cross product, all on ints.  The least sign pattern
is greedy until its constraints fix every flip, and read in closed form
from the solved flips after that.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ._value import Value, slot_setters
from .conditions import (
    Decoration,
    _word_index,
    check_genus0,
    check_relators,
    check_selfint,
    check_sw,
)
from .diagram import ArcBand, SingularLinkDiagram
from .field import (
    AxisLine,
    _int_cos_squared,
    _int_cross,
    _int_dot,
    _sign,
    is_angle_pi_over_4,
    is_coplanar,
    is_perpendicular,
)
from .rotation import (
    FiniteRotationGroup,
    RotationElement,
    _int_axis,
    axis_of_involution,
    is_involution,
)


class StructuralConditionError(Exception):
    """A decoration-independent condition fails, so the search is vacuous."""


class SearchOptions(Value):
    __slots__ = __match_args__ = ("group", "dedup", "prune_sw")

    def __init__(
        self,
        group: FiniteRotationGroup,
        dedup: str = "so3_canonical",  # none | group_conjugacy | so3_canonical
        # reject Stiefel-Whitney failures while backtracking, on group indices
        prune_sw: bool = False,
    ) -> None:
        if dedup not in ("none", "group_conjugacy", "so3_canonical"):
            raise ValueError(f"unknown dedup mode {dedup!r}")
        _set_group(self, group)
        _set_dedup(self, dedup)
        _set_prune_sw(self, prune_sw)


_set_group, _set_dedup, _set_prune_sw = slot_setters(SearchOptions)


#: Hopf nodes of the reference fixture fixtures/ref1.sld, in declaration order
REF1_HOPF_ORDER = ("TL", "TR", "BL", "BR")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _word_nodes(a: ArcBand) -> List[str]:
    return [ref.node for ref, _ in a.word]


def _node_order(d: SingularLinkDiagram) -> List[str]:
    """Nodes by descending appearance count in arc words (ties by id):
    assigning word-heavy nodes first unlocks forced conjugations early."""
    counts: Dict[str, int] = {n: 0 for n in list(d.hopfs) + list(d.circles)}
    for a in d.arcs:
        for n in _word_nodes(a):
            counts[n] += 1
    return sorted(counts, key=lambda n: (-counts[n], n))


def _class_transversals(domain: Sequence[int], conj: tuple) -> Dict[int, tuple]:
    """One representative r per conjugacy class that meets the domain (a
    union of classes), its least index, mapped to a left transversal of
    its centralizer C(r): for each conjugate x of r, the first c in index
    order with c r c^-1 = x."""
    out: Dict[int, tuple] = {}
    seen = set()
    for r in domain:
        if r in seen:
            continue
        first: Dict[int, int] = {}
        for c, row in enumerate(conj):
            first.setdefault(row[r], c)
        seen.update(first)
        out[r] = tuple(first.values())
    return out


def enumerate_valid_decorations(
    d: SingularLinkDiagram, opts: SearchOptions
) -> List[Decoration]:
    """All total decorations over opts.group passing the relator and
    Stiefel-Whitney checks; deterministic order, the same with and without
    opts.prune_sw.  The first node of the node order ranges over one
    representative per conjugacy class of its domain; each leaf below a
    representative r is expanded by a transversal of C(r), and every
    expanded leaf is re-verified by the public checks.

    A failing genus condition is an error (the search contract presumes it);
    a failing self-intersection condition makes every Stiefel-Whitney path
    product undefined, so the result is simply empty.
    """
    if not check_genus0(d).passed:
        raise StructuralConditionError("genus0 condition fails on the diagram")
    if not check_selfint(d).passed:
        return []

    nodes = _node_order(d)
    group = opts.group
    elements, inv, conj = group.elements, group.inv, group.conj
    # Hopf nodes carry pi-rotations (check_sw rejects anything else)
    domains = {node: list(range(len(elements))) for node in d.circles}
    domains.update({node: list(group.involutions) for node in d.hopfs})
    allowed_sets = {node: set(dom) for node, dom in domains.items()}
    # node -> the arcs whose endpoints or word mention it, in arc order
    watchers: Dict[str, List[ArcBand]] = {node: [] for node in domains}
    for a in d.arcs:
        for node in dict.fromkeys([a.start.node, a.end.node, *_word_nodes(a)]):
            watchers[node].append(a)
    # a Hopf node's SW verdict is determined once the node and every node in
    # its member word are assigned: its support
    words = d.member_words
    support = {h: {h, *(ref.node for ref, _ in words[h])} for h in d.hopfs}
    sw_watchers: Dict[str, List[str]] = {node: [] for node in domains}
    for h in d.hopfs:
        for node in support[h]:
            sw_watchers[node].append(h)

    # symmetry breaking: conjugation permutes leaves and keeps every verdict
    first = nodes[0] if nodes else None
    transversals = {None: (group.identity,)}
    if nodes:
        transversals = _class_transversals(domains[first], conj)
        domains[first] = list(transversals)

    assignment: Dict[str, int] = {}
    node_names = sorted(domains)
    leaves: List[Tuple[Optional[int], tuple]] = []  # (representative, leaf)

    def propagate(trail: List[str]) -> bool:
        """Force endpoints through fully-worded arcs that mention a newly
        assigned node, extending the trail; False on contradiction."""
        i = 0
        while i < len(trail):
            for a in watchers[trail[i]]:
                c = _word_index(a.word, assignment, group)
                if c is None:
                    continue
                g = assignment.get(a.start.node)
                h = assignment.get(a.end.node)
                if g is not None and h is not None:
                    if conj[c][g] != h:
                        return False
                elif g is not None:
                    forced = conj[c][g]
                    if forced not in allowed_sets[a.end.node]:
                        return False
                    assignment[a.end.node] = forced
                    trail.append(a.end.node)
                elif h is not None:
                    forced = conj[inv[c]][h]
                    if forced not in allowed_sets[a.start.node]:
                        return False
                    assignment[a.start.node] = forced
                    trail.append(a.start.node)
            i += 1
        return True

    def sw_holds(trail: List[str]) -> bool:
        """False if a Hopf node whose support the trail completed fails SW."""
        if not opts.prune_sw:
            return True
        for h in dict.fromkeys(h for node in trail for h in sw_watchers[node]):
            if all(node in assignment for node in support[h]):
                p = _word_index(words[h], assignment, group)
                if p == group.identity or p == assignment[h]:
                    return False
        return True

    def descend():
        unassigned = [n for n in nodes if n not in assignment]
        if not unassigned:
            leaves.append(
                (assignment.get(first), tuple(assignment[n] for n in node_names))
            )
            return
        node = unassigned[0]
        for g in domains[node]:
            assignment[node] = g
            trail = [node]
            if propagate(trail) and sw_holds(trail):
                descend()
            for n in trail:
                del assignment[n]

    descend()
    solutions: List[Tuple[tuple, Decoration]] = []
    for r, leaf in leaves:
        for c in transversals[r]:
            image = tuple(conj[c][i] for i in leaf)
            dec = Decoration(tuple(zip(node_names, [elements[i] for i in image])))
            # re-verify through the public checks: no pruning soundness holes
            if check_relators(d, dec).passed and check_sw(d, dec).passed:
                solutions.append((image, dec))
    solutions.sort(key=lambda pair: pair[0])
    return [dec for _, dec in solutions]


# ---------------------------------------------------------------------------
# conjugacy canonicalization
# ---------------------------------------------------------------------------

class ConjugacyClassKey(Value):
    """Complete exact invariant of an ordered tuple of pi-rotations up to
    simultaneous rotation, computed from the unsigned-axis configuration."""

    __slots__ = __match_args__ = ("size", "cos_squared", "gram_signs", "triple_signs")

    def __init__(
        self,
        size: int,
        cos_squared: tuple,  # upper-triangular (i<j) normalized squared Gram entries
        gram_signs: tuple,  # canonical sign pattern of Gram entries, i<j
        triple_signs: tuple,  # canonical signs of det(v_i, v_j, v_k), i<j<k
    ) -> None:
        _set_size(self, size)
        _set_cos_squared(self, cos_squared)
        _set_gram_signs(self, gram_signs)
        _set_triple_signs(self, triple_signs)


_set_size, _set_cos_squared, _set_gram_signs, _set_triple_signs = slot_setters(
    ConjugacyClassKey
)


def canonical_class(elements: Sequence[RotationElement]) -> ConjugacyClassKey:
    """The key of a tuple of pi-rotations up to simultaneous rotation.

    Each axis is taken in integer coordinates: a nonzero column of n*(M + I)
    for n the lcm of the denominators of M, with entries in Z[sqrt(5)].  A
    positive rescale keeps every sign and every cos^2, and a negative one
    is a per-axis sign flip, over which the sign pattern is minimized
    anyway; so any nonzero vector along the axis gives the same key.  The
    Gram entries and the cross product of each pair are taken once, on
    ints, and the sign of each triple v_i . (v_j x v_k) is read from them.
    """
    if not all(map(is_involution, elements)):
        raise ValueError("canonical_class requires pi-rotations")
    axes = [_int_axis(g) for g in elements]
    n = len(axes)
    pairs = list(combinations(range(n), 2))
    norms = [_int_dot(v, v) for v in axes]
    gram = [_int_dot(axes[i], axes[j]) for i, j in pairs]
    cos2 = tuple(
        _int_cos_squared(g, norms[i], norms[j]) for (i, j), g in zip(pairs, gram)
    )
    # v_j x v_k for each pair that ends a triple i < j < k
    cross = {(j, k): _int_cross(axes[j], axes[k]) for j, k in pairs if j}
    signs = _least_flip_pattern(
        [(1 << i | 1 << j, _sign(*g)) for (i, j), g in zip(pairs, gram)]
        + [
            (1 << i | 1 << j | 1 << k, _sign(*_int_dot(axes[i], cross[j, k])))
            for i, j, k in combinations(range(n), 3)
        ]
    )
    return ConjugacyClassKey(
        size=n,
        cos_squared=cos2,
        gram_signs=signs[: len(pairs)],
        triple_signs=signs[len(pairs) :],
    )


def _least_flip_pattern(entries: Sequence[Tuple[int, int]]) -> tuple:
    """Lexicographically least sign pattern under per-axis sign flips.

    Entry (mask, sign) reads sign * (-1)^(number of flipped axes in mask).
    The reachable patterns form an affine space over GF(2), so the minimum is
    greedy: walk the entries in order, keep the parity constraints chosen so
    far as an echelon basis keyed by leading bit, and make every nonzero
    entry that those constraints leave free read -1.  At full rank every
    later entry reduces to mask 0, so it is read from the flips the basis
    fixes (back-substituted from the lowest leading bit).
    """
    n = max((mask for mask, _ in entries), default=0).bit_length()
    basis: Dict[int, Tuple[int, int]] = {}  # leading bit -> (mask, parity)
    out = []
    for mask, sign in entries:
        if len(basis) == n:
            break
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
    flips = 0  # meets every constraint, so it decides the entries after full rank
    for bit, (m, p) in sorted(basis.items()):  # set the leading bit to give parity p
        flips |= ((m & flips).bit_count() & 1 ^ p) << (bit - 1)
    rest = entries[len(out) :]
    return tuple(out) + tuple(-s if (m & flips).bit_count() & 1 else s for m, s in rest)


def count_classes(
    solutions: Sequence[Decoration],
    hopf_order: Sequence[str],
    opts: SearchOptions,
) -> int:
    """Distinct solution classes under the configured dedup mode.

    Both conjugacy modes reduce each tuple to its orbit minimum under
    conjugation in opts.group (ValueError for an element outside it).
    so3_canonical then keys one Hopf tuple per orbit: the key is invariant
    under simultaneous rotation, so conjugates share it.
    """
    if opts.dedup == "none":
        return len(set(tuple(dec.mapping) for dec in solutions))
    group = opts.group
    if opts.dedup == "group_conjugacy":
        # whole decorations up to simultaneous conjugation in the group
        decorations = [[g for _, g in dec.mapping] for dec in solutions]
        return len(_orbit_minima(decorations, group))
    reps = _orbit_minima([[dec[h] for h in hopf_order] for dec in solutions], group)
    return len({canonical_class([group.elements[i] for i in rep]) for rep in reps})


def _orbit_minima(
    tuples: Sequence[Sequence[RotationElement]], group: FiniteRotationGroup
) -> set:
    """The distinct orbit minima of element tuples under simultaneous
    conjugation, as index tuples; index order is sort_key order, so the
    minima are exact.  Each orbit is swept once, from the first of its
    tuples met."""
    index_tuples = set()
    for elements in tuples:
        idx = tuple(group.index_of(g) for g in elements)
        if None in idx:
            raise ValueError("decoration has an element outside the group")
        index_tuples.add(idx)
    seen = set()
    reps = set()
    for idx in index_tuples:
        if idx in seen:
            continue
        orbit = {tuple(row[g] for g in idx) for row in group.conj}
        seen |= orbit
        reps.add(min(orbit))
    return reps


def verify_onepoint_geometry(dec: Decoration) -> bool:
    """The axis geometry forced on the reference fixture's Hopf tuple:
    TL perpendicular to BL, TR perpendicular to BR, and each pair's common
    perpendicular coplanar with and at pi/4 to the axes of the other pair."""
    for name in REF1_HOPF_ORDER:
        if not is_involution(dec[name]):
            raise ValueError(f"decoration of {name} is not a pi-rotation")
    tl, tr, bl, br = (axis_of_involution(dec[n]) for n in ("TL", "TR", "BL", "BR"))
    if not (is_perpendicular(tl, bl) and is_perpendicular(tr, br)):
        return False
    perp_right = tr.direction.cross(br.direction)
    perp_left = tl.direction.cross(bl.direction)
    if perp_right.is_zero() or perp_left.is_zero():
        return False
    pr = AxisLine(perp_right)
    pl = AxisLine(perp_left)
    return (
        is_coplanar(pr, tl, bl)
        and is_angle_pi_over_4(pr, tl)
        and is_angle_pi_over_4(pr, bl)
        and is_coplanar(pl, tr, br)
        and is_angle_pi_over_4(pl, tr)
        and is_angle_pi_over_4(pl, br)
    )
