"""Decoration search over a finite rotation group, with conjugacy counting.

Backtracking works on indices into the group's Cayley table (no matrix
products) and assigns nodes in an order that maximizes forced conjugation
propagation: an arc whose word mentions only assigned nodes determines one
endpoint from the other.  Propagation follows the trail of newly assigned
nodes and visits only the arcs that mention them (the diagram's watch
lists).

Symmetry breaking (Crawford, Ginsberg, Luks & Roy, KR 1996): conjugating
every node by one group element maps leaves to leaves and keeps every
relator and Stiefel-Whitney verdict.  So the first node of the order ranges
over one representative r per conjugacy class of its domain (two involution
classes in the octahedral group, one in the icosahedral, every class for a
simple circle), and each leaf found below r is carried to the others by a
left transversal of the centralizer C(r), read from the table's conjugation
table.  The images differ at the first node, so none repeats, and the
expanded leaves are exactly the leaves of the unbroken search.

Every expanded leaf is verified by the public condition checks.  Its
elements belong to one table, so the checks fold its words on table indices
with the same _word_index the backtracking uses.

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
the table's conjugation table; the orbit's members are marked seen and its
minimum kept.  That takes |G| conjugates per orbit, not per solution.

Solution tuples of pi-rotations are compared up to simultaneous rotation via
an exact invariant of their axis configuration: the pairwise squared-cosine
matrix plus the sign pattern of the Gram entries and of all axis triple
products, minimized over independent per-axis sign flips.  It is computed
once per conjugacy orbit in the group, from the axes the table holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

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
    Matrix3,
    is_angle_pi_over_4,
    is_coplanar,
    is_perpendicular,
)
from .rotation import (
    FiniteRotationGroup,
    GroupTable,
    RotationElement,
    axis_of_involution,
    is_involution,
)


class StructuralConditionError(Exception):
    """A decoration-independent condition fails, so the search is vacuous."""


@dataclass(frozen=True)
class SearchOptions:
    group: FiniteRotationGroup
    dedup: str = "so3_canonical"  # none | group_conjugacy | so3_canonical
    # reject Stiefel-Whitney failures while backtracking, on table indices
    prune_sw: bool = False

    def __post_init__(self):
        if len(self.group) == 0:
            raise ValueError("search group must be nonempty")
        if self.dedup not in ("none", "group_conjugacy", "so3_canonical"):
            raise ValueError(f"unknown dedup mode {self.dedup!r}")


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
    table = opts.group.table
    elements, inv, conj = table.elements, table.inv, table.conj
    # Hopf nodes carry pi-rotations (check_sw rejects anything else)
    domains = {node: list(range(len(elements))) for node in d.circles}
    domains.update({node: list(table.involutions) for node in d.hopfs})
    allowed_sets = {node: set(dom) for node, dom in domains.items()}
    watchers = d.arcs_mentioning
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
    transversals = {None: (table.identity,)}
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
                c = _word_index(a.word, assignment, table)
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
                p = _word_index(words[h], assignment, table)
                if p == table.identity or p == assignment[h]:
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

@dataclass(frozen=True)
class ConjugacyClassKey:
    """Complete exact invariant of an ordered tuple of pi-rotations up to
    simultaneous rotation, computed from the unsigned-axis configuration."""

    size: int
    cos_squared: tuple  # upper-triangular (i<j) normalized squared Gram entries
    gram_signs: tuple  # canonical sign pattern of Gram entries, i<j
    triple_signs: tuple  # canonical signs of det(v_i, v_j, v_k), i<j<k


def canonical_class(elements: Sequence[RotationElement]) -> ConjugacyClassKey:
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


def _least_flip_pattern(entries: Sequence[Tuple[int, int]]) -> tuple:
    """Lexicographically least sign pattern under per-axis sign flips.

    Entry (mask, sign) reads sign * (-1)^(number of flipped axes in mask).
    The reachable patterns form an affine space over GF(2), so the minimum is
    greedy: walk the entries in order, keep the parity constraints chosen so
    far as an echelon basis keyed by leading bit, and make every nonzero
    entry that those constraints leave free read -1.
    """
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
    table = opts.group.table
    if opts.dedup == "group_conjugacy":
        # whole decorations up to simultaneous conjugation in the group
        decorations = [[g for _, g in dec.mapping] for dec in solutions]
        return len(_orbit_minima(decorations, table))
    reps = _orbit_minima([[dec[h] for h in hopf_order] for dec in solutions], table)
    return len({canonical_class([table.elements[i] for i in rep]) for rep in reps})


def _orbit_minima(
    tuples: Sequence[Sequence[RotationElement]], table: GroupTable
) -> set:
    """The distinct orbit minima of element tuples under simultaneous
    conjugation, as index tuples; index order is sort_key order, so the
    minima are exact.  Each orbit is swept once, from the first of its
    tuples met."""
    index_tuples = set()
    for elements in tuples:
        idx = tuple(table.index_of(g) for g in elements)
        if None in idx:
            raise ValueError("decoration has an element outside the group")
        index_tuples.add(idx)
    seen = set()
    reps = set()
    for idx in index_tuples:
        if idx in seen:
            continue
        orbit = {tuple(row[g] for g in idx) for row in table.conj}
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
