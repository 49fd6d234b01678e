"""Reference search for differential tests: the exhaustive backtracking
that linkrep.search replaced.  Propagation rescans every arc of the diagram
until nothing changes, and the Stiefel-Whitney condition is left to the
public re-verification of each leaf.  Also the per-solution orbit minima
that the orbit-at-a-time count replaced."""

from typing import Dict, List, Optional, Sequence, Tuple

from linkrep.conditions import (
    Decoration,
    check_genus0,
    check_relators,
    check_selfint,
    check_sw,
)
from linkrep.diagram import ArcBand, SingularLinkDiagram
from linkrep.rotation import FiniteRotationGroup, RotationElement
from linkrep.search import SearchOptions, StructuralConditionError


def _node_order(d: SingularLinkDiagram) -> List[str]:
    counts: Dict[str, int] = {n: 0 for n in list(d.hopfs) + list(d.circles)}
    for a in d.arcs:
        for ref, _ in a.word:
            counts[ref.node] += 1
    return sorted(counts, key=lambda n: (-counts[n], n))


def reference_enumerate(d: SingularLinkDiagram, opts: SearchOptions) -> List[Decoration]:
    if not check_genus0(d).passed:
        raise StructuralConditionError("genus0 condition fails on the diagram")
    if not check_selfint(d).passed:
        return []

    nodes = _node_order(d)
    group = opts.group
    elements, mult, inv = group.elements, group.mul, group.inv
    identity_idx = group.identity
    domains = {node: list(range(len(elements))) for node in d.circles}
    domains.update({node: list(group.involutions) for node in d.hopfs})
    allowed_sets = {node: set(dom) for node, dom in domains.items()}

    assignment: Dict[str, int] = {}
    node_names = sorted(domains)
    solutions: List[Tuple[tuple, Decoration]] = []

    def word_product(a: ArcBand) -> Optional[int]:
        out = identity_idx
        for ref, sign in a.word:
            g = assignment.get(ref.node)
            if g is None:
                return None
            out = mult[out][g if sign == 1 else inv[g]]
        return out

    def conj(c: int, g: int) -> int:
        return mult[mult[c][g]][inv[c]]

    def propagate(trail: List[str]) -> bool:
        changed = True
        while changed:
            changed = False
            for a in d.arcs:
                c = word_product(a)
                if c is None:
                    continue
                g = assignment.get(a.start.node)
                h = assignment.get(a.end.node)
                if g is not None and h is not None:
                    if conj(c, g) != h:
                        return False
                elif g is not None:
                    forced = conj(c, g)
                    if forced not in allowed_sets[a.end.node]:
                        return False
                    assignment[a.end.node] = forced
                    trail.append(a.end.node)
                    changed = True
                elif h is not None:
                    forced = conj(inv[c], h)
                    if forced not in allowed_sets[a.start.node]:
                        return False
                    assignment[a.start.node] = forced
                    trail.append(a.start.node)
                    changed = True
        return True

    def descend():
        unassigned = [n for n in nodes if n not in assignment]
        if not unassigned:
            dec = Decoration.of({n: elements[i] for n, i in assignment.items()})
            if check_relators(d, dec).passed and check_sw(d, dec).passed:
                solutions.append((tuple(assignment[n] for n in node_names), dec))
            return
        node = unassigned[0]
        for g in domains[node]:
            assignment[node] = g
            trail = [node]
            if propagate(trail):
                descend()
            for n in trail:
                del assignment[n]

    descend()
    solutions.sort(key=lambda pair: pair[0])
    return [dec for _, dec in solutions]


def reference_orbit_minima(
    tuples: Sequence[Sequence[RotationElement]], group: FiniteRotationGroup
) -> set:
    """The orbit minimum of every tuple, each conjugated by every element."""
    mul, inv = group.mul, group.inv
    reps = set()
    for elements in tuples:
        idx = [group.index_of(g) for g in elements]
        if None in idx:
            raise ValueError("decoration has an element outside the group")
        reps.add(
            min(
                tuple(mul[mul[c][g]][inv[c]] for g in idx)
                for c in range(len(mul))
            )
        )
    return reps
