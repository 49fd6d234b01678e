"""Reference ribbon genus for differential tests: the per-component
computation that linkrep.diagram.ribbon_genus replaced.  Each component
rescans every arc to count its edges, and each face trace starts at the
least unvisited half-edge, so both are quadratic in the size of the
diagram."""

from typing import Dict, List, Tuple

from linkrep.diagram import SingularLinkDiagram, components


def _half_edges(d: SingularLinkDiagram) -> Dict[str, List[Tuple[str, str]]]:
    at_circle: Dict[str, List[Tuple[int, Tuple[str, str]]]] = {}
    for a in d.arcs:
        at_circle.setdefault(a.start.circle_id, []).append((a.start_slot, (a.id, "s")))
        at_circle.setdefault(a.end.circle_id, []).append((a.end_slot, (a.id, "e")))
    return {cid: [h for _, h in sorted(items)] for cid, items in at_circle.items()}


def _boundary_cycle_count(cyclic: Dict[str, List[Tuple[str, str]]]) -> int:
    succ = {}
    for half_edges in cyclic.values():
        n = len(half_edges)
        for i, h in enumerate(half_edges):
            succ[h] = half_edges[(i + 1) % n]
    mate = {h: (h[0], "e" if h[1] == "s" else "s") for h in succ}
    unvisited = set(succ)
    cycles = 0
    while unvisited:
        start = min(unvisited)
        h = start
        cycles += 1
        while True:
            unvisited.discard(h)
            h = succ[mate[h]]
            if h == start:
                break
    return cycles


def reference_ribbon_genus(d: SingularLinkDiagram) -> List[Tuple[Tuple[str, ...], int]]:
    cyclic = _half_edges(d)
    out = []
    for block in components(d).blocks:
        block_set = set(block)
        e = len([a for a in d.arcs if a.start.circle_id in block_set])
        f = _boundary_cycle_count({cid: cyclic[cid] for cid in block if cid in cyclic})
        f += sum(1 for cid in block if cid not in cyclic)
        out.append((block, (2 - (len(block) - e + f)) // 2))
    return out
