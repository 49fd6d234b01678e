"""Reference reading of the genus-zero condition on triples of parallel
arcs, for property tests: the cross-check that linkrep.conditions.check_genus0
used to append to its diagnostics.  Three arcs joining the same two circles
span a two-disc ribbon graph; its genus is one exactly when the cyclic
orders of the three bands at the two circles match, and a ribbon subgraph
never has larger genus than its component.  So a finding only restates a
genus0 failure, and the visit of every triple is cubic in the number of
parallel arcs."""

from itertools import combinations
from typing import Dict, List, Tuple

from linkrep.diagram import ArcBand, SingularLinkDiagram


def _cyclic_orientation(slots: Tuple[int, int, int]) -> int:
    """+1 if the three distinct slots appear in even (cyclic) order, -1 otherwise."""
    a, b, c = slots
    inversions = (a > b) + (a > c) + (b > c)
    return 1 if inversions % 2 == 0 else -1


Finding = Tuple[str, str, Tuple[str, ...]]  # two circle ids, three arc ids


def triple_arc_findings(d: SingularLinkDiagram) -> List[Finding]:
    """(circle, circle, arc ids) for every triple of arcs directly joining
    two distinct circles whose cyclic orders at the two circles match."""
    by_pair: Dict[Tuple[str, str], List[ArcBand]] = {}
    for a in d.arcs:
        c1, c2 = a.start.circle_id, a.end.circle_id
        if c1 != c2:
            by_pair.setdefault(tuple(sorted((c1, c2))), []).append(a)
    findings = []
    for (c1, c2), arcs in sorted(by_pair.items()):
        for triple in combinations(sorted(arcs, key=lambda a: a.id), 3):
            slots1 = tuple(
                a.start_slot if a.start.circle_id == c1 else a.end_slot for a in triple
            )
            slots2 = tuple(
                a.start_slot if a.start.circle_id == c2 else a.end_slot for a in triple
            )
            if _cyclic_orientation(slots1) == _cyclic_orientation(slots2):
                findings.append((c1, c2, tuple(a.id for a in triple)))
    return findings
