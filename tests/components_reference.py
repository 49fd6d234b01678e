"""Reference components for differential tests: the union-find that
diagram._connected_components replaced.  It unions the two endpoint circles
of each arc in arc order, over circle indices in declaration order, and
always hangs the larger root under the smaller."""

from typing import Dict, List

from linkrep.diagram import ComponentPartition, SingularLinkDiagram


def reference_components(d: SingularLinkDiagram):
    """(the component partition, the Hopf nodes whose members it splits)."""
    ids = [f"{h}.{m}" for h in d.hopfs for m in "ab"] + list(d.circles)
    index = {cid: i for i, cid in enumerate(ids)}
    parent = list(range(len(ids)))
    for a in d.arcs:
        i = index[a.start.circle_id]
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        j = index[a.end.circle_id]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    grouped: Dict[int, List[str]] = {}
    for k, cid in enumerate(ids):
        root = parent[k] = parent[parent[k]]
        grouped.setdefault(root, []).append(cid)
    split = tuple(
        h for k, h in enumerate(d.hopfs) if parent[2 * k] != parent[2 * k + 1]
    )
    return ComponentPartition(tuple(map(tuple, grouped.values()))), split
