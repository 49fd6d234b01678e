"""Reference diagram validation for differential tests: linkrep.diagram's
validate before it read the node-id sets directly and checked word signs.
It reads `circles`, `hopfs` and `arcs` from any object, so a diagram that
cannot be built can still be checked."""

from typing import List

from linkrep.diagram import CircleRef


def reference_validate(d) -> List[str]:
    circle_set, hopf_set = frozenset(d.circles), frozenset(d.hopfs)

    def resolves(ref: CircleRef) -> bool:
        if ref.member is None:
            return ref.node in circle_set
        return ref.node in hopf_set

    violations = []
    node_ids = list(d.circles) + list(d.hopfs)
    seen = set()
    for nid in node_ids:
        if nid in seen:
            violations.append(f"duplicate node id {nid!r}")
        seen.add(nid)
    members = {f"{h}.{m}" for h in d.hopfs for m in ("a", "b")}
    for c in d.circles:
        if c in members:
            violations.append(f"circle id {c!r} is a Hopf member id")
    arc_ids = set()
    for a in d.arcs:
        if a.id in arc_ids:
            violations.append(f"duplicate arc id {a.id!r}")
        arc_ids.add(a.id)
        if a.twist % 2 != 0:
            violations.append(f"non-orientable band {a.id}")
    endpoint_slots = set()
    for a in d.arcs:
        for ref, slot, which in ((a.start, a.start_slot, "start"), (a.end, a.end_slot, "end")):
            if not resolves(ref):
                violations.append(f"unresolved reference {ref} at {which} of arc {a.id}")
                continue
            key = (ref.circle_id, slot)
            if key in endpoint_slots:
                violations.append(f"slot collision at {ref}:{slot} (arc {a.id})")
            endpoint_slots.add(key)
        for ref, _ in a.word:
            if not resolves(ref):
                violations.append(f"unresolved reference {ref} in word of arc {a.id}")
    return violations
