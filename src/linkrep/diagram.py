"""Singular link diagrams: circles, Hopf pairs and arc bands.

The diagram is an abstract ribbon graph: every circle (each Hopf pair
contributes two) is a disc vertex, every arc band an untwisted band attached
at slots whose cyclic order per circle is the order of the slot integers.
Arc words record signed passes through the discs bounded by circles and feed
the holonomy calculus in the conditions module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple


class DiagramError(Exception):
    """A structural problem with a diagram; `violations` lists every one."""

    def __init__(self, *violations: str):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class CircleRef:
    """Reference to one circle: a simple circle id, or a Hopf member id.a / id.b.

    `circle_id` is that text, computed once at construction; `==`, `hash`
    and `repr` ignore it and see `node` and `member` only."""

    node: str
    member: Optional[str] = None  # None for simple circles, "a"/"b" for Hopf members
    circle_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.member not in (None, "a", "b"):
            raise ValueError(f"bad Hopf member tag {self.member!r}")
        cid = self.node if self.member is None else f"{self.node}.{self.member}"
        object.__setattr__(self, "circle_id", cid)

    @staticmethod
    def parse(text: str) -> "CircleRef":
        if "." in text:
            node, member = text.rsplit(".", 1)
            return CircleRef(node, member)
        return CircleRef(text)

    def __str__(self) -> str:
        return self.circle_id


@dataclass(frozen=True)
class ArcBand:
    """A 1-handle core: endpoints at (circle, slot), a signed intersection word,
    and framing twist data (recorded; only its parity is ever consumed)."""

    id: str
    start: CircleRef
    start_slot: int
    end: CircleRef
    end_slot: int
    word: Tuple[Tuple[CircleRef, int], ...] = ()
    twist: int = 0

    def __post_init__(self):
        for _, sign in self.word:
            if sign not in (1, -1):
                raise ValueError(f"arc {self.id}: word signs must be +1 or -1")


@dataclass(frozen=True)
class SingularLinkDiagram:
    """A well-formed diagram: construction raises DiagramError listing every
    violation found by `validate`.

    The diagram is immutable, so the structure that checks and searches read
    (node-id sets, circle adjacency, member words, watch lists) is derived
    on first use and cached on the instance, as read-only mappings of
    tuples: every later caller shares it."""

    circles: Tuple[str, ...] = ()
    hopfs: Tuple[str, ...] = ()
    arcs: Tuple[ArcBand, ...] = ()

    def __post_init__(self):
        violations = validate(self)
        if violations:
            raise DiagramError(*violations)

    @property
    def n_hopf(self) -> int:
        return len(self.hopfs)

    @property
    def n_simple(self) -> int:
        return len(self.circles)

    def circle_ids(self) -> List[str]:
        """All circle vertices, in declaration order: Hopf members then simple circles."""
        out = []
        for h in self.hopfs:
            out.append(f"{h}.a")
            out.append(f"{h}.b")
        out.extend(self.circles)
        return out

    def resolves(self, ref: CircleRef) -> bool:
        if ref.member is None:
            return ref.node in self._circle_set
        return ref.node in self._hopf_set

    @cached_property
    def _circle_set(self) -> FrozenSet[str]:
        return frozenset(self.circles)

    @cached_property
    def _hopf_set(self) -> FrozenSet[str]:
        return frozenset(self.hopfs)

    @cached_property
    def node_ids(self) -> FrozenSet[str]:
        """Every Hopf node and simple circle id."""
        return self._hopf_set | self._circle_set

    @cached_property
    def _partition(self) -> "ComponentPartition":
        return _connected_components(self)

    @cached_property
    def adjacency(self) -> "Adjacency":
        """circle id -> [(arc, direction)], arcs in id order."""
        return _adjacency(self)

    @cached_property
    def member_words(self) -> Mapping[str, Optional["Word"]]:
        """Hopf node -> the signed word whose product carries h.a's
        decoration to h.b along the shortest member path A_1, ..., A_k, or
        None when the members are not joined.  An arc conjugates its start
        decoration by C(A) into its end decoration, so the product is
        C(A_k)^(+-1) ... C(A_1)^(+-1): the arc words in reverse path order,
        an arc walked against its orientation contributing its inverted
        word."""
        adj = self.adjacency
        words = {}
        for h in self.hopfs:
            path = _shortest_arc_path(adj, f"{h}.a", f"{h}.b")
            words[h] = None if path is None else _transport_word(path)
        return MappingProxyType(words)

    @cached_property
    def arcs_mentioning(self) -> Mapping[str, Tuple[ArcBand, ...]]:
        """node -> the arcs whose endpoints or word mention it, in arc order."""
        out: Dict[str, List[ArcBand]] = {n: [] for n in (*self.hopfs, *self.circles)}
        for a in self.arcs:
            for n in dict.fromkeys(
                [a.start.node, a.end.node] + [ref.node for ref, _ in a.word]
            ):
                out[n].append(a)
        return MappingProxyType({n: tuple(arcs) for n, arcs in out.items()})


def validate(d: SingularLinkDiagram) -> List[str]:
    """All structural invariant violations; empty means well-formed."""
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
            if not d.resolves(ref):
                violations.append(f"unresolved reference {ref} at {which} of arc {a.id}")
                continue
            key = (ref.circle_id, slot)
            if key in endpoint_slots:
                violations.append(f"slot collision at {ref}:{slot} (arc {a.id})")
            endpoint_slots.add(key)
        for ref, _ in a.word:
            if not d.resolves(ref):
                violations.append(f"unresolved reference {ref} in word of arc {a.id}")
    return violations


# ---------------------------------------------------------------------------
# circle adjacency and member paths
# ---------------------------------------------------------------------------

Adjacency = Mapping[str, Tuple[Tuple[ArcBand, int], ...]]
ArcPath = Tuple[Tuple[ArcBand, int], ...]  # (arc, direction) steps
Word = Tuple[Tuple[CircleRef, int], ...]  # signed letters, leftmost first


def _adjacency(d: SingularLinkDiagram) -> Adjacency:
    """circle id -> ((arc, direction), ...), direction +1 start->end,
    -1 end->start."""
    adj: Dict[str, List[Tuple[ArcBand, int]]] = {}
    for a in sorted(d.arcs, key=lambda a: a.id):
        adj.setdefault(a.start.circle_id, []).append((a, 1))
        adj.setdefault(a.end.circle_id, []).append((a, -1))
    return MappingProxyType({cid: tuple(steps) for cid, steps in adj.items()})


def _shortest_arc_path(adj: Adjacency, src: str, dst: str) -> Optional[ArcPath]:
    """BFS path of (arc, direction) steps from circle src to circle dst,
    ties broken by arc id order."""
    if src == dst:
        return ()
    prev: Dict[str, Tuple[str, ArcBand, int]] = {}
    queue = deque([src])
    seen = {src}
    while queue:
        cur = queue.popleft()
        for a, direction in adj.get(cur, ()):
            nxt = a.end.circle_id if direction == 1 else a.start.circle_id
            if nxt in seen:
                continue
            seen.add(nxt)
            prev[nxt] = (cur, a, direction)
            if nxt == dst:
                path = []
                node = dst
                while node != src:
                    parent, arc, direction = prev[node]
                    path.append((arc, direction))
                    node = parent
                return tuple(reversed(path))
            queue.append(nxt)
    return None


def _transport_word(path: ArcPath) -> Word:
    """The word of C(A_k)^(+-1) ... C(A_1)^(+-1) for the path A_1, ..., A_k."""
    word: List[Tuple[CircleRef, int]] = []
    for a, direction in reversed(path):
        word += a.word if direction == 1 else [(r, -s) for r, s in reversed(a.word)]
    return tuple(word)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of the circle graph (vertices circles, edges arcs)."""

    blocks: Tuple[Tuple[str, ...], ...]
    _block: Dict[str, Tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        block = {cid: b for b in self.blocks for cid in b}
        object.__setattr__(self, "_block", block)

    def block_of(self, circle_id: str) -> Tuple[str, ...]:
        return self._block[circle_id]


def components(d: SingularLinkDiagram) -> ComponentPartition:
    """The connected components of d, computed on first use and cached on d."""
    return d._partition


def _connected_components(d: SingularLinkDiagram) -> ComponentPartition:
    ids = d.circle_ids()
    index = {cid: i for i, cid in enumerate(ids)}
    parent = list(range(len(ids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for a in d.arcs:
        union(index[a.start.circle_id], index[a.end.circle_id])

    grouped: Dict[int, List[str]] = {}
    for cid in ids:
        grouped.setdefault(find(index[cid]), []).append(cid)
    blocks = tuple(tuple(grouped[root]) for root in sorted(grouped))
    return ComponentPartition(blocks)


def check_selfint_structure(d: SingularLinkDiagram) -> List[str]:
    """Hopf nodes whose two member circles lie in different components."""
    part = components(d)
    bad = []
    for h in d.hopfs:
        if part.block_of(f"{h}.a") is not part.block_of(f"{h}.b"):
            bad.append(h)
    return bad


def betti(d: SingularLinkDiagram) -> Tuple[int, int]:
    """(b1, b2) of the surgered manifold: component count and Hopf-node count."""
    if check_selfint_structure(d):
        raise DiagramError("component count ill-defined for immersed link")
    return (len(components(d).blocks), d.n_hopf)


# ---------------------------------------------------------------------------
# ribbon genus via boundary tracing
# ---------------------------------------------------------------------------

def _half_edges(d: SingularLinkDiagram):
    """Half-edges (arc id, end tag) attached at (circle, slot); per-circle cyclic order."""
    at_circle: Dict[str, List[Tuple[int, Tuple[str, str]]]] = {}
    for a in d.arcs:
        at_circle.setdefault(a.start.circle_id, []).append((a.start_slot, (a.id, "s")))
        at_circle.setdefault(a.end.circle_id, []).append((a.end_slot, (a.id, "e")))
    cyclic: Dict[str, List[Tuple[str, str]]] = {}
    for cid, items in at_circle.items():
        items.sort()
        cyclic[cid] = [h for _, h in items]
    return cyclic


def _boundary_cycle_count(cyclic: Dict[str, List[Tuple[str, str]]]) -> int:
    """Number of boundary circles of the ribbon surface with untwisted bands.

    Faces of the combinatorial map: orbits of sigma o alpha, where sigma is
    "next half-edge counterclockwise at the vertex" and alpha swaps the two
    half-edges of each band.  Each orbit is traced once, from the first
    half-edge (in insertion order) that no earlier trace visited, so the
    count takes time linear in the number of half-edges.
    """
    succ = {}
    for half_edges in cyclic.values():
        n = len(half_edges)
        for i, h in enumerate(half_edges):
            succ[h] = half_edges[(i + 1) % n]
    visited = set()
    cycles = 0
    for start in succ:
        if start in visited:
            continue
        cycles += 1
        h = start
        while True:
            visited.add(h)
            arc_id, tag = h
            h = succ[(arc_id, "e" if tag == "s" else "s")]
            if h == start:
                break
    return cycles


def ribbon_genus(d: SingularLinkDiagram) -> List[Tuple[Tuple[str, ...], int]]:
    """Genus of the closed surface of each component of the ribbon graph.

    Each circle is a disc, each arc an untwisted band (odd twists are
    rejected by validation), boundary circles are capped off:
    genus = (2 - (V - E + F)) / 2.  Edges are counted per component in one
    pass over the arcs.
    """
    part = components(d)
    cyclic = _half_edges(d)
    edges: Dict[str, int] = {}  # first circle of a component -> its arc count
    for a in d.arcs:
        first = part.block_of(a.start.circle_id)[0]
        edges[first] = edges.get(first, 0) + 1
    out = []
    for block in part.blocks:
        v = len(block)
        e = edges.get(block[0], 0)
        local_cyclic = {cid: cyclic[cid] for cid in block if cid in cyclic}
        f = _boundary_cycle_count(local_cyclic)
        f += v - len(local_cyclic)  # bare discs
        chi = v - e + f
        if (2 - chi) % 2 != 0:
            raise RuntimeError(f"odd Euler defect on component {block}")
        genus = (2 - chi) // 2
        if genus < 0:
            raise RuntimeError(f"negative genus on component {block}")
        out.append((block, genus))
    return out
