"""Singular link diagrams: circles, Hopf pairs and arc bands.

The diagram is an abstract ribbon graph: every circle (each Hopf pair
contributes two) is a disc vertex, every arc band an untwisted band attached
at slots whose cyclic order per circle is the order of the slot integers.
Arc words record signed passes through the discs bounded by circles and feed
the holonomy calculus in the conditions module.

A diagram is validated once, when it is built (`validate`); its parts
(`CircleRef`, `ArcBand`) check nothing beyond their own shape.  Components
and ribbon faces are computed on integer circle and half-edge indices.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ._value import Value, slot_setters


class DiagramError(Exception):
    """A structural problem with a diagram; `violations` lists every one."""

    def __init__(self, *violations: str):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class CircleRef(Value):
    """Reference to one circle: a simple circle id, or a Hopf member id.a / id.b.

    `circle_id` is that text, computed once at construction; `==`, `hash`
    and `repr` ignore it and see `node` and `member` only."""

    __slots__ = ("node", "member", "circle_id")
    __match_args__ = ("node", "member")

    # member is None for simple circles, "a"/"b" for Hopf members
    def __init__(self, node: str, member: Optional[str] = None) -> None:
        if member not in (None, "a", "b"):
            raise ValueError(f"bad Hopf member tag {member!r}")
        _set_node(self, node)
        _set_member(self, member)
        _set_circle_id(self, node if member is None else f"{node}.{member}")

    @staticmethod
    def parse(text: str) -> "CircleRef":
        node, dot, member = text.rpartition(".")
        return CircleRef(node, member) if dot else CircleRef(text)

    def __str__(self) -> str:
        return self.circle_id


_set_node, _set_member, _set_circle_id = slot_setters(CircleRef)


class ArcBand(Value):
    """A 1-handle core: endpoints at (circle, slot), a signed intersection word,
    and framing twist data (recorded; only its parity is ever consumed).

    A band checks nothing on its own: `validate` rejects a word sign other
    than +1 or -1 when a diagram is built from it."""

    __slots__ = __match_args__ = (
        "id", "start", "start_slot", "end", "end_slot", "word", "twist"
    )

    def __init__(
        self, id: str, start: CircleRef, start_slot: int, end: CircleRef, end_slot: int,
        word: Tuple[Tuple[CircleRef, int], ...] = (), twist: int = 0,
    ) -> None:
        _set_id(self, id)
        _set_start(self, start)
        _set_start_slot(self, start_slot)
        _set_end(self, end)
        _set_end_slot(self, end_slot)
        _set_word(self, word)
        _set_twist(self, twist)


_set_id, _set_start, _set_start_slot, _set_end, _set_end_slot, _set_word, _set_twist = (
    slot_setters(ArcBand)
)


class SingularLinkDiagram(Value):
    """A well-formed diagram: construction raises DiagramError listing every
    violation found by `validate`.

    The diagram is immutable, so the structure that the checks share (node
    ids, the circle graph's integer step lists, the components found on it,
    member words) is derived on first use and cached on the instance, as
    tuples and read-only mappings of tuples: every later caller shares it."""

    # the dict holds the derived structure
    __slots__ = ("circles", "hopfs", "arcs", "__dict__")
    __match_args__ = ("circles", "hopfs", "arcs")

    def __init__(
        self, circles: Tuple[str, ...] = (), hopfs: Tuple[str, ...] = (),
        arcs: Tuple[ArcBand, ...] = (),
    ) -> None:
        _set_circles(self, circles)
        _set_hopfs(self, hopfs)
        _set_arcs(self, arcs)
        violations = validate(self)
        if violations:
            raise DiagramError(*violations)

    @property
    def n_hopf(self) -> int:
        return len(self.hopfs)

    @property
    def n_simple(self) -> int:
        return len(self.circles)

    @cached_property
    def node_ids(self) -> FrozenSet[str]:
        """Every Hopf node and simple circle id."""
        return frozenset((*self.hopfs, *self.circles))

    @cached_property
    def _circle_index(self) -> Dict[str, int]:
        """circle id -> its index in declaration order: Hopf node k's members
        are 2k and 2k + 1, then come the simple circles."""
        ids = [f"{h}.{m}" for h in self.hopfs for m in "ab"] + list(self.circles)
        return {cid: i for i, cid in enumerate(ids)}

    @cached_property
    def _components(self) -> Tuple["ComponentPartition", Tuple[str, ...]]:
        return _connected_components(self)

    @cached_property
    def _steps(self) -> "Steps":
        """The circle graph: circle index -> ((arc, direction, the circle
        index it leads to), ...), arcs in id order."""
        index = self._circle_index
        steps: List[List[Step]] = [[] for _ in index]
        for a in sorted(self.arcs, key=_arc_id):
            i, j = index[a.start.circle_id], index[a.end.circle_id]
            steps[i].append((a, 1, j))
            steps[j].append((a, -1, i))
        return tuple(map(tuple, steps))

    @cached_property
    def member_words(self) -> Mapping[str, Optional["Word"]]:
        """Hopf node -> the signed word whose product carries h.a's
        decoration to h.b along the shortest member path A_1, ..., A_k, or
        None when the members are not joined.  An arc conjugates its start
        decoration by C(A) into its end decoration, so the product is
        C(A_k)^(+-1) ... C(A_1)^(+-1): the arc words in reverse path order,
        an arc walked against its orientation contributing its inverted
        word."""
        words = {}
        for k, h in enumerate(self.hopfs):
            path = _shortest_arc_path(self, 2 * k, 2 * k + 1)
            words[h] = None if path is None else _transport_word(path)
        return MappingProxyType(words)


_set_circles, _set_hopfs, _set_arcs = slot_setters(SingularLinkDiagram)


def validate(d: SingularLinkDiagram) -> List[str]:
    """All structural invariant violations; empty means well-formed.

    Node violations come first (duplicate ids, then circles named like a
    Hopf member), then duplicate arc ids and odd twists in arc order, then
    per arc its endpoints (unresolved, or a slot taken twice) and its word
    (unresolved letters, then at most one bad sign).  A reference resolves
    when its node is a declared simple circle, or a declared Hopf node for
    a member reference."""
    violations = []
    circle_set, hopf_set = frozenset(d.circles), frozenset(d.hopfs)
    seen = set()
    for nid in (*d.circles, *d.hopfs):
        if nid in seen:
            violations.append(f"duplicate node id {nid!r}")
        seen.add(nid)
    for c in d.circles:
        if c[-2:] in (".a", ".b") and c[:-2] in hopf_set:
            violations.append(f"circle id {c!r} is a Hopf member id")
    arc_ids = set()
    later = []  # endpoint and word violations follow every id and twist one
    endpoint_slots = set()
    for a in d.arcs:
        if a.id in arc_ids:
            violations.append(f"duplicate arc id {a.id!r}")
        arc_ids.add(a.id)
        if a.twist % 2:
            violations.append(f"non-orientable band {a.id}")
        for ref, slot, which in ((a.start, a.start_slot, "start"), (a.end, a.end_slot, "end")):
            if ref.node not in (hopf_set if ref.member else circle_set):
                later.append(f"unresolved reference {ref} at {which} of arc {a.id}")
                continue
            key = (ref.circle_id, slot)
            if key in endpoint_slots:
                later.append(f"slot collision at {ref}:{slot} (arc {a.id})")
            endpoint_slots.add(key)
        bad_sign = False
        for ref, sign in a.word:
            if ref.node not in (hopf_set if ref.member else circle_set):
                later.append(f"unresolved reference {ref} in word of arc {a.id}")
            if sign != 1 and sign != -1:
                bad_sign = True
        if bad_sign:
            later.append(f"arc {a.id}: word signs must be +1 or -1")
    return violations + later


# ---------------------------------------------------------------------------
# the circle graph and member paths
# ---------------------------------------------------------------------------

# (arc, direction, next circle index), direction +1 start->end, -1 end->start
Step = Tuple[ArcBand, int, int]
Steps = Tuple[Tuple[Step, ...], ...]  # circle index -> its steps
ArcPath = Tuple[Tuple[ArcBand, int], ...]  # (arc, direction) steps
Word = Tuple[Tuple[CircleRef, int], ...]  # signed letters, leftmost first


_arc_id = attrgetter("id")


def _shortest_arc_path(d: SingularLinkDiagram, s: int, t: int) -> Optional[ArcPath]:
    """BFS path of (arc, direction) steps from circle index s to circle
    index t of d, ties broken by arc id order."""
    steps = d._steps
    if s == t:
        return ()
    # circle next to t -> its first step into t (reversed, so the first in
    # arc id order wins): the search stops at the first such circle it
    # dequeues, so a hub's other steps are not scanned
    into = {nb: (a, -direction) for a, direction, nb in reversed(steps[t])}
    prev: Dict[int, tuple] = {s: ()}  # circle -> (parent, arc, direction)
    queue = [s]
    for cur in queue:  # the queue grows while it is walked
        if cur in into:
            path = [into[cur]]
            while cur != s:
                cur, a, direction = prev[cur]
                path.append((a, direction))
            return tuple(reversed(path))
        for a, direction, nxt in steps[cur]:
            if nxt not in prev:
                prev[nxt] = (cur, a, direction)
                queue.append(nxt)
    return None


def _transport_word(path: ArcPath) -> Word:
    """The word of C(A_k)^(+-1) ... C(A_1)^(+-1) for the path A_1, ..., A_k."""
    word: List[Tuple[CircleRef, int]] = []
    for a, direction in reversed(path):
        word += a.word if direction == 1 else [(r, -s) for r, s in reversed(a.word)]
    return tuple(word)


class ComponentPartition(Value):
    """Connected components of the circle graph (vertices circles, edges arcs)."""

    __slots__ = ("blocks", "_block")
    __match_args__ = ("blocks",)

    def __init__(self, blocks: Tuple[Tuple[str, ...], ...]) -> None:
        _set_blocks(self, blocks)
        _set_block(self, {cid: b for b in blocks for cid in b})

    def block_of(self, circle_id: str) -> Tuple[str, ...]:
        return self._block[circle_id]


_set_blocks, _set_block = slot_setters(ComponentPartition)


def components(d: SingularLinkDiagram) -> ComponentPartition:
    """The connected components of d, computed on first use and cached on d."""
    return d._components[0]


def _connected_components(
    d: SingularLinkDiagram,
) -> Tuple[ComponentPartition, Tuple[str, ...]]:
    """The components, and the Hopf nodes whose two members lie in
    different ones.  A search of the circle graph from each circle index
    not yet reached, in ascending order, so each block's root is its least
    index; a block lists its circles in index order."""
    steps = d._steps
    root = [-1] * len(steps)
    for r in range(len(steps)):
        if root[r] < 0:
            root[r] = r
            block = [r]
            for i in block:  # the block grows while it is walked
                for _, _, j in steps[i]:
                    if root[j] < 0:
                        root[j] = r
                        block.append(j)
    grouped: Dict[int, List[str]] = {}
    for cid, r in zip(d._circle_index, root):
        grouped.setdefault(r, []).append(cid)
    split = tuple(h for k, h in enumerate(d.hopfs) if root[2 * k] != root[2 * k + 1])
    return ComponentPartition(tuple(map(tuple, grouped.values()))), split


def check_selfint_structure(d: SingularLinkDiagram) -> List[str]:
    """Hopf nodes whose two member circles lie in different components,
    found once per diagram by `_connected_components`."""
    return list(d._components[1])


def betti(d: SingularLinkDiagram) -> Tuple[int, int]:
    """(b1, b2) of the surgered manifold: component count and Hopf-node count."""
    if check_selfint_structure(d):
        raise DiagramError("component count ill-defined for immersed link")
    return (len(components(d).blocks), d.n_hopf)


# ---------------------------------------------------------------------------
# ribbon genus via boundary tracing
# ---------------------------------------------------------------------------

def ribbon_genus(d: SingularLinkDiagram) -> List[Tuple[Tuple[str, ...], int]]:
    """Genus of the closed surface of each component of the ribbon graph.

    Each circle is a disc, each arc an untwisted band (odd twists are
    rejected by validation), boundary circles are capped off:
    genus = (2 - (V - E + F)) / 2.

    The faces are the orbits of sigma o alpha on integer half-edges: 2k is
    the start of arc k and 2k+1 its end, so alpha(h) = h ^ 1, and sigma
    steps to the next half-edge of the same circle in slot order.  A face
    never leaves its component, so one sweep over the components traces
    every face once and counts faces and half-edges per component.
    """
    slot = []
    at: Dict[str, List[int]] = {}  # circle id -> its half-edges
    for h, a in enumerate(d.arcs):
        slot += (a.start_slot, a.end_slot)
        at.setdefault(a.start.circle_id, []).append(2 * h)
        at.setdefault(a.end.circle_id, []).append(2 * h + 1)
    succ = [0] * len(slot)
    for half_edges in at.values():
        if len(half_edges) > 2:  # one or two are in cyclic order already
            half_edges.sort(key=slot.__getitem__)
        prev = half_edges[-1]
        for h in half_edges:
            succ[prev] = h
            prev = h
    seen = bytearray(len(succ))
    out = []
    for block in components(d).blocks:
        half = f = 0
        for cid in block:
            half_edges = at.get(cid)
            if half_edges is None:
                f += 1  # a bare disc
                continue
            half += len(half_edges)
            for start in half_edges:
                if seen[start]:
                    continue
                f += 1
                h = start
                while not seen[h]:
                    seen[h] = 1
                    h = succ[h ^ 1]
        chi = len(block) - half // 2 + f
        if (2 - chi) % 2 != 0:
            raise RuntimeError(f"odd Euler defect on component {block}")
        genus = (2 - chi) // 2
        if genus < 0:
            raise RuntimeError(f"negative genus on component {block}")
        out.append((block, genus))
    return out
