import random
from pathlib import Path

import pytest

from linkrep.conditions import Decoration
from linkrep.diagram import ArcBand, CircleRef, SingularLinkDiagram
from linkrep.rotation import octahedral_group
from linkrep.sldfile import parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ref1_diagram() -> SingularLinkDiagram:
    """REF-1 (fixtures/ref1.sld): a tree of nine circles realizing the
    one-point configuration."""
    return parse((FIXTURES / "ref1.sld").read_text()).diagram()


def ref1_decoration():
    return parse((FIXTURES / "ref1.sld").read_text()).decoration()


def random_diagram(rng: random.Random) -> SingularLinkDiagram:
    """A random well-formed diagram: fresh slots per circle, resolvable refs."""
    n_circles = rng.randint(1, 4)
    n_hopfs = rng.randint(0, 2)
    circles = tuple(f"c{i}" for i in range(n_circles))
    hopfs = tuple(f"h{i}" for i in range(n_hopfs))
    refs = [CircleRef(c) for c in circles] + [
        CircleRef(h, m) for h in hopfs for m in ("a", "b")
    ]
    next_slot = {r.circle_id: 0 for r in refs}

    def take_slot(ref: CircleRef) -> int:
        slot = next_slot[ref.circle_id]
        next_slot[ref.circle_id] = slot + 1
        return slot

    arcs = []
    for i in range(rng.randint(0, 6)):
        start, end = rng.choice(refs), rng.choice(refs)
        word = tuple(
            (rng.choice(refs), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 3))
        )
        arcs.append(
            ArcBand(
                id=f"a{i}",
                start=start,
                start_slot=take_slot(start),
                end=end,
                end_slot=take_slot(end),
                word=word,
                twist=rng.choice((0, 2)),
            )
        )
    return SingularLinkDiagram(circles=circles, hopfs=hopfs, arcs=tuple(arcs))


def worded_path_diagram(rng: random.Random) -> SingularLinkDiagram:
    """A random well-formed diagram in which the members of Hopf node h0 are
    joined by a path of two or three arcs, each with a random orientation
    and a nonempty word over the simple circles (one of which is off the
    path), plus up to two arcs like random_diagram's.  The SW product order
    shows only on such paths, which random_diagram seldom draws."""
    n_path = rng.randint(1, 2)  # circles strictly inside the member path
    circles = tuple(f"c{i}" for i in range(n_path + 1))
    hopfs = ("h0", "h1")[: rng.randint(1, 2)]
    refs = [CircleRef(c) for c in circles] + [
        CircleRef(h, m) for h in hopfs for m in ("a", "b")
    ]
    next_slot = {r.circle_id: 0 for r in refs}

    def band(start: CircleRef, end: CircleRef, letters, word_len: int) -> ArcBand:
        slots = []
        for ref in (start, end):
            slots.append(next_slot[ref.circle_id])
            next_slot[ref.circle_id] += 1
        word = tuple(
            (rng.choice(letters), rng.choice((1, -1))) for _ in range(word_len)
        )
        return ArcBand(f"a{len(arcs)}", start, slots[0], end, slots[1], word)

    path = [CircleRef("h0", "a")] + [CircleRef(c) for c in circles[:n_path]]
    path.append(CircleRef("h0", "b"))
    arcs = []
    for u, v in zip(path, path[1:]):
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append(band(u, v, refs[: len(circles)], rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2)):
        arcs.append(band(rng.choice(refs), rng.choice(refs), refs, rng.randint(0, 2)))
    return SingularLinkDiagram(circles=circles, hopfs=hopfs, arcs=tuple(arcs))


def random_decoration(d: SingularLinkDiagram, rng: random.Random) -> Decoration:
    """Every node decorated by a random octahedral element."""
    group = octahedral_group().elements
    return Decoration.of(
        {n: rng.choice(group) for n in list(d.hopfs) + list(d.circles)}
    )


def hopf_ring(n: int) -> SingularLinkDiagram:
    """n Hopf nodes; node i's self-arc crosses node i+1's disc."""
    return SingularLinkDiagram(
        hopfs=tuple(f"R{i}" for i in range(n)),
        arcs=tuple(
            ArcBand(
                id=f"S{i}",
                start=CircleRef(f"R{i}", "a"),
                start_slot=0,
                end=CircleRef(f"R{i}", "b"),
                end_slot=0,
                word=((CircleRef(f"R{(i + 1) % n}", "a"), 1),),
            )
            for i in range(n)
        ),
    )


def search_space(d: SingularLinkDiagram, group) -> int:
    """|G| per group of nodes joined by arcs, the involution count for one
    holding a Hopf node: a rough size of the backtracking tree."""
    parent = {n: n for n in d.hopfs + d.circles}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for a in d.arcs:
        parent[find(a.start.node)] = find(a.end.node)
    size = 1
    for root in {find(n) for n in parent}:
        hopf = any(find(h) == root for h in d.hopfs)
        size *= len(group.involutions) if hopf else len(group)
    return size


def involution_elements(group) -> tuple:
    """The group's pi-rotations, read from their indices."""
    return tuple(group.elements[i] for i in group.involutions)


@pytest.fixture
def rng():
    return random.Random(20240817)
