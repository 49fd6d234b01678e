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
        size *= len(group.table.involutions) if hopf else len(group)
    return size


@pytest.fixture
def rng():
    return random.Random(20240817)
