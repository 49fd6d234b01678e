"""Reference member words for differential tests: the computation that
SingularLinkDiagram.member_words replaced.  The adjacency is keyed by circle
id strings and sorted through a lambda key, and the breadth-first search
keeps string-keyed `prev` and `seen` maps."""

from collections import deque
from typing import Dict, List, Optional, Tuple

from linkrep.diagram import SingularLinkDiagram


def _adjacency(d: SingularLinkDiagram):
    adj: Dict[str, List[tuple]] = {}
    for a in sorted(d.arcs, key=lambda a: a.id):
        adj.setdefault(a.start.circle_id, []).append((a, 1))
        adj.setdefault(a.end.circle_id, []).append((a, -1))
    return {cid: tuple(steps) for cid, steps in adj.items()}


def _shortest_arc_path(adj, src: str, dst: str) -> Optional[tuple]:
    """BFS path of (arc, direction) steps from circle src to circle dst,
    ties broken by arc id order."""
    if src == dst:
        return ()
    prev: Dict[str, tuple] = {}
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


def _transport_word(path) -> tuple:
    word: List[Tuple[object, int]] = []
    for a, direction in reversed(path):
        word += a.word if direction == 1 else [(r, -s) for r, s in reversed(a.word)]
    return tuple(word)


def reference_member_words(d: SingularLinkDiagram) -> Dict[str, Optional[tuple]]:
    """Hopf node -> the word along its shortest member path, or None."""
    adj = _adjacency(d)
    words = {}
    for h in d.hopfs:
        path = _shortest_arc_path(adj, f"{h}.a", f"{h}.b")
        words[h] = None if path is None else _transport_word(path)
    return words
