"""Certificate checks for decorated singular link diagrams.

The four checks (boundary genus, self-intersection locality, arc relators,
Stiefel-Whitney condition) certify that a decoration of the diagram by
rotations defines an SO(3) representation of the fundamental group with the
prescribed second Stiefel-Whitney class.  A symbolic presentation extractor
provides an independent route to the relator check.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ._value import Value, slot_setters
from .diagram import (
    ArcBand,
    DiagramError,
    SingularLinkDiagram,
    Steps,
    Word,
    check_selfint_structure,
    ribbon_genus,
)
from .rotation import FiniteRotationGroup, RotationElement, conjugate, is_involution


class DecorationError(Exception):
    """Missing or ill-typed decoration data."""


class Decoration(Value):
    """Total map node id -> rotation.  Both circles of a Hopf pair share
    their node's element.  Lookups go through a dict index that is built
    once and takes no part in comparison.  When one FiniteRotationGroup
    owns every element, construction also notes that group and each node's
    index in it, so the checks fold words on its table."""

    # _group is the group owning every element, else None; then _at is None too
    __slots__ = ("mapping", "_index", "_group", "_at")
    __match_args__ = ("mapping",)

    def __init__(self, mapping: Tuple[Tuple[str, RotationElement], ...]) -> None:
        index: Dict[str, RotationElement] = {}
        at: Optional[Dict[str, int]] = {}
        group = mapping[0][1]._group if mapping else None
        for k, v in mapping:
            if k not in index:  # the first pair of a node wins
                index[k] = v
                at[k] = v._index
                if v._group is not group:
                    group = None
        if group is None:
            at = None
        _set_mapping(self, mapping)
        _set_index(self, index)
        _set_group(self, group)
        _set_at(self, at)

    @staticmethod
    def of(d: Dict[str, RotationElement]) -> "Decoration":
        return Decoration(tuple(sorted(d.items())))

    def __getitem__(self, node: str) -> RotationElement:
        try:
            return self._index[node]
        except KeyError:
            raise DecorationError(f"node {node!r} is not decorated") from None

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def conjugated(self, c: RotationElement) -> "Decoration":
        return Decoration(tuple((k, conjugate(c, v)) for k, v in self.mapping))


_set_mapping, _set_index, _set_group, _set_at = slot_setters(Decoration)


def ensure_total(d: SingularLinkDiagram, dec: Decoration) -> None:
    if dec._index.keys() >= d.node_ids:
        return
    missing = [n for n in list(d.hopfs) + list(d.circles) if n not in dec]
    raise DecorationError(f"undecorated nodes: {', '.join(missing)}")


class CheckResult(Value):
    __slots__ = __match_args__ = ("name", "passed", "diagnostics")

    def __init__(
        self, name: str, passed: bool, diagnostics: Tuple[str, ...] = ()
    ) -> None:
        _set_name(self, name)
        _set_passed(self, passed)
        _set_diagnostics(self, diagnostics)


_set_name, _set_passed, _set_diagnostics = slot_setters(CheckResult)


class ConditionReport(Value):
    __slots__ = __match_args__ = ("genus0", "selfint", "relators", "sw")

    def __init__(
        self, genus0: CheckResult, selfint: CheckResult, relators: CheckResult,
        sw: CheckResult,
    ) -> None:
        _set_genus0(self, genus0)
        _set_selfint(self, selfint)
        _set_relators(self, relators)
        _set_sw(self, sw)

    @property
    def passed(self) -> bool:
        return all(
            c.passed for c in (self.genus0, self.selfint, self.relators, self.sw)
        )


_set_genus0, _set_selfint, _set_relators, _set_sw = slot_setters(ConditionReport)


def _signed_product(factors: Iterable[Tuple[RotationElement, int]]) -> RotationElement:
    """g1^e1 g2^e2 ... for factors (g, e) with e = +1 or -1, leftmost first;
    the fold starts from the first factor, so only an empty sequence gives
    the identity."""
    out = None
    for g, sign in factors:
        f = g if sign == 1 else g.inverse()
        out = f if out is None else out * f
    return RotationElement.identity() if out is None else out


def _word_index(
    word: Word, assignment: Dict[str, int], group: FiniteRotationGroup
) -> Optional[int]:
    """The group index of the product of a signed word (an arc's holonomy
    C(A) or a member word), leftmost factor first, or None while a node of
    the word is unassigned."""
    mul, inv = group.mul, group.inv
    out = group.identity
    for ref, sign in word:
        g = assignment.get(ref.node)
        if g is None:
            return None
        out = mul[out][g if sign == 1 else inv[g]]
    return out


def _word_product(word: Word, dec: Decoration) -> RotationElement:
    """The product of the decorations of a signed word, leftmost first."""
    return _signed_product((dec[ref.node], sign) for ref, sign in word)


def holonomy_word(a: ArcBand, dec: Decoration) -> RotationElement:
    """C(A): the ordered product of decorations of the discs the arc crosses,
    raised to the crossing signs, leftmost factor first."""
    return _word_product(a.word, dec)


def check_relators(d: SingularLinkDiagram, dec: Decoration) -> CheckResult:
    """Every arc must conjugate its start decoration to its end decoration:
    h = C(A) g C(A)^-1 with the arc oriented start -> end, tested as
    C(A) g = h C(A), or as conj[C(A)][g] = h on the group that owns the
    decoration."""
    ensure_total(d, dec)
    group, at = dec._group, dec._at
    if group is not None:
        conj = group.conj
        failed = [
            a
            for a in d.arcs
            if conj[_word_index(a.word, at, group)][at[a.start.node]] != at[a.end.node]
        ]
    else:
        index = dec._index
        failed = []
        for a in d.arcs:
            g = index[a.start.node]
            h = index[a.end.node]
            c = holonomy_word(a, dec)
            if c * g != h * c:
                failed.append(a)
    diagnostics = tuple(
        f"arc {a.id}: end decoration is not C(A) g C(A)^-1" for a in failed
    )
    return CheckResult("relators", not diagnostics, diagnostics)


def check_selfint(d: SingularLinkDiagram) -> CheckResult:
    bad = check_selfint_structure(d)
    diagnostics = tuple(
        f"hopf {h}: member circles lie in different components" for h in bad
    )
    return CheckResult("selfint", not bad, diagnostics)


def check_genus0(d: SingularLinkDiagram) -> CheckResult:
    diagnostics = tuple(
        f"component {block[0]}...: genus {genus}"
        for block, genus in ribbon_genus(d)
        if genus != 0
    )
    return CheckResult("genus0", not diagnostics, diagnostics)


# ---------------------------------------------------------------------------
# Stiefel-Whitney condition
# ---------------------------------------------------------------------------

#: most simple member paths `check_sw(..., exhaustive_paths=True)` examines
#: per Hopf node; it reports when more exist
SIMPLE_PATH_LIMIT = 10000


def _simple_path_products(
    graph: Steps,
    src: int,
    dst: int,
    holonomy: Callable[[ArcBand], RotationElement],
) -> Iterator[RotationElement]:
    """The transport C(A_k)^(+-1) ... C(A_1)^(+-1) along every simple path
    A_1, ..., A_k of graph's steps from circle index src to dst, depth first;
    arcs traversed against orientation invert.  The order is that of the
    diagram's member_words: each step multiplies on the left.

    Products fold along the walk: a prefix shared with the previous path is
    not multiplied again, and prefixes of no path to dst are not multiplied.
    The walk steps into a circle only if dst can still be reached from it
    avoiding the circles already on the path (the polynomial-delay walk of
    Read & Tarjan, 1975), so every branch it enters ends in a path: a dead
    end costs one search, not every simple path into it.  The paths and
    their order are those of the unpruned walk.  The walk keeps its own
    stack, so paths may be longer than the interpreter's recursion limit.
    """
    if src == dst:
        yield RotationElement.identity()
        return
    steps: List[Tuple[ArcBand, int, int]] = []
    folded: List[RotationElement] = []  # folded[i]: product of steps[: i + 1]
    seen = {src}
    pending = [iter(graph[src])]  # one step iterator per circle
    while pending:
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
            if steps:
                seen.discard(steps.pop()[2])
                del folded[len(steps) :]
            continue
        nxt = step[2]
        if nxt in seen or nxt != dst and not _reaches(graph, nxt, dst, seen):
            continue
        steps.append(step)
        if nxt != dst:
            seen.add(nxt)
            pending.append(iter(graph[nxt]))
            continue
        for i in range(len(folded), len(steps)):
            a, direction, _ = steps[i]
            f = holonomy(a) if direction == 1 else holonomy(a).inverse()
            folded.append(f * folded[-1] if folded else f)
        yield folded[-1]
        steps.pop()
        del folded[len(steps) :]


def _reaches(graph: Steps, start: int, dst: int, avoid: set) -> bool:
    """Whether an arc path leads from circle index start to dst through no
    circle of avoid."""
    stack, visited = [start], {start}
    while stack:
        for _, _, nxt in graph[stack.pop()]:
            if nxt == dst:
                return True
            if nxt not in visited and nxt not in avoid:
                visited.add(nxt)
                stack.append(nxt)
    return False


def check_sw(
    d: SingularLinkDiagram, dec: Decoration, exhaustive_paths: bool = False
) -> CheckResult:
    """For every Hopf node with decoration g: g is a pi-rotation and the
    transport P = C(A_k)^(+-1) ... C(A_1)^(+-1) along the shortest member
    path A_1, ..., A_k from member a to member b avoids {I, g}.  P is the
    product of the diagram's member word.  (When the relators hold, P g P^-1
    is g, so P commutes with g; tests pin that theorem.)  The word folds on
    indices (_word_index) when one group owns the decoration, else on
    elements (_word_product); the verdicts are the same.  With
    exhaustive_paths, every simple member path (up to SIMPLE_PATH_LIMIT) is
    checked for a verdict differing from the shortest path's, on elements;
    there each arc's holonomy is computed at most once per call.  The member
    words and the integer step lists are the diagram's own, built once."""
    ensure_total(d, dec)
    identity = RotationElement.identity()
    elements, group = dec._index, dec._group
    # P and g as elements, or as indices of the group that owns dec
    values, one = (elements, identity) if group is None else (dec._at, group.identity)
    if exhaustive_paths:
        holonomies: Dict[str, RotationElement] = {}

        def holonomy(a: ArcBand) -> RotationElement:
            c = holonomies.get(a.id)
            if c is None:
                c = holonomies[a.id] = holonomy_word(a, dec)
            return c

    diagnostics: List[str] = []
    passed = True
    for k, h in enumerate(d.hopfs):
        g = elements[h]
        if not is_involution(g):
            diagnostics.append(f"hopf {h}: decoration is not a pi-rotation")
            passed = False
            continue
        word = d.member_words[h]
        if word is None:
            raise DiagramError(
                f"hopf {h}: no arc path between members (selfint precondition)"
            )
        if group is None:
            p = _word_product(word, dec)
        else:
            p = _word_index(word, values, group)
        if p == one or p == values[h]:
            diagnostics.append(f"hopf {h}: path product lies in {{I, g}}")
            passed = False
        if exhaustive_paths:
            # Hopf node k's members are circles 2k and 2k + 1
            products = _simple_path_products(d._steps, 2 * k, 2 * k + 1, holonomy)
            verdicts = set()
            for q in islice(products, SIMPLE_PATH_LIMIT):
                verdicts.add(q != identity and q != g)
            if len(verdicts) > 1:
                diagnostics.append(
                    f"hopf {h}: path-dependent verdict across simple paths"
                )
            if next(products, None) is not None:
                diagnostics.append(
                    f"hopf {h}: only the first {SIMPLE_PATH_LIMIT} simple paths "
                    "were examined"
                )
    return CheckResult("sw", passed, tuple(diagnostics))


def run_all_checks(
    d: SingularLinkDiagram, dec: Decoration, exhaustive_paths: bool = False
) -> ConditionReport:
    selfint = check_selfint(d)
    genus0 = check_genus0(d)
    relators = check_relators(d, dec)
    if selfint.passed:
        sw = check_sw(d, dec, exhaustive_paths=exhaustive_paths)
    else:
        sw = CheckResult("sw", False, ("selfint precondition failed",))
    return ConditionReport(genus0=genus0, selfint=selfint, relators=relators, sw=sw)


# ---------------------------------------------------------------------------
# symbolic presentation
# ---------------------------------------------------------------------------

class GroupPresentation(Value):
    """Generators (one per node) and relator words over them."""

    __slots__ = __match_args__ = ("generators", "relators")

    def __init__(
        self, generators: Tuple[str, ...], relators: Tuple[Tuple[Tuple[str, int], ...], ...]
    ) -> None:
        gens = set(generators)
        for rel in relators:
            for sym, _ in rel:
                if sym not in gens:
                    raise ValueError(f"relator letter {sym!r} outside the alphabet")
        _set_generators(self, generators)
        _set_relator_words(self, relators)


_set_generators, _set_relator_words = slot_setters(GroupPresentation)


def extract_presentation(d: SingularLinkDiagram) -> GroupPresentation:
    """One generator per node; one relator x_end^-1 W x_start W^-1 per arc,
    where W is the arc word with Hopf members mapped to their node generator."""
    generators = tuple(d.hopfs) + tuple(d.circles)
    relators = []
    for a in d.arcs:
        w = [(ref.node, sign) for ref, sign in a.word]
        rel = (
            [(a.end.node, -1)]
            + w
            + [(a.start.node, 1)]
            + [(sym, -sign) for sym, sign in reversed(w)]
        )
        relators.append(tuple(rel))
    return GroupPresentation(generators, tuple(relators))


def evaluate_word(
    word: Tuple[Tuple[str, int], ...], dec: Decoration
) -> RotationElement:
    return _signed_product((dec[sym], exp) for sym, exp in word)


def evaluate_representation(p: GroupPresentation, dec: Decoration) -> bool:
    """True iff every relator maps to the identity under the decoration."""
    for gen in p.generators:
        if gen not in dec:
            raise DecorationError(f"generator {gen!r} has no image")
    identity = RotationElement.identity()
    return all(evaluate_word(rel, dec) == identity for rel in p.relators)
