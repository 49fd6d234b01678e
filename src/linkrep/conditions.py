"""Certificate checks for decorated singular link diagrams.

The four checks (boundary genus, self-intersection locality, arc relators,
Stiefel-Whitney condition) certify that a decoration of the diagram by
rotations defines an SO(3) representation of the fundamental group with the
prescribed second Stiefel-Whitney class.  A symbolic presentation extractor
provides an independent route to the relator check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .diagram import (
    Adjacency,
    ArcBand,
    DiagramError,
    SingularLinkDiagram,
    Word,
    check_selfint_structure,
    ribbon_genus,
)
from .rotation import GroupTable, RotationElement, conjugate, is_involution


class DecorationError(Exception):
    """Missing or ill-typed decoration data."""


@dataclass(frozen=True)
class Decoration:
    """Total map node id -> rotation.  Both circles of a Hopf pair share
    their node's element.  Lookups go through a dict index that is built
    once and takes no part in comparison.  When one GroupTable owns every
    element, construction also notes that table and each node's index in
    it, so the checks fold words on the table."""

    mapping: Tuple[Tuple[str, RotationElement], ...]
    _index: Dict[str, RotationElement] = field(init=False, repr=False, compare=False)
    # the GroupTable owning every element, else None; then _at is None too
    _table: Optional[GroupTable] = field(init=False, repr=False, compare=False)
    _at: Optional[Dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: Dict[str, RotationElement] = {}
        at: Optional[Dict[str, int]] = {}
        table = self.mapping[0][1]._table if self.mapping else None
        for k, v in self.mapping:
            if k not in index:  # the first pair of a node wins
                index[k] = v
                at[k] = v._index
                if v._table is not table:
                    table = None
        if table is None:
            at = None
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_at", at)

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


def ensure_total(d: SingularLinkDiagram, dec: Decoration) -> None:
    if dec._index.keys() >= d.node_ids:
        return
    missing = [n for n in list(d.hopfs) + list(d.circles) if n not in dec]
    raise DecorationError(f"undecorated nodes: {', '.join(missing)}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    diagnostics: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ConditionReport:
    genus0: CheckResult
    selfint: CheckResult
    relators: CheckResult
    sw: CheckResult

    @property
    def passed(self) -> bool:
        return all(
            c.passed for c in (self.genus0, self.selfint, self.relators, self.sw)
        )


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
    word: Word, assignment: Dict[str, int], table: GroupTable
) -> Optional[int]:
    """The table index of the product of a signed word (an arc's holonomy
    C(A) or a member word), leftmost factor first, or None while a node of
    the word is unassigned."""
    mul, inv = table.mul, table.inv
    out = table.identity
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
    C(A) g = h C(A), or as conj[C(A)][g] = h on the table that owns the
    decoration."""
    ensure_total(d, dec)
    table, at = dec._table, dec._at
    if table is not None:
        conj = table.conj
        failed = [
            a
            for a in d.arcs
            if conj[_word_index(a.word, at, table)][at[a.start.node]] != at[a.end.node]
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
    adj: Adjacency,
    src: str,
    dst: str,
    holonomy: Callable[[ArcBand], RotationElement],
) -> Iterator[RotationElement]:
    """The transport C(A_k)^(+-1) ... C(A_1)^(+-1) along every simple path
    A_1, ..., A_k of (arc, direction) steps from src to dst, depth first;
    arcs traversed against orientation invert.  The order is that of the
    diagram's member_words: each step multiplies on the left.

    Products fold along the walk: a prefix shared with the previous path is
    not multiplied again, and prefixes of no path to dst are not multiplied.
    The walk keeps its own stack, so paths may be longer than the
    interpreter's recursion limit.
    """
    if src == dst:
        yield RotationElement.identity()
        return
    steps: List[Tuple[ArcBand, int]] = []
    folded: List[RotationElement] = []  # folded[i]: product of steps[: i + 1]
    reached: List[str] = []  # reached[i]: the circle steps[i] leads to
    seen = {src}
    pending = [iter(adj.get(src, ()))]  # one adjacency iterator per circle
    while pending:
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
            if steps:
                steps.pop()
                del folded[len(steps) :]
                seen.discard(reached.pop())
            continue
        a, direction = step
        nxt = a.end.circle_id if direction == 1 else a.start.circle_id
        if nxt in seen:
            continue
        steps.append(step)
        if nxt != dst:
            reached.append(nxt)
            seen.add(nxt)
            pending.append(iter(adj.get(nxt, ())))
            continue
        for i in range(len(folded), len(steps)):
            a, direction = steps[i]
            f = holonomy(a) if direction == 1 else holonomy(a).inverse()
            folded.append(f * folded[-1] if folded else f)
        yield folded[-1]
        steps.pop()
        del folded[len(steps) :]


def check_sw(
    d: SingularLinkDiagram, dec: Decoration, exhaustive_paths: bool = False
) -> CheckResult:
    """For every Hopf node with decoration g: g is a pi-rotation and the
    transport P = C(A_k)^(+-1) ... C(A_1)^(+-1) along the shortest member
    path A_1, ..., A_k from member a to member b avoids {I, g}.  P is the
    product of the diagram's member word.  (When the relators hold, P g P^-1
    is g, so P commutes with g; tests pin that theorem.)  On the table that
    owns the decoration, P is folded on indices like an arc's holonomy.
    With exhaustive_paths, every simple member path (up to SIMPLE_PATH_LIMIT) is
    checked for a verdict differing from the shortest path's, on elements;
    there each arc's holonomy is computed at most once per call.  The member
    words and the adjacency are the diagram's own, built once per diagram."""
    ensure_total(d, dec)
    if dec._table is not None and not exhaustive_paths:
        return _check_sw_on_table(d, dec._table, dec._at)
    identity = RotationElement.identity()
    holonomies: Dict[str, RotationElement] = {}

    def holonomy(a: ArcBand) -> RotationElement:
        c = holonomies.get(a.id)
        if c is None:
            c = holonomies[a.id] = holonomy_word(a, dec)
        return c

    diagnostics: List[str] = []
    passed = True
    for h in d.hopfs:
        g = dec[h]
        if not is_involution(g):
            diagnostics.append(f"hopf {h}: decoration is not a pi-rotation")
            passed = False
            continue
        word = d.member_words[h]
        if word is None:
            raise DiagramError(
                f"hopf {h}: no arc path between members (selfint precondition)"
            )
        p = _word_product(word, dec)
        if p == identity or p == g:
            diagnostics.append(f"hopf {h}: path product lies in {{I, g}}")
            passed = False
        if exhaustive_paths:
            products = _simple_path_products(d.adjacency, f"{h}.a", f"{h}.b", holonomy)
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


def _check_sw_on_table(
    d: SingularLinkDiagram, table: GroupTable, at: Dict[str, int]
) -> CheckResult:
    """check_sw's shortest-path verdicts for a decoration that one table
    owns, given as node -> index: every word folds on the table."""
    diagnostics: List[str] = []
    for h in d.hopfs:
        g = at[h]
        if g not in table.involutions:
            diagnostics.append(f"hopf {h}: decoration is not a pi-rotation")
            continue
        word = d.member_words[h]
        if word is None:
            raise DiagramError(
                f"hopf {h}: no arc path between members (selfint precondition)"
            )
        p = _word_index(word, at, table)
        if p == table.identity or p == g:
            diagnostics.append(f"hopf {h}: path product lies in {{I, g}}")
    return CheckResult("sw", not diagnostics, tuple(diagnostics))


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

@dataclass(frozen=True)
class GroupPresentation:
    """Generators (one per node) and relator words over them."""

    generators: Tuple[str, ...]
    relators: Tuple[Tuple[Tuple[str, int], ...], ...]

    def __post_init__(self):
        gens = set(self.generators)
        for rel in self.relators:
            for sym, _ in rel:
                if sym not in gens:
                    raise ValueError(f"relator letter {sym!r} outside the alphabet")


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
