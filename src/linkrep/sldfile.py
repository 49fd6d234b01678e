"""The .sld plain-text diagram format: parser and canonical serializer.

Line-oriented statements; a line ends at "\\n", "\\r\\n" or "\\r" only:

    group (tetrahedral | octahedral | icosahedral)
    circle ID
    hopf ID                         members referenced as ID.a / ID.b
    arc ID from REF slot INT to REF slot INT word (REF:+ | REF:-)* [twist INT]
    decorate NODEID = perm "CYCLES" | matrix S11 ... S33
    # comment

Scalars use the "p/q" / "p/q+r/s*r5" syntax.  parse(serialize(doc)) == doc,
and serialize emits a canonical byte-for-byte stable formatting; comments are
preserved as statements.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ._value import Value, slot_setters
from .conditions import Decoration
from .diagram import ArcBand, CircleRef, SingularLinkDiagram
from .field import Matrix3, format_matrix, parse_scalar
from .rotation import (
    CubePermutation,
    RotationElement,
    perm_to_rotation,
)

GROUP_NAMES = ("tetrahedral", "octahedral", "icosahedral")


class SldParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class GroupStmt(Value):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_group_name(self, name)


class CircleStmt(Value):
    __slots__ = __match_args__ = ("id",)

    def __init__(self, id: str) -> None:
        _set_circle_id(self, id)


class HopfStmt(Value):
    __slots__ = __match_args__ = ("id",)

    def __init__(self, id: str) -> None:
        _set_hopf_id(self, id)


class ArcStmt(Value):
    __slots__ = __match_args__ = ("arc",)

    def __init__(self, arc: ArcBand) -> None:
        _set_arc(self, arc)


class DecorateStmt(Value):
    __slots__ = __match_args__ = ("node", "element", "perm")

    def __init__(
        self,
        node: str,
        element: RotationElement,
        perm: Optional[CubePermutation],  # kept so the textual form round-trips
    ) -> None:
        _set_node(self, node)
        _set_element(self, element)
        _set_perm(self, perm)


class CommentStmt(Value):
    __slots__ = __match_args__ = ("text",)

    def __init__(self, text: str) -> None:  # text without the leading "# "
        if text != text.strip() or "\n" in text or "\r" in text:
            raise ValueError(f"comment text {text!r} would not parse back")
        _set_text(self, text)


(_set_group_name,) = slot_setters(GroupStmt)
(_set_circle_id,) = slot_setters(CircleStmt)
(_set_hopf_id,) = slot_setters(HopfStmt)
(_set_arc,) = slot_setters(ArcStmt)
_set_node, _set_element, _set_perm = slot_setters(DecorateStmt)
(_set_text,) = slot_setters(CommentStmt)

Statement = Union[GroupStmt, CircleStmt, HopfStmt, ArcStmt, DecorateStmt, CommentStmt]


class SldDocument(Value):
    __slots__ = __match_args__ = ("statements",)

    def __init__(self, statements: Tuple[Statement, ...]) -> None:
        _set_statements(self, statements)

    def group_name(self) -> Optional[str]:
        for s in self.statements:
            if isinstance(s, GroupStmt):
                return s.name
        return None

    def diagram(self) -> SingularLinkDiagram:
        circles: List[str] = []
        hopfs: List[str] = []
        arcs: List[ArcBand] = []
        for s in self.statements:
            if isinstance(s, ArcStmt):
                arcs.append(s.arc)
            elif isinstance(s, HopfStmt):
                hopfs.append(s.id)
            elif isinstance(s, CircleStmt):
                circles.append(s.id)
        return SingularLinkDiagram(
            circles=tuple(circles), hopfs=tuple(hopfs), arcs=tuple(arcs)
        )

    def decoration(self) -> Optional[Decoration]:
        pairs = {
            s.node: s.element for s in self.statements if isinstance(s, DecorateStmt)
        }
        return Decoration.of(pairs) if pairs else None


(_set_statements,) = slot_setters(SldDocument)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SldParseError(lineno, f"{what} must be an integer, got {token!r}")


# the keywords of an arc statement, at tokens 2, 4, 6, 8 and 10
_ARC_KEYWORDS = ["from", "slot", "to", "slot", "word"]
_SIGNS = {"+": 1, "-": -1}


class _RefTable(dict):
    """Reference text -> its CircleRef, parsed once per document."""

    def __missing__(self, text: str) -> CircleRef:
        ref = self[text] = CircleRef.parse(text)
        return ref


def _parse_arc(tokens: List[str], lineno: int, refs: _RefTable) -> ArcBand:
    # arc ID from REF slot INT to REF slot INT word W* [twist INT]
    if len(tokens) < 10:
        raise SldParseError(lineno, "truncated arc statement")
    if tokens[2:11:2] != _ARC_KEYWORDS:
        for pos, keyword in zip(range(2, 11, 2), _ARC_KEYWORDS):
            if pos >= len(tokens) or tokens[pos] != keyword:
                raise SldParseError(lineno, f"expected {keyword!r} in arc statement")
    _, arc_id, _, start, _, start_slot, _, end, _, end_slot, _, *rest = tokens
    start = refs[start]
    start_slot = _parse_int(start_slot, lineno, "slot")
    end = refs[end]
    end_slot = _parse_int(end_slot, lineno, "slot")
    twist = 0
    if "twist" in rest:
        at = rest.index("twist")
        if at != len(rest) - 2:
            raise SldParseError(lineno, "twist takes exactly one trailing integer")
        twist = _parse_int(rest[-1], lineno, "twist")
        del rest[at:]
    word = []
    for tok in rest:
        ref_text, colon, sign_text = tok.rpartition(":")
        if not colon:
            raise SldParseError(lineno, f"word entry {tok!r} is missing its sign")
        sign = _SIGNS.get(sign_text)
        if sign is None:
            raise SldParseError(lineno, f"word sign must be + or -, got {sign_text!r}")
        word.append((refs[ref_text], sign))
    return ArcBand(arc_id, start, start_slot, end, end_slot, tuple(word), twist)


# cycle text -> (its permutation, its cube rotation); only texts that parse
# are stored, and there are 86 of them ("()", "e" and 84 cycle products)
_PERMS: Dict[str, Tuple[CubePermutation, RotationElement]] = {}


def _perm_decoration(text: str) -> Tuple[CubePermutation, RotationElement]:
    hit = _PERMS.get(text)
    if hit is None:
        perm = CubePermutation.parse(text)
        hit = _PERMS[text] = (perm, perm_to_rotation(perm))
    return hit


def _parse_decorate(tokens: List[str], lineno: int) -> DecorateStmt:
    # decorate NODEID = perm "CYCLES" | matrix S11 ... S33
    if len(tokens) < 5 or tokens[2] != "=":
        raise SldParseError(lineno, "malformed decorate statement")
    node = tokens[1]
    kind = tokens[3]
    if kind == "perm":
        if len(tokens) != 5:
            raise SldParseError(lineno, "perm decoration takes one cycle token")
        perm, element = _perm_decoration(tokens[4])
        return DecorateStmt(node=node, element=element, perm=perm)
    if kind == "matrix":
        if len(tokens) != 13:
            raise SldParseError(lineno, "matrix decoration takes nine scalars")
        entries = [parse_scalar(t) for t in tokens[4:13]]
        element = RotationElement(Matrix3((entries[0:3], entries[3:6], entries[6:9])))
        return DecorateStmt(node=node, element=element, perm=None)
    raise SldParseError(lineno, f"unknown element kind {kind!r}")


def _tokenize(tokens: List[str], lineno: int) -> List[str]:
    """The whitespace-separated `tokens` of a line holding a double quote,
    unquoted in place.  The format's one quoting is a token wholly inside
    double quotes (a perm cycle), which loses its quotes; any other double
    quote is an error."""
    for i, tok in enumerate(tokens):
        if '"' in tok:
            if len(tok) < 2 or tok[0] != '"' or tok[-1] != '"' or '"' in tok[1:-1]:
                raise SldParseError(lineno, f"unbalanced quote in {tok!r}")
            tokens[i] = tok[1:-1]
    return tokens


def split_lines(text: str) -> List[str]:
    """The lines of text, broken at "\\n", "\\r\\n" and "\\r" only."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse(text: str) -> SldDocument:
    """The document; SldParseError with the line number on any malformed line."""
    statements: List[Statement] = []
    node_ids = set()
    arc_ids = set()
    decorated: Dict[str, int] = {}  # node -> line of its decoration
    refs = _RefTable()
    for lineno, raw in enumerate(split_lines(text), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword[0] == "#":
            statements.append(CommentStmt(raw.strip()[1:].strip()))
            continue
        if '"' in raw:
            keyword = _tokenize(tokens, lineno)[0]
        try:
            if keyword == "arc":
                arc = _parse_arc(tokens, lineno, refs)
                if arc.id in arc_ids:
                    raise SldParseError(lineno, f"duplicate id {arc.id!r}")
                arc_ids.add(arc.id)
                statements.append(ArcStmt(arc))
            elif keyword == "group":
                if len(tokens) != 2 or tokens[1] not in GROUP_NAMES:
                    raise SldParseError(
                        lineno, f"group must be one of {', '.join(GROUP_NAMES)}"
                    )
                statements.append(GroupStmt(tokens[1]))
            elif keyword in ("circle", "hopf"):
                if len(tokens) != 2:
                    raise SldParseError(lineno, f"{keyword} takes exactly one id")
                if tokens[1] in node_ids:
                    raise SldParseError(lineno, f"duplicate id {tokens[1]!r}")
                node_ids.add(tokens[1])
                statements.append(
                    CircleStmt(tokens[1]) if keyword == "circle" else HopfStmt(tokens[1])
                )
            elif keyword == "decorate":
                stmt = _parse_decorate(tokens, lineno)
                if stmt.node in decorated:
                    raise SldParseError(lineno, f"node {stmt.node!r} is decorated twice")
                decorated[stmt.node] = lineno
                statements.append(stmt)
            else:
                raise SldParseError(lineno, f"unknown keyword {keyword!r}")
        except ValueError as exc:  # a malformed reference, scalar or element
            raise SldParseError(lineno, str(exc))
    for node, lineno in decorated.items():
        if node not in node_ids:
            raise SldParseError(lineno, f"decoration of undeclared node {node!r}")
    return SldDocument(tuple(statements))


def _format_arc(a: ArcBand) -> str:
    parts = [
        "arc",
        a.id,
        "from",
        str(a.start),
        "slot",
        str(a.start_slot),
        "to",
        str(a.end),
        "slot",
        str(a.end_slot),
        "word",
    ]
    for ref, sign in a.word:
        parts.append(f"{ref}:{'+' if sign == 1 else '-'}")
    if a.twist != 0:
        parts.extend(["twist", str(a.twist)])
    return " ".join(parts)


def _format_statement(s: Statement) -> str:
    if isinstance(s, CommentStmt):
        return f"# {s.text}" if s.text else "#"
    if isinstance(s, GroupStmt):
        return f"group {s.name}"
    if isinstance(s, CircleStmt):
        return f"circle {s.id}"
    if isinstance(s, HopfStmt):
        return f"hopf {s.id}"
    if isinstance(s, ArcStmt):
        return _format_arc(s.arc)
    if isinstance(s, DecorateStmt):
        if s.perm is not None:
            return f'decorate {s.node} = perm "{s.perm.cycle_str()}"'
        scalars = " ".join(format_matrix(s.element.m))
        return f"decorate {s.node} = matrix {scalars}"
    raise TypeError(f"unknown statement {s!r}")


def serialize(doc: SldDocument) -> str:
    return "".join(_format_statement(s) + "\n" for s in doc.statements)
