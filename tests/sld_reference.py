"""Reference .sld parser for differential tests: linkrep.sldfile's parse
before it split each line once.  It strips and tokenizes every line,
tests the keywords in the order group, circle/hopf, arc, decorate, parses
each reference through a helper and builds matrix decorations through
RotationElement.of.  Statement classes and the cycle-text cache are the
module's own."""

from typing import Dict, List

from linkrep.diagram import ArcBand, CircleRef
from linkrep.field import parse_scalar
from linkrep.rotation import RotationElement
from linkrep.sldfile import (
    GROUP_NAMES,
    ArcStmt,
    CircleStmt,
    CommentStmt,
    DecorateStmt,
    GroupStmt,
    HopfStmt,
    SldDocument,
    SldParseError,
    _perm_decoration,
)

_ARC_KEYWORDS = ["from", "slot", "to", "slot", "word"]
_SIGNS = {"+": 1, "-": -1}


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SldParseError(lineno, f"{what} must be an integer, got {token!r}")


def _ref(text: str, refs: Dict[str, CircleRef]) -> CircleRef:
    ref = refs.get(text)
    if ref is None:
        ref = refs[text] = CircleRef.parse(text)
    return ref


def _parse_arc(tokens: List[str], lineno: int, refs) -> ArcBand:
    if len(tokens) < 10:
        raise SldParseError(lineno, "truncated arc statement")
    if tokens[2:11:2] != _ARC_KEYWORDS:
        for pos, keyword in zip(range(2, 11, 2), _ARC_KEYWORDS):
            if pos >= len(tokens) or tokens[pos] != keyword:
                raise SldParseError(lineno, f"expected {keyword!r} in arc statement")
    arc_id = tokens[1]
    start = _ref(tokens[3], refs)
    start_slot = _parse_int(tokens[5], lineno, "slot")
    end = _ref(tokens[7], refs)
    end_slot = _parse_int(tokens[9], lineno, "slot")
    rest = tokens[11:]
    twist = 0
    if "twist" in rest:
        at = rest.index("twist")
        if at != len(rest) - 2:
            raise SldParseError(lineno, "twist takes exactly one trailing integer")
        twist = _parse_int(rest[-1], lineno, "twist")
        rest = rest[:at]
    word = []
    for tok in rest:
        ref_text, colon, sign_text = tok.rpartition(":")
        if not colon:
            raise SldParseError(lineno, f"word entry {tok!r} is missing its sign")
        sign = _SIGNS.get(sign_text)
        if sign is None:
            raise SldParseError(lineno, f"word sign must be + or -, got {sign_text!r}")
        word.append((_ref(ref_text, refs), sign))
    return ArcBand(arc_id, start, start_slot, end, end_slot, tuple(word), twist)


def _parse_decorate(tokens: List[str], lineno: int) -> DecorateStmt:
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
        element = RotationElement.of([entries[0:3], entries[3:6], entries[6:9]])
        return DecorateStmt(node=node, element=element, perm=None)
    raise SldParseError(lineno, f"unknown element kind {kind!r}")


def _tokenize(line: str, lineno: int) -> List[str]:
    tokens = line.split()
    if '"' not in line:
        return tokens
    for i, tok in enumerate(tokens):
        if '"' in tok:
            if len(tok) < 2 or tok[0] != '"' or tok[-1] != '"' or '"' in tok[1:-1]:
                raise SldParseError(lineno, f"unbalanced quote in {tok!r}")
            tokens[i] = tok[1:-1]
    return tokens


def reference_parse(text: str) -> SldDocument:
    statements = []
    node_ids = set()
    arc_ids = set()
    decorated: Dict[str, int] = {}
    refs: Dict[str, CircleRef] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            statements.append(CommentStmt(line[1:].strip()))
            continue
        tokens = _tokenize(line, lineno)
        keyword = tokens[0]
        try:
            if keyword == "group":
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
            elif keyword == "arc":
                arc = _parse_arc(tokens, lineno, refs)
                if arc.id in arc_ids:
                    raise SldParseError(lineno, f"duplicate id {arc.id!r}")
                arc_ids.add(arc.id)
                statements.append(ArcStmt(arc))
            elif keyword == "decorate":
                stmt = _parse_decorate(tokens, lineno)
                if stmt.node in decorated:
                    raise SldParseError(lineno, f"node {stmt.node!r} is decorated twice")
                decorated[stmt.node] = lineno
                statements.append(stmt)
            else:
                raise SldParseError(lineno, f"unknown keyword {keyword!r}")
        except ValueError as exc:
            raise SldParseError(lineno, str(exc))
    for node, lineno in decorated.items():
        if node not in node_ids:
            raise SldParseError(lineno, f"decoration of undeclared node {node!r}")
    return SldDocument(tuple(statements))
