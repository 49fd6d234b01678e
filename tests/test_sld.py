import contextlib
import io
import shlex
import sys
import tempfile
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkrep.sldfile
from linkrep.cli import main
from linkrep.conditions import Decoration, run_all_checks
from linkrep.diagram import ArcBand, CircleRef, DiagramError, SingularLinkDiagram
from linkrep.rotation import (
    CubePermutation,
    RotationElement,
    icosahedral_group,
    perm_to_rotation,
    rot,
)
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
    _tokenize,
    parse,
    serialize,
)

from sld_reference import reference_parse

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def _arc(aid, start, s_slot, end, e_slot, word):
    return ArcBand(
        id=aid,
        start=CircleRef.parse(start),
        start_slot=s_slot,
        end=CircleRef.parse(end),
        end_slot=e_slot,
        word=tuple((CircleRef.parse(r), s) for r, s in word),
    )


def programmatic_ref1():
    """REF-1 built by hand, independently of the parser."""
    diagram = SingularLinkDiagram(
        circles=("Y",),
        hopfs=("TL", "TR", "BL", "BR"),
        arcs=(
            _arc("A1", "TL.a", 0, "TL.b", 0, [("BL.a", 1)]),
            _arc("A2", "TR.a", 0, "TR.b", 0, [("BR.a", 1)]),
            _arc("A3", "BL.a", 0, "BL.b", 0, [("TL.a", 1)]),
            _arc("A4", "BR.a", 0, "BR.b", 0, [("TR.a", 1)]),
            _arc("A5", "TL.a", 1, "BL.a", 1, [("TR.a", 1), ("BR.a", 1)]),
            _arc("A6", "TR.a", 1, "BR.a", 1, [("TL.a", 1), ("BL.a", 1)]),
            _arc("A7", "TL.b", 1, "Y", 0, [("TL.a", 1), ("Y", 1)]),
            _arc("A8", "BL.b", 1, "TR.a", 2, [("BL.a", 1), ("TR.a", 1)]),
        ),
    )
    cycles = {"TL": "(12)", "TR": "(14)", "BL": "(34)", "BR": "(23)", "Y": "(24)"}
    decoration = Decoration.of({n: rot(c) for n, c in cycles.items()})
    return diagram, decoration


class TestParse:
    def test_readme_example_parses(self):
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("## The `.sld` format", 1)[1].split("```\n")[1]
        doc = parse(example)
        assert sum(isinstance(s, CommentStmt) for s in doc.statements) == 6
        assert serialize(doc) == example

    def test_ref1_fixture_matches_programmatic_diagram(self):
        doc = parse((FIXTURES / "ref1.sld").read_text())
        assert doc.group_name() == "octahedral"
        assert (doc.diagram(), doc.decoration()) == programmatic_ref1()

    def test_comment_and_blank_lines(self):
        doc = parse("\n# hello there\n\ncircle c\n")
        assert doc.statements[0] == CommentStmt("hello there")
        assert doc.diagram().circles == ("c",)

    def test_arc_with_signs_and_twist(self):
        doc = parse(
            "circle c\n"
            "arc a from c slot 0 to c slot 1 word c:+ c:- twist 2\n"
        )
        (a,) = doc.diagram().arcs
        assert a.twist == 2
        assert [s for _, s in a.word] == [1, -1]

    def test_matrix_decoration(self):
        doc = parse(
            "circle c\n"
            "decorate c = matrix 0 0 1 1 0 0 0 1 0\n"
        )
        assert doc.decoration()["c"] == rot("(123)") or isinstance(
            doc.decoration()["c"], RotationElement
        )

    def test_quoted_perm(self):
        doc = parse('hopf h\ndecorate h = perm "(12)(34)"\n')
        assert doc.decoration()["h"] == rot("(12)(34)")

    def test_undecorated_document_has_no_decoration(self):
        assert parse("circle c\n").decoration() is None


class TestParseErrors:
    def test_error_carries_line_number(self):
        with pytest.raises(SldParseError) as exc:
            parse("circle c\nbogus keyword\n")
        assert exc.value.line == 2
        assert "unknown keyword" in exc.value.message

    def test_duplicate_node_id(self):
        with pytest.raises(SldParseError, match="duplicate id"):
            parse("circle c\nhopf c\n")

    def test_duplicate_arc_id(self):
        with pytest.raises(SldParseError, match="duplicate id"):
            parse(
                "circle c\n"
                "arc a from c slot 0 to c slot 1 word\n"
                "arc a from c slot 2 to c slot 3 word\n"
            )

    def test_bad_group(self):
        with pytest.raises(SldParseError, match="group must be one of"):
            parse("group dihedral\n")

    def test_truncated_arc(self):
        with pytest.raises(SldParseError, match="truncated arc"):
            parse("arc a from c slot 0\n")

    def test_word_entry_without_sign(self):
        with pytest.raises(SldParseError, match="missing its sign"):
            parse("circle c\narc a from c slot 0 to c slot 1 word c\n")

    def test_non_rotation_matrix(self):
        with pytest.raises(SldParseError):
            parse("circle c\ndecorate c = matrix 1 1 0 0 1 0 0 0 1\n")

    def test_bad_scalar(self):
        with pytest.raises(SldParseError):
            parse("circle c\ndecorate c = matrix x 0 0 0 1 0 0 0 1\n")

    def test_second_decoration_of_a_node(self):
        with pytest.raises(SldParseError, match="decorated twice") as exc:
            parse('hopf H\ndecorate H = perm "(12)"\ndecorate H = perm "(34)"\n')
        assert exc.value.line == 3

    def test_decoration_of_an_undeclared_node(self):
        with pytest.raises(SldParseError, match="undeclared node 'ZZ'") as exc:
            parse('circle c\ndecorate ZZ = perm "(12)"\ndecorate c = perm "()"\n')
        assert exc.value.line == 2

    def test_decoration_may_precede_the_declaration(self):
        doc = parse('decorate c = perm "(12)"\ncircle c\n')
        assert doc.decoration()["c"] == rot("(12)")

    def test_slot_collision_is_a_validation_matter_not_a_parse_error(self):
        doc = parse(
            "circle c\narc a from c slot 0 to c slot 0 word\n"
        )
        with pytest.raises(DiagramError, match="slot collision"):
            doc.diagram()

    @pytest.mark.parametrize(
        "line",
        [
            "arc a from x.c slot 0 to y slot 0 word",
            "arc a from y slot 0 to y slot 1 word y.q:+",
        ],
    )
    def test_bad_hopf_member_tag(self, line):
        with pytest.raises(SldParseError, match="bad Hopf member tag") as exc:
            parse(f"circle y\n{line}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("scalar", ["1/0", "1+0/0*r5", "0/00"])
    def test_zero_denominator(self, scalar):
        with pytest.raises(SldParseError, match="zero denominator") as exc:
            parse(f"circle c\ndecorate c = matrix {scalar} 0 0 0 1 0 0 0 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("pos", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("drop", [False, True], ids=("replaced", "dropped"))
    def test_misplaced_arc_keyword_is_named(self, pos, drop):
        tokens = "arc a from c slot 0 to c slot 1 word c:+".split()
        expected = tokens[pos]
        if drop:
            del tokens[pos]
        else:
            tokens[pos] = "bogus"
        with pytest.raises(SldParseError) as exc:
            parse("circle c\n" + " ".join(tokens) + "\n")
        assert exc.value.line == 2
        assert exc.value.message == f"expected {expected!r} in arc statement"

    def test_arc_without_its_word_keyword(self):
        with pytest.raises(SldParseError) as exc:
            parse("circle c\narc a from c slot 0 to c slot 1\n")
        assert (exc.value.line, exc.value.message) == (2, "expected 'word' in arc statement")

    def test_malformed_cycle_fails_on_its_first_line_every_time(self):
        text = 'circle c\ncircle d\ndecorate c = perm "(11)"\ndecorate d = perm "(11)"\n'
        for _ in range(2):
            with pytest.raises(SldParseError, match="repeated point") as exc:
                parse(text)
            assert exc.value.line == 3
        assert "(11)" not in linkrep.sldfile._PERMS

    def test_cycle_texts_parse_alike_in_every_document(self):
        text = 'circle c\ncircle d\ndecorate c = perm "(12)(34)"\ndecorate d = perm "(12)(34)"\n'
        first, second = parse(text), parse(text)
        assert first == second
        for doc in (first, second):
            for stmt in doc.statements[2:]:
                assert stmt.perm == CubePermutation.parse("(12)(34)")
                assert stmt.element == perm_to_rotation(stmt.perm)
        assert len(linkrep.sldfile._PERMS) <= 86

    def test_equal_reference_texts_give_equal_refs(self):
        doc = parse(
            "hopf H\ncircle c\n"
            "arc a from H.a slot 0 to c slot 0 word c:+ H.b:-\n"
            "arc b from c slot 1 to H.b slot 0 word H.a:+ c:-\n"
        )
        a, b = (s.arc for s in doc.statements[2:])
        assert a.start == b.word[0][0] == CircleRef("H", "a")
        assert a.end == b.start == a.word[0][0] == b.word[1][0] == CircleRef("c")
        assert b.end == a.word[1][0] == CircleRef("H", "b")
        assert a.end.circle_id == "c" and b.end.circle_id == "H.b"


class TestCircleRef:
    def test_repr_hash_and_equality_see_node_and_member_only(self):
        member, simple = CircleRef("H", "a"), CircleRef("c")
        assert repr(member) == "CircleRef(node='H', member='a')"
        assert repr(simple) == "CircleRef(node='c', member=None)"
        assert hash(member) == hash(("H", "a"))
        assert hash(simple) == hash(("c", None))
        assert member == CircleRef.parse("H.a") and simple == CircleRef.parse("c")
        assert member != CircleRef("H", "b") and simple != CircleRef("c", "a")
        assert (member.circle_id, simple.circle_id, str(member)) == ("H.a", "c", "H.a")

    def test_circle_id_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            CircleRef("H", "a", "H.a")
        assert CircleRef("H", "b").circle_id == "H.b"


COMMUTING_TEXT = (FIXTURES / "commuting.sld").read_text()
_REFS = st.sampled_from(["H", "H.a", "H.b", "H.c", "C", "C.a", "Z", "Z.b", ".", "H."])
_SCALARS = st.sampled_from(["0", "1", "-1", "1/2", "1/0", "0/0", "1+0/0*r5", "1/4-1/4*r5", "x"])
_TOKENS = st.sampled_from(
    ["group", "octahedral", "circle", "hopf", "arc", "decorate", "from", "to",
     "slot", "word", "twist", "perm", "matrix", "=", "H", "C", "Z", "H.a", "H.q",
     "A1", "0", "1", "-1", "C:+", "H.b:-", "H.x:+", "C:*", '"(12)"', '"(11)"',
     "1/0", "1+0/0*r5", '"', "#"]
)
_ARC_LINES = st.builds(
    "arc {} from {} slot {} to {} slot {} word {}{}".format,
    st.sampled_from(["A1", "A3", "Z"]),
    _REFS,
    st.integers(-1, 2),
    _REFS,
    st.integers(-1, 2),
    st.lists(st.builds("{}:{}".format, _REFS, st.sampled_from("+-")), max_size=3).map(" ".join),
    st.sampled_from(["", " twist 1", " twist 2", " twist -4", " twist x"]),
)
_DECORATE_LINES = st.one_of(
    st.builds('decorate {} = perm "{}"'.format, _REFS, st.sampled_from(["()", "(12)", "(123)", "(1234)", "(11)", "(5)"])),
    st.builds("decorate {} = matrix {}".format, _REFS, st.lists(_SCALARS, min_size=8, max_size=10).map(" ".join)),
)
FUZZED_LINES = st.one_of(
    st.text(max_size=40),
    st.lists(_TOKENS, min_size=1, max_size=12).map(" ".join),
    _ARC_LINES,
    _DECORATE_LINES,
    st.builds("{} {}".format, st.sampled_from(["circle", "hopf"]), _REFS),
)


@settings(max_examples=300, deadline=None)
@given(line=FUZZED_LINES)
def test_appended_line_parses_or_is_rejected_with_exit_two(line):
    text = COMMUTING_TEXT + line + "\n"
    try:
        doc = parse(text)
    except SldParseError:
        doc = None
    if doc is not None:
        try:
            doc.diagram()
        except DiagramError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.sld"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", str(path)])
    assert code in (0, 1, 2)
    if doc is None:
        assert code == 2


def _statement_lines(text):
    """The lines parse tokenizes: stripped, neither blank nor comments."""
    stripped = (raw.strip() for raw in text.splitlines())
    return [line for line in stripped if line and not line.startswith("#")]


def _benchmark_documents():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import generate
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return [
        q.text
        for workload in sorted(generate.WORKLOADS)
        for seed in (1, 2)
        for q in generate.build_queries(workload, seed, 1, "out")
        if q.text is not None
    ]


class TestTokenizer:
    def test_agrees_with_shlex_on_the_corpus(self):
        fixtures = [p.read_text() for p in sorted(FIXTURES.glob("*.sld"))]
        generated = _benchmark_documents()
        corpus = fixtures + [serialize(parse(t)) for t in fixtures + generated] + generated
        lines = [line for text in corpus for line in _statement_lines(text)]
        assert len(lines) > 1000
        for line in lines:
            assert _tokenize(line.split(), 1) == shlex.split(line), line

    def test_quoted_token_keeps_inner_text(self):
        assert _tokenize('decorate h = perm "(12)(34)"'.split(), 1)[-1] == "(12)(34)"
        assert _tokenize('circle ""'.split(), 1) == ["circle", ""]

    @pytest.mark.parametrize(
        "line",
        ['decorate h = perm "(12)', 'decorate h = perm (12)"', 'decorate h = perm"(12)"',
         'decorate h = perm "(1"2)"', '"'],
    )
    def test_unbalanced_quote_is_a_parse_error(self, line):
        with pytest.raises(SldParseError, match="unbalanced quote") as exc:
            parse(f"hopf h\n{line}\n")
        assert exc.value.line == 2

    def test_single_quotes_and_backslashes_are_literal(self):
        with pytest.raises(SldParseError, match="malformed cycle notation"):
            parse("hopf h\ndecorate h = perm '(12)'\n")
        assert parse("circle a\\b\n").diagram().circles == ("a\\b",)


class TestSerialize:
    def test_fixture_corpus_round_trips_byte_for_byte(self):
        for path in sorted(FIXTURES.glob("*.sld")):
            text = path.read_text()
            doc = parse(text)
            assert serialize(doc) == text, path.name
            assert parse(serialize(doc)) == doc, path.name

    def test_twist_zero_is_omitted(self):
        doc = parse("circle c\narc a from c slot 0 to c slot 1 word twist 0\n")
        assert "twist" not in serialize(doc)
        assert parse(serialize(doc)).diagram() == doc.diagram()

    def test_perm_form_is_preserved(self):
        text = 'hopf h\ndecorate h = perm "(12)"\n'
        assert serialize(parse(text)) == text

    def test_matrix_form_is_preserved(self):
        text = "circle c\ndecorate c = matrix 0 0 1 1 0 0 0 1 0\n"
        assert serialize(parse(text)) == text

    def test_comment_with_a_form_feed_round_trips(self):
        doc = SldDocument((CommentStmt("a\x0cb"), CircleStmt("c")))
        assert serialize(doc) == "# a\x0cb\ncircle c\n"
        assert parse(serialize(doc)) == doc

    def test_comment_that_would_not_parse_back_is_rejected(self):
        # parse strips a comment's surrounding whitespace, and a line break
        # ends it; whitespace inside a comment still round-trips
        for text in (" a", "a\x0c", "a\x85", "x\ny", "x\ry"):
            with pytest.raises(ValueError):
                CommentStmt(text)
        doc = SldDocument((CommentStmt("a\x0cb\x85c"),))
        assert parse(serialize(doc)) == doc

    def test_statement_order_is_preserved(self):
        text = "# top\ngroup octahedral\ncircle b\ncircle a\n"
        doc = parse(text)
        assert isinstance(doc.statements[0], CommentStmt)
        assert isinstance(doc.statements[1], GroupStmt)
        assert serialize(doc) == text


_IDS = st.text("ABCxyz019_", min_size=1, max_size=3)
_S4 = [CubePermutation(tuple(p)) for p in permutations((1, 2, 3, 4))]


@st.composite
def sld_documents(draw) -> SldDocument:
    """Documents parse accepts: unique node and arc ids, each decoration of
    a declared node once, statements in any order.  Arc references need not
    resolve; that is the diagram's concern, not the format's."""
    nodes = draw(st.lists(_IDS, unique=True, max_size=6))
    kinds = draw(st.lists(st.booleans(), min_size=len(nodes), max_size=len(nodes)))
    refs = st.builds(CircleRef, _IDS, st.sampled_from([None, "a", "b"]))
    arcs = [
        ArcStmt(
            ArcBand(
                id=arc_id,
                start=draw(refs),
                start_slot=draw(st.integers(-3, 50)),
                end=draw(refs),
                end_slot=draw(st.integers(-3, 50)),
                word=tuple(draw(st.lists(st.tuples(refs, st.sampled_from((1, -1))), max_size=4))),
                twist=draw(st.integers(-4, 4)),
            )
        )
        for arc_id in draw(st.lists(_IDS, unique=True, max_size=5))
    ]
    elements = icosahedral_group().elements
    decorations = []
    for node in draw(st.lists(st.sampled_from(nodes), unique=True)) if nodes else []:
        if draw(st.booleans()):
            perm = draw(st.sampled_from(_S4))
            decorations.append(DecorateStmt(node, perm_to_rotation(perm), perm))
        else:
            decorations.append(DecorateStmt(node, draw(st.sampled_from(elements)), None))
    printable = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
    comments = [
        CommentStmt(text.strip())
        for text in draw(st.lists(st.text(printable, max_size=20), max_size=3))
    ]
    groups = [GroupStmt(name) for name in draw(st.lists(st.sampled_from(GROUP_NAMES), max_size=1))]
    declarations = [
        HopfStmt(n) if hopf else CircleStmt(n) for n, hopf in zip(nodes, kinds)
    ]
    statements = groups + declarations + arcs + decorations + comments
    return SldDocument(tuple(draw(st.permutations(statements))))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(doc=sld_documents())
    def test_parse_inverts_serialize_and_serialize_is_stable(self, doc):
        text = serialize(doc)
        again = parse(text)
        assert again == doc
        assert serialize(again) == text


_SAMPLE_ARC = "arc Q from H.a slot 0 to H.b slot 1 word H.a:+ C:-"


def _drop_token(tokens, draw):
    del tokens[draw(st.integers(0, min(10, len(tokens) - 1)))]


def _bad_slot(tokens, draw):
    tokens[draw(st.sampled_from([5, 9]))] = draw(st.sampled_from(["x", "1.5", "", "+"]))


def _misplaced_twist(tokens, draw):
    at = draw(st.integers(11, len(tokens)))
    tokens[at:at] = draw(st.sampled_from([["twist"], ["twist", "2", "C:+"], ["twist", "x"]]))


def _unsigned_entry(tokens, draw):
    tokens.insert(draw(st.integers(11, len(tokens))), draw(st.sampled_from(["C", "H.a", "C+"])))


def _bad_sign(tokens, draw):
    entry = draw(st.sampled_from(["C:*", "C:", "H.a:++", "C:+1", "C:-:"]))
    tokens.insert(draw(st.integers(11, len(tokens))), entry)


_ARC_CORRUPTIONS = (_drop_token, _bad_slot, _misplaced_twist, _unsigned_entry, _bad_sign)


def _corrupt(lines, draw):
    """Replace one line of a document (or add one) with a corrupted variant."""
    kind = draw(st.sampled_from(
        ["arc", "quote", "unknown keyword", "duplicate", "indented comment or blank"]
    ))
    if kind == "arc":
        arcs = [i for i, line in enumerate(lines) if line.startswith("arc ")]
        if not arcs:
            lines.append(_SAMPLE_ARC)
            arcs = [len(lines) - 1]
        i = draw(st.sampled_from(arcs))
        tokens = lines[i].split()
        draw(st.sampled_from(_ARC_CORRUPTIONS))(tokens, draw)
        lines[i] = " ".join(tokens)
        return
    if not lines:
        lines.append("circle C")
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "quote":
        tokens = lines[i].split() or ["#"]
        j = draw(st.integers(0, len(tokens) - 1))
        template = draw(st.sampled_from(['"{}', '{}"', '"{}"', '{}"x', '"', '"{}""']))
        tokens[j] = template.format(tokens[j])
        lines[i] = " ".join(tokens)
    elif kind == "unknown keyword":
        keyword = draw(st.sampled_from(["bogus", "arcs", "Arc", "circles", '""', '"arc"']))
        lines[i] = " ".join([keyword] + lines[i].split()[1:])
    elif kind == "duplicate":
        lines.insert(draw(st.integers(i, len(lines))), lines[i])
    else:
        lines.insert(i, draw(st.sampled_from(
            ["  # indented", "\t#", "   ", "\t \t", ' # a "quoted" remark', '  #"', "\u3000# wide"]
        )))


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except SldParseError as exc:
        return ("error", exc.line, exc.message)


class TestParseDifferential:
    """parse against the reference before one split per line: on a drawn
    document with one corrupted line, the same document or the same error
    line and message."""

    @settings(max_examples=400, deadline=None)
    @given(doc=sld_documents(), data=st.data())
    def test_same_document_or_same_error(self, doc, data):
        lines = serialize(doc).splitlines()
        _corrupt(lines, data.draw)
        text = "".join(line + "\n" for line in lines)
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.sld")), ids=lambda p: p.stem)
    def test_fixtures_parse_alike(self, path):
        text = path.read_text()
        assert parse(text) == reference_parse(text)


class TestFixtureSemantics:
    def test_ref1_fixture_passes_all_checks(self):
        doc = parse((FIXTURES / "ref1.sld").read_text())
        assert run_all_checks(doc.diagram(), doc.decoration()).passed

    def test_commuting_fixture_passes_all_checks(self):
        doc = parse((FIXTURES / "commuting.sld").read_text())
        assert run_all_checks(doc.diagram(), doc.decoration()).passed
