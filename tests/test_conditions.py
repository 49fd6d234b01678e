import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from functools import cached_property, partial
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linkrep.conditions
import linkrep.diagram
import linkrep.search
from linkrep.conditions import (
    CheckResult,
    Decoration,
    DecorationError,
    check_genus0,
    check_relators,
    check_selfint,
    check_sw,
    ensure_total,
    evaluate_representation,
    evaluate_word,
    extract_presentation,
    holonomy_word,
    run_all_checks,
)
from linkrep.diagram import ArcBand, CircleRef, DiagramError, SingularLinkDiagram
from linkrep.field import Matrix3
from linkrep.rotation import (
    RotationElement,
    conjugate,
    icosahedral_group,
    generate_group,
    octahedral_group,
    rot,
    tetrahedral_group,
)
from linkrep.search import SearchOptions, enumerate_valid_decorations

from linkrep.sldfile import parse

from conftest import (
    FIXTURES,
    involution_elements,
    random_decoration,
    random_diagram,
    ref1_decoration,
    ref1_diagram,
    search_space,
    worded_path_diagram,
)
from member_words_reference import _adjacency as string_keyed_adjacency
from triple_arc_reference import triple_arc_findings


def arc(aid, start, s_slot, end, e_slot, word=(), twist=0):
    return ArcBand(
        id=aid,
        start=CircleRef.parse(start),
        start_slot=s_slot,
        end=CircleRef.parse(end),
        end_slot=e_slot,
        word=tuple((CircleRef.parse(r), s) for r, s in word),
        twist=twist,
    )


class TestHolonomyWord:
    def test_empty_word_is_identity(self):
        d = ref1_diagram()
        dec = ref1_decoration()
        a = arc("t", "Y", 5, "Y", 6)
        assert holonomy_word(a, dec) == RotationElement.identity()

    def test_ordered_product_leftmost_first(self):
        dec = Decoration.of({"u": rot("(34)"), "v": rot("(14)")})
        a = arc("t", "u", 0, "v", 0, [("u", 1), ("v", 1)])
        # (34) then (14) in matrix order: rot("(34)") * rot("(14)")
        assert holonomy_word(a, dec) == rot("(34)") * rot("(14)")
        assert holonomy_word(a, dec) == rot("(134)")

    def test_negative_sign_inverts(self):
        dec = Decoration.of({"u": rot("(123)")})
        a = arc("t", "u", 0, "u", 1, [("u", -1)])
        assert holonomy_word(a, dec) == rot("(132)")

    def test_folds_never_multiply_by_the_identity(self, monkeypatch):
        # an n-factor fold costs n - 1 products, none of them by I
        products = []
        real_mul = RotationElement.__mul__

        def mul(x, y):
            products.append((x, y))
            return real_mul(x, y)

        monkeypatch.setattr(RotationElement, "__mul__", mul)
        dec = Decoration.of({"u": rot("(34)"), "v": rot("(14)"), "w": rot("(123)")})
        a = arc("t", "u", 0, "v", 0, [("u", 1), ("v", 1), ("w", -1)])
        assert holonomy_word(a, dec) == rot("(34)") * rot("(14)") * rot("(132)")
        products.clear()
        holonomy_word(a, dec)
        assert len(products) == 2
        products.clear()
        assert evaluate_word((("w", 1),), dec) == rot("(123)")
        assert evaluate_word((), dec) == RotationElement.identity()
        assert products == []


class TestRelators:
    def test_ref1_passes(self):
        assert check_relators(ref1_diagram(), ref1_decoration()).passed

    def test_single_failing_arc_is_named(self):
        d = SingularLinkDiagram(
            circles=("u", "v"), arcs=(arc("a1", "u", 0, "v", 0),)
        )
        dec = Decoration.of({"u": rot("(12)"), "v": rot("(13)")})
        res = check_relators(d, dec)
        assert not res.passed
        assert any("a1" in line for line in res.diagnostics)

    def test_conjugating_word_makes_it_pass(self):
        d = SingularLinkDiagram(
            circles=("u", "v", "w"),
            arcs=(arc("a1", "u", 0, "v", 0, [("w", 1)]),),
        )
        g, c = rot("(12)"), rot("(123)")
        dec = Decoration.of({"u": g, "v": conjugate(c, g), "w": c})
        assert check_relators(d, dec).passed

    def test_partial_decoration_rejected(self):
        d = SingularLinkDiagram(circles=("u", "v"))
        with pytest.raises(DecorationError, match="undecorated"):
            check_relators(d, Decoration.of({"u": rot("(12)")}))

    def test_global_conjugation_invariance(self, rng):
        for _ in range(25):
            d = random_diagram(rng)
            dec = random_decoration(d, rng)
            verdict = check_relators(d, dec).passed
            for c in (rot("(123)"), rot("(1234)")):
                assert check_relators(d, dec.conjugated(c)).passed == verdict

    def test_reversing_an_arc_preserves_verdict(self, rng):
        # start->end with word W holds iff end->start with word W^-1 holds
        for _ in range(25):
            d = random_diagram(rng)
            if not d.arcs:
                continue
            dec = random_decoration(d, rng)
            flipped = []
            for a in d.arcs:
                flipped.append(
                    ArcBand(
                        id=a.id,
                        start=a.end,
                        start_slot=a.end_slot,
                        end=a.start,
                        end_slot=a.start_slot,
                        word=tuple((r, -s) for r, s in reversed(a.word)),
                        twist=a.twist,
                    )
                )
            d2 = SingularLinkDiagram(d.circles, d.hopfs, tuple(flipped))
            assert check_relators(d2, dec).passed == check_relators(d, dec).passed


class TestSelfintAndGenus:
    def test_ref1_passes_both(self):
        assert check_selfint(ref1_diagram()).passed
        assert check_genus0(ref1_diagram()).passed

    def test_isolated_hopf_fails_selfint(self):
        d = SingularLinkDiagram(hopfs=("h",))
        res = check_selfint(d)
        assert not res.passed
        assert any("h" in line for line in res.diagnostics)

    def test_arc_joining_members_fixes_selfint(self):
        d = SingularLinkDiagram(hopfs=("h",), arcs=(arc("a", "h.a", 0, "h.b", 0),))
        assert check_selfint(d).passed

    def test_interleaved_bands_fail_genus(self):
        d = SingularLinkDiagram(
            circles=("c",),
            arcs=(arc("a", "c", 0, "c", 2), arc("b", "c", 1, "c", 3)),
        )
        res = check_genus0(d)
        assert not res.passed
        assert any("genus 1" in line for line in res.diagnostics)

    def test_crosscheck_agrees_with_genus_on_matching_triple(self):
        # a matching cyclic-order triple forces genus one: the reference
        # cross-check reports it, and check_genus0 reports only the genus
        d = SingularLinkDiagram(
            circles=("c1", "c2"),
            arcs=(
                arc("a1", "c1", 0, "c2", 0),
                arc("a2", "c1", 1, "c2", 1),
                arc("a3", "c1", 2, "c2", 2),
            ),
        )
        assert triple_arc_findings(d)
        res = check_genus0(d)
        assert not res.passed
        assert res.diagnostics == ("component c1...: genus 1",)

    def test_crosscheck_silent_on_reversed_triple(self):
        d = SingularLinkDiagram(
            circles=("c1", "c2"),
            arcs=(
                arc("a1", "c1", 0, "c2", 2),
                arc("a2", "c1", 1, "c2", 1),
                arc("a3", "c1", 2, "c2", 0),
            ),
        )
        res = check_genus0(d)
        assert res.passed
        assert res.diagnostics == ()


class TestSW:
    def test_ref1_passes(self):
        assert check_sw(ref1_diagram(), ref1_decoration()).passed

    def test_non_involution_on_hopf_fails(self):
        d = SingularLinkDiagram(hopfs=("h",), arcs=(arc("a", "h.a", 0, "h.b", 0),))
        dec = Decoration.of({"h": rot("(123)")})
        res = check_sw(d, dec)
        assert not res.passed
        assert any("pi-rotation" in line for line in res.diagnostics)

    def test_trivial_path_product_fails(self):
        # empty arc word: the path product is the identity
        d = SingularLinkDiagram(hopfs=("h",), arcs=(arc("a", "h.a", 0, "h.b", 0),))
        dec = Decoration.of({"h": rot("(12)")})
        res = check_sw(d, dec)
        assert not res.passed
        assert any("{I, g}" in line for line in res.diagnostics)

    def test_path_product_equal_to_g_fails(self):
        d = SingularLinkDiagram(
            hopfs=("h",), arcs=(arc("a", "h.a", 0, "h.b", 0, [("h.a", 1)]),)
        )
        dec = Decoration.of({"h": rot("(12)")})
        assert not check_sw(d, dec).passed

    def test_commuting_nontrivial_product_passes(self):
        # C(A) = (34) commutes with g = (12) and is neither I nor g
        d = SingularLinkDiagram(
            circles=("c",),
            hopfs=("h",),
            arcs=(
                arc("a", "h.a", 0, "h.b", 0, [("c", 1)]),
                arc("b", "h.a", 1, "c", 0),
            ),
        )
        dec = Decoration.of({"h": rot("(12)"), "c": rot("(34)")})
        res = check_sw(d, dec)
        assert res.passed
        assert res.diagnostics == ()

    def test_noncommuting_product_flagged_as_inconsistency(self):
        d = SingularLinkDiagram(
            circles=("c",),
            hopfs=("h",),
            arcs=(
                arc("a", "h.a", 0, "h.b", 0, [("c", 1)]),
                arc("b", "h.a", 1, "c", 0),
            ),
        )
        dec = Decoration.of({"h": rot("(12)"), "c": rot("(13)")})
        # a transport that does not commute with g breaks a relator, which
        # check_relators reports; check_sw gives its verdict and nothing more
        assert not check_relators(d, dec).passed
        res = check_sw(d, dec)
        assert res.passed  # verdict from the shortest path alone
        assert res.diagnostics == ()

    def test_noncommuting_product_flagged_although_relators_pass(self):
        # a two-arc path h.a -> c -> h.b: the relators carry g along a1 and
        # then a2, so the transport is C(a2) C(a1) = (24)(23)(24) = (34) = g
        # and SW fails; the fold C(a1) C(a2) = (24)(24)(23) = (23) would
        # neither commute with g nor fail
        d = SingularLinkDiagram(
            circles=("c", "d"),
            hopfs=("h",),
            arcs=(
                arc("a1", "h.a", 0, "c", 0, [("d", 1)]),
                arc("a2", "c", 1, "h.b", 0, [("d", 1), ("c", 1)]),
                arc("a3", "d", 0, "d", 1),
            ),
        )
        dec = Decoration.of({"h": rot("(34)"), "c": rot("(23)"), "d": rot("(24)")})
        assert check_relators(d, dec).passed
        res = check_sw(d, dec)
        assert not res.passed
        assert res.diagnostics == ("hopf h: path product lies in {I, g}",)

    def test_disconnected_members_raise(self):
        d = SingularLinkDiagram(hopfs=("h",))
        dec = Decoration.of({"h": rot("(12)")})
        with pytest.raises(DiagramError, match="no arc path"):
            check_sw(d, dec)

    def test_exhaustive_paths_on_ref1(self):
        res = check_sw(ref1_diagram(), ref1_decoration(), exhaustive_paths=True)
        assert res.passed
        assert not any("path-dependent" in line for line in res.diagnostics)

    def test_adjacency_built_once_per_diagram(self, monkeypatch):
        # the circle graph is the diagram's integer step lists, read by the
        # shortest member paths and by the exhaustive walk
        calls = []
        real = SingularLinkDiagram._steps.func
        steps = cached_property(lambda d: calls.append(d) or real(d))
        steps.__set_name__(SingularLinkDiagram, "_steps")
        monkeypatch.setattr(SingularLinkDiagram, "_steps", steps)
        d = ref1_diagram()
        for exhaustive in (False, True, False, True):
            assert check_sw(d, ref1_decoration(), exhaustive_paths=exhaustive).passed
        assert calls == [d]

    def test_identity_tests_compare_no_matrices(self, monkeypatch):
        # the products are table elements and the identity is the untagged
        # constant: the table's identity index decides the comparison
        d, dec = ref1_diagram(), ref1_decoration()
        p = extract_presentation(d)
        compared = []
        real_eq = Matrix3.__eq__
        monkeypatch.setattr(
            Matrix3, "__eq__", lambda x, y: compared.append(1) or real_eq(x, y)
        )
        assert check_sw(d, dec).passed
        assert evaluate_representation(p, dec)
        assert compared == []


class TestSimplePathLimit:
    # k parallel arcs h.a -> h.b, each crossing c: k simple member paths
    @staticmethod
    def parallel(k):
        d = SingularLinkDiagram(
            circles=("c",),
            hopfs=("h",),
            arcs=tuple(arc(f"a{i}", "h.a", i, "h.b", i, [("c", 1)]) for i in range(k))
            + (arc("b", "h.a", k, "c", 0),),
        )
        return d, Decoration.of({"h": rot("(12)"), "c": rot("(34)")})

    def test_truncation_is_reported(self, monkeypatch):
        monkeypatch.setattr(linkrep.conditions, "SIMPLE_PATH_LIMIT", 2)
        d, dec = self.parallel(3)
        res = check_sw(d, dec, exhaustive_paths=True)
        assert res.passed
        assert res.diagnostics == ("hopf h: only the first 2 simple paths were examined",)

    def test_no_report_at_exactly_the_limit(self, monkeypatch):
        monkeypatch.setattr(linkrep.conditions, "SIMPLE_PATH_LIMIT", 3)
        d, dec = self.parallel(3)
        assert check_sw(d, dec, exhaustive_paths=True).diagnostics == ()

    def test_no_report_without_exhaustive_paths(self, monkeypatch):
        monkeypatch.setattr(linkrep.conditions, "SIMPLE_PATH_LIMIT", 1)
        d, dec = self.parallel(3)
        assert check_sw(d, dec).diagnostics == ()


def doubled_chain(links: int) -> str:
    """A Hopf pair H whose members are joined through `links` doubled links
    H.a = C0, C1, ..., C(links) = H.b: 2**links simple member paths.  Each
    link has an arc with the empty word and one crossing the link's first
    circle and H.b; H is (12), every C is (34)."""
    ends = ["H.a"] + [f"C{i}" for i in range(1, links)] + ["H.b"]
    lines = ["group octahedral", "hopf H"] + [f"circle {c}" for c in ends[1:-1]]
    slot = dict.fromkeys(ends, 0)
    for i, (u, v) in enumerate(zip(ends, ends[1:])):
        for tag, word in (("a", ""), ("b", f" {u}:+ H.b:+")):
            lines.append(f"arc L{i}{tag} from {u} slot {slot[u]} to {v} slot {slot[v]} word{word}")
            slot[u] += 1
            slot[v] += 1
    lines.append('decorate H = perm "(12)"')
    lines += [f'decorate {c} = perm "(34)"' for c in ends[1:-1]]
    return "".join(line + "\n" for line in lines)


def dead_end_chain(links: int) -> str:
    """A Hopf pair H whose members are joined by one arc with the empty
    word, and a doubled chain H.a = D0, D1, ..., D(links) hanging off H.a
    that never reaches H.b: 2**links simple paths lead into the chain, and
    none of them is a member path.  H is (12), every D is (34)."""
    ends = ["H.a"] + [f"D{i}" for i in range(1, links + 1)]
    lines = ["group octahedral", "hopf H"] + [f"circle {c}" for c in ends[1:]]
    lines.append("arc M from H.a slot 0 to H.b slot 0 word")
    slot = dict.fromkeys(ends, 0)
    slot["H.a"] = 1
    for i, (u, v) in enumerate(zip(ends, ends[1:])):
        for tag in "ab":
            lines.append(f"arc L{i}{tag} from {u} slot {slot[u]} to {v} slot {slot[v]} word")
            slot[u] += 1
            slot[v] += 1
    lines.append('decorate H = perm "(12)"')
    lines += [f'decorate {c} = perm "(34)"' for c in ends[1:]]
    return "".join(line + "\n" for line in lines)


def _with_dead_ends(d, rng):
    """d with one to three branches of new circles hung off random circles
    of d.  A branch is a chain of one to four links, each of one or two
    arcs, and meets the rest of d only at its root, so a simple path that
    enters it from the root cannot leave it."""
    refs = [CircleRef(c) for c in d.circles]
    refs += [CircleRef(h, m) for h in d.hopfs for m in ("a", "b")]
    slots = {r.circle_id: 0 for r in refs}
    for a in d.arcs:
        for ref, slot in ((a.start, a.start_slot), (a.end, a.end_slot)):
            slots[ref.circle_id] = max(slots[ref.circle_id], slot + 1)
    circles, arcs = list(d.circles), list(d.arcs)
    for b in range(rng.randint(1, 3)):
        chain = [rng.choice(refs)]
        for i in range(rng.randint(1, 4)):
            circles.append(f"e{b}_{i}")
            chain.append(CircleRef(circles[-1]))
            slots[circles[-1]] = 0
        for u, v in zip(chain, chain[1:]):
            for _ in range(rng.randint(1, 2)):
                start, end = (u, v) if rng.random() < 0.5 else (v, u)
                word = tuple(
                    (rng.choice(refs), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))
                )
                arcs.append(
                    ArcBand(
                        f"x{len(arcs)}",
                        start,
                        slots[start.circle_id],
                        end,
                        slots[end.circle_id],
                        word,
                    )
                )
                slots[start.circle_id] += 1
                slots[end.circle_id] += 1
    return SingularLinkDiagram(circles=tuple(circles), hopfs=d.hopfs, arcs=tuple(arcs))


def _reference_path_products(d, dec, src, dst):
    """Reference: every simple member path enumerated depth first, with its
    transport C(A_k)^(+-1) ... C(A_1)^(+-1) folded on its own, on the
    reference's own circle adjacency keyed by circle id strings."""
    adj = string_keyed_adjacency(d)
    stack, visited = [], {src}

    def walk(cur):
        if cur == dst:
            yield linkrep.conditions._signed_product(
                (holonomy_word(a, dec), direction) for a, direction in reversed(stack)
            )
            return
        for a, direction in adj.get(cur, []):
            nxt = a.end.circle_id if direction == 1 else a.start.circle_id
            if nxt not in visited:
                visited.add(nxt)
                stack.append((a, direction))
                yield from walk(nxt)
                stack.pop()
                visited.discard(nxt)

    return list(walk(src))


class TestExhaustivePaths:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dead_ends=st.booleans())
    def test_products_equal_the_per_path_refold(self, seed, dead_ends):
        rng = random.Random(seed)
        d = random_diagram(rng)
        if dead_ends:
            d = _with_dead_ends(d, rng)
        dec = random_decoration(d, rng)
        adj, index = string_keyed_adjacency(d), d._circle_index
        # the member paths, and a path between two circles of any kind
        pairs = [(f"{h}.a", f"{h}.b") for h in d.hopfs]
        if len(adj) > 1:
            pairs.append(tuple(rng.sample(sorted(adj), 2)))
        for src, dst in pairs:
            got = linkrep.conditions._simple_path_products(
                d._steps, index[src], index[dst], lambda a: holonomy_word(a, dec)
            )
            assert list(islice(got, 500)) == _reference_path_products(d, dec, src, dst)[:500]

    def test_dead_end_chain_report_is_prompt(self, tmp_path):
        from linkrep.cli import main

        path = tmp_path / "dead40.sld"
        path.write_text(dead_end_chain(40))
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = main(["check", "--all-sw-paths", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        # one member path, with the empty word: no path-dependent verdict
        assert json.loads(out.getvalue())["checks"]["sw"] == {
            "passed": False,
            "diagnostics": ["hopf H: path product lies in {I, g}"],
        }

    def test_chain_products_fold_along_the_walk(self, monkeypatch):
        links = 4
        doc = parse(doubled_chain(links))
        d, dec = doc.diagram(), doc.decoration()
        holonomies = []
        real_holonomy = linkrep.conditions.holonomy_word
        monkeypatch.setattr(
            linkrep.conditions,
            "holonomy_word",
            lambda a, dec: holonomies.append(a.id) or real_holonomy(a, dec),
        )
        products = []
        real_mul = RotationElement.__mul__
        monkeypatch.setattr(
            RotationElement, "__mul__", lambda g, h: products.append(1) or real_mul(g, h)
        )
        res = check_sw(d, dec, exhaustive_paths=True)
        assert "hopf H: path-dependent verdict across simple paths" in res.diagnostics
        assert len(holonomies) == len(set(holonomies)) <= 2 * links
        # one product per two-letter word, none for the shortest path (its
        # member word is empty), and one per prefix of length >= 2 of the
        # 2**links member paths: 4 + (4 + 8 + 16)
        assert len(products) == links + (2 ** (links + 1) - 4)

    def test_member_path_longer_than_the_recursion_limit(self, monkeypatch):
        monkeypatch.setattr(linkrep.conditions, "SIMPLE_PATH_LIMIT", 2)
        doc = parse(doubled_chain(sys.getrecursionlimit() + 100))
        res = check_sw(doc.diagram(), doc.decoration(), exhaustive_paths=True)
        assert res.diagnostics == (
            "hopf H: path product lies in {I, g}",
            "hopf H: path-dependent verdict across simple paths",
            "hopf H: only the first 2 simple paths were examined",
        )

    def test_doubled_chain_report_is_prompt(self, tmp_path):
        from linkrep.cli import main

        path = tmp_path / "chain14.sld"
        path.write_text(doubled_chain(14))
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = main(["check", "--all-sw-paths", str(path)])
        assert time.perf_counter() - start < 2.0
        assert code == 1
        # the report of the per-path refold (10001 paths walked, ~100 s)
        assert json.loads(out.getvalue()) == {
            "wellformed": True,
            "b1": 1,
            "b2": 1,
            "components": [["H.a", "H.b"] + [f"C{i}" for i in range(1, 14)]],
            "checks": {
                "genus0": {"passed": True, "diagnostics": []},
                "selfint": {"passed": True, "diagnostics": []},
                "relators": {
                    "passed": False,
                    "diagnostics": [
                        f"arc {a}: end decoration is not C(A) g C(A)^-1"
                        for a in ("L0a", "L0b", "L13a", "L13b")
                    ],
                },
                "sw": {
                    "passed": False,
                    "diagnostics": [
                        "hopf H: path product lies in {I, g}",
                        "hopf H: path-dependent verdict across simple paths",
                        "hopf H: only the first 10000 simple paths were examined",
                    ],
                },
            },
            "obstructions": {"psq": 3, "b2_mod4": 1, "verdict": False},
            "search": None,
            "diagnostics": [],
        }


class TestDecorationIndex:
    def test_index_takes_no_part_in_comparison(self):
        a = Decoration.of({"x": rot("(12)"), "y": rot("(34)")})
        b = Decoration((("x", rot("(12)")), ("y", rot("(34)"))))
        assert a == b and hash(a) == hash(b)
        assert "_index" not in repr(a)
        assert a["y"] == rot("(34)") and "x" in a and "z" not in a
        with pytest.raises(DecorationError, match="'z' is not decorated"):
            a["z"]

    def test_first_pair_of_a_node_wins(self):
        dec = Decoration((("x", rot("(12)")), ("x", rot("(34)"))))
        assert dec["x"] == rot("(12)")

    def test_totality_check_is_linear(self):
        n = 20000
        names = tuple(f"c{i}" for i in range(n))
        d = SingularLinkDiagram(circles=names)
        dec = Decoration.of(dict.fromkeys(names, RotationElement.identity()))
        start = time.perf_counter()
        ensure_total(d, dec)
        assert time.perf_counter() - start < 1.0


    def test_table_noted_only_when_one_table_owns_every_element(self):
        oct_, ico = octahedral_group(), icosahedral_group()
        dec = Decoration.of({"x": rot("(12)"), "y": rot("(34)")})
        assert dec._group is oct_
        index_of = oct_.index_of
        assert dec._at == {"x": index_of(rot("(12)")), "y": index_of(rot("(34)"))}
        for mapping in (
            {"x": rot("(12)"), "y": ico.elements[1]},  # two groups
            {"x": rot("(12)"), "y": RotationElement.identity()},  # the constant
            {"x": RotationElement.of(rot("(12)").m.rows)},  # a matrix decoration
            {},
        ):
            dec = Decoration.of(mapping)
            assert dec._group is None and dec._at is None


def _untagged(dec):
    """The same decoration by elements no group owns, which the checks
    multiply as matrices."""
    return Decoration(tuple((n, RotationElement.of(g.m.rows)) for n, g in dec.mapping))


def _outcome(check, d, dec):
    try:
        return check(d, dec)
    except DiagramError as exc:
        return ("DiagramError", str(exc))


PRESETS = [octahedral_group(), icosahedral_group(), tetrahedral_group()]


class TestCheckPaths:
    """check_relators and check_sw give the same CheckResult on the group
    that owns a decoration as on its untagged copy."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        group=st.sampled_from(PRESETS),
        generate=st.sampled_from([random_diagram, worded_path_diagram]),
        solution=st.booleans(),
    )
    def test_index_path_equals_element_path(self, seed, group, generate, solution):
        rng = random.Random(seed)
        d = generate(rng)
        # a Hopf node is mostly decorated by an involution, as solutions are
        pools = [involution_elements(group)] * 4 + [group.elements]
        dec = Decoration.of(
            {h: rng.choice(rng.choice(pools)) for h in d.hopfs}
            | {c: rng.choice(group.elements) for c in d.circles}
        )
        if solution and check_genus0(d).passed and search_space(d, group) <= 600:
            dec = rng.choice(enumerate_valid_decorations(d, SearchOptions(group)) or [dec])
        plain = _untagged(dec)
        assert dec._group is group and plain._group is None
        for check in (check_relators, check_sw, partial(check_sw, exhaustive_paths=True)):
            assert _outcome(check, d, dec) == _outcome(check, d, plain)

    def test_draws_cover_solutions_and_failures(self):
        verdicts = set()
        rng = random.Random(11)
        for _ in range(200):
            d = worded_path_diagram(rng)
            group = rng.choice(PRESETS)
            if not check_genus0(d).passed or search_space(d, group) > 600:
                continue
            for dec in enumerate_valid_decorations(d, SearchOptions(group))[:1] + [
                _group_decoration(d, group, rng)
            ]:
                relators = check_relators(d, dec)
                sw = _outcome(check_sw, d, dec)
                if isinstance(sw, CheckResult):
                    verdicts.add((relators.passed, sw.passed))
                    assert relators == check_relators(d, _untagged(dec))
                    assert sw == check_sw(d, _untagged(dec))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_custom_group_decorations_take_the_index_path(self):
        dihedral = generate_group([rot("(1234)"), rot("(13)")], "dihedral")
        d = parse((FIXTURES / "commuting.sld").read_text()).diagram()
        sols = enumerate_valid_decorations(d, SearchOptions(dihedral, "none"))
        assert sols and all(dec._group is dihedral for dec in sols)
        for dec in sols:
            assert check_relators(d, dec) == check_relators(d, _untagged(dec))
            assert check_sw(d, dec) == check_sw(d, _untagged(dec))


def _passed(d, dec):
    report = run_all_checks(d, dec)
    return [c.passed for c in (report.genus0, report.selfint, report.relators, report.sw)]


def _rebuild(d, circles=None, hopfs=None, arc_map=lambda a: a):
    return SingularLinkDiagram(
        circles=d.circles if circles is None else circles,
        hopfs=d.hopfs if hopfs is None else hopfs,
        arcs=tuple(arc_map(a) for a in d.arcs),
    )


def _renamed(d, dec, rng):
    nodes = list(d.circles) + list(d.hopfs)
    fresh = [f"n{i}" for i in range(len(nodes))]
    rng.shuffle(fresh)
    name = dict(zip(nodes, fresh))

    def ref(r):
        return CircleRef(name[r.node], r.member)

    d2 = _rebuild(
        d,
        circles=tuple(name[c] for c in d.circles),
        hopfs=tuple(name[h] for h in d.hopfs),
        arc_map=lambda a: ArcBand(
            id=a.id,
            start=ref(a.start),
            start_slot=a.start_slot,
            end=ref(a.end),
            end_slot=a.end_slot,
            word=tuple((ref(r), s) for r, s in a.word),
            twist=a.twist,
        ),
    )
    return d2, Decoration.of({name[n]: g for n, g in dec.mapping})


def _slots_relabelled(d, rng):
    # a random strictly increasing map of the used slots, per circle
    used = {}
    for a in d.arcs:
        used.setdefault(a.start.circle_id, set()).add(a.start_slot)
        used.setdefault(a.end.circle_id, set()).add(a.end_slot)
    new = {}
    for cid, slots in used.items():
        value = rng.randint(-5, 5)
        for slot in sorted(slots):
            new[cid, slot] = value
            value += rng.randint(1, 4)
    return _rebuild(
        d,
        arc_map=lambda a: ArcBand(
            id=a.id,
            start=a.start,
            start_slot=new[a.start.circle_id, a.start_slot],
            end=a.end,
            end_slot=new[a.end.circle_id, a.end_slot],
            word=a.word,
            twist=a.twist,
        ),
    )


def _some_arcs_reversed(d, rng):
    flip = {a.id for a in d.arcs if rng.random() < 0.5}
    return _rebuild(
        d,
        arc_map=lambda a: a
        if a.id not in flip
        else ArcBand(
            id=a.id,
            start=a.end,
            start_slot=a.end_slot,
            end=a.start,
            end_slot=a.start_slot,
            word=tuple((r, -s) for r, s in reversed(a.word)),
            twist=a.twist,
        ),
    )


class TestInvariance:
    # the passed flag of each of the four checks, over random diagrams and
    # octahedral decorations, under the symmetries the maths guarantees

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from(octahedral_group().elements))
    def test_global_conjugation(self, seed, c):
        rng = random.Random(seed)
        d = random_diagram(rng)
        dec = random_decoration(d, rng)
        assert _passed(d, dec.conjugated(c)) == _passed(d, dec)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_node_renaming(self, seed):
        rng = random.Random(seed)
        d = random_diagram(rng)
        dec = random_decoration(d, rng)
        assert _passed(*_renamed(d, dec, rng)) == _passed(d, dec)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone_slot_relabelling(self, seed):
        rng = random.Random(seed)
        d = random_diagram(rng)
        dec = random_decoration(d, rng)
        assert _passed(_slots_relabelled(d, rng), dec) == _passed(d, dec)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_arc_reversal(self, seed):
        rng = random.Random(seed)
        d = random_diagram(rng)
        dec = random_decoration(d, rng)
        assert _passed(_some_arcs_reversed(d, rng), dec) == _passed(d, dec)


def _group_decoration(d, group, rng):
    """Hopf nodes decorated by random involutions, circles by random elements."""
    involutions = involution_elements(group)
    return Decoration.of(
        {h: rng.choice(involutions) for h in d.hopfs}
        | {c: rng.choice(group.elements) for c in d.circles}
    )


def _subdivided(d, dec, rng):
    """Split a random arc A: start -> end with word w = w1 w2 at a random
    point, as the relators read it (end = C(w1) C(w2) g C(w2)^-1 C(w1)^-1):
    A1 runs start -> a new circle with word w2, A2 runs that circle -> end
    with word w1, and the circle is decorated C(w2) g C(w2)^-1."""
    a = rng.choice(d.arcs)
    k = rng.randint(0, len(a.word))
    mid = CircleRef("split")
    a1 = ArcBand(f"{a.id}s", a.start, a.start_slot, mid, 0, a.word[k:], a.twist)
    a2 = ArcBand(f"{a.id}t", mid, 1, a.end, a.end_slot, a.word[:k])
    d2 = SingularLinkDiagram(
        circles=d.circles + ("split",),
        hopfs=d.hopfs,
        arcs=tuple(b for b in d.arcs if b is not a) + (a1, a2),
    )
    g = conjugate(holonomy_word(a1, dec), dec[a.start.node])
    return d2, Decoration(dec.mapping + (("split", g),))


def _relator_solutions(d, group):
    """Every decoration over the group passing the relators, Hopf nodes
    decorated by involutions: the search with its SW filter switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linkrep.search, "check_sw", lambda d, dec: CheckResult("sw", True))
        return enumerate_valid_decorations(d, SearchOptions(group))


def _assert_transports_commute(d, group):
    """Every member-word product commutes with its Hopf decoration on every
    solution of the relators; returns the number of solutions."""
    solutions = _relator_solutions(d, group)
    for dec in solutions:
        assert check_relators(d, dec).passed
        for h in d.hopfs:
            p = linkrep.conditions._word_product(d.member_words[h], dec)
            assert p * dec[h] == dec[h] * p
    return len(solutions)


TRANSPORT_GROUPS = [octahedral_group(), icosahedral_group()]


def _transports_commute_on_a_draw(generate, seed, group):
    rng = random.Random(seed)
    d = generate(rng)
    while not (
        d.hopfs
        and check_selfint(d).passed
        and check_genus0(d).passed
        and search_space(d, group) <= 600
    ):
        d = generate(rng)
    _assert_transports_commute(d, group)


def _subdivision_keeps_the_verdict_on_a_draw(generate, seed, group):
    rng = random.Random(seed)
    d = generate(rng)
    assume(d.arcs)
    dec = _group_decoration(d, group, rng)
    sw = run_all_checks(d, dec, exhaustive_paths=True).sw
    # a subdivision lengthens the member paths through the split arc, so
    # the shortest path may change; its verdict then may too
    assume("path-dependent" not in " ".join(sw.diagnostics))
    assert _passed(*_subdivided(d, dec, rng)) == _passed(d, dec)


class TestTransportOrder:
    # the SW product is the transport C(A_k)^(+-1) ... C(A_1)^(+-1) along
    # the member path, the order in which the relators carry g from h.a on

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(TRANSPORT_GROUPS))
    def test_member_transport_commutes_when_relators_pass(self, seed, group):
        _transports_commute_on_a_draw(random_diagram, seed, group)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(TRANSPORT_GROUPS))
    def test_member_transport_commutes_on_worded_member_paths(self, seed, group):
        # random_diagram seldom joins the members by two worded arcs
        _transports_commute_on_a_draw(worded_path_diagram, seed, group)

    @pytest.mark.parametrize(
        "group, count", zip(TRANSPORT_GROUPS, (120, 240)), ids=("24", "60")
    )
    def test_member_transport_commutes_on_a_two_arc_member_path(self, group, count):
        # on this fixed diagram the product C(a1) C(a2) fails to commute with g
        # on 24 of the 120 octahedral solutions of the relators
        d = parse((FIXTURES / "transport.sld").read_text()).diagram()
        assert _assert_transports_commute(d, group) == count

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(TRANSPORT_GROUPS))
    def test_subdivision_keeps_every_verdict(self, seed, group):
        _subdivision_keeps_the_verdict_on_a_draw(random_diagram, seed, group)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(TRANSPORT_GROUPS))
    def test_subdivision_keeps_every_verdict_on_worded_member_paths(self, seed, group):
        _subdivision_keeps_the_verdict_on_a_draw(worded_path_diagram, seed, group)

    @pytest.mark.parametrize(
        "group, count", zip(TRANSPORT_GROUPS, (720, 1800)), ids=("24", "60")
    )
    def test_split_arc_keeps_the_solutions(self, group, count):
        # one arc h.a -> h.b with word x y against its split h.a -> c with
        # word y, then c -> h.b with word x: their relators are equivalent,
        # so the solutions restricted to (h, x, y) are the same
        single = parse(
            "hopf h\ncircle x\ncircle y\n"
            "arc a from h.a slot 0 to h.b slot 0 word x:+ y:+\n"
        ).diagram()
        split = parse(
            "hopf h\ncircle x\ncircle y\ncircle c\n"
            "arc a1 from h.a slot 0 to c slot 0 word y:+\n"
            "arc a2 from c slot 1 to h.b slot 0 word x:+\n"
        ).diagram()
        restricted = [
            [
                (dec["h"], dec["x"], dec["y"])
                for dec in enumerate_valid_decorations(d, SearchOptions(group))
            ]
            for d in (single, split)
        ]
        assert len(restricted[0]) == len(set(restricted[1])) == count
        assert set(restricted[0]) == set(restricted[1])


class TestRunAll:
    def test_ref1_full_report(self):
        report = run_all_checks(ref1_diagram(), ref1_decoration())
        assert report.passed
        assert [c.name for c in (report.genus0, report.selfint, report.relators, report.sw)] == [
            "genus0",
            "selfint",
            "relators",
            "sw",
        ]

    def test_sw_skipped_when_selfint_fails(self):
        d = SingularLinkDiagram(hopfs=("h",))
        report = run_all_checks(d, Decoration.of({"h": rot("(12)")}))
        assert not report.selfint.passed
        assert not report.sw.passed
        assert "selfint precondition failed" in report.sw.diagnostics


class TestPresentation:
    def test_ref1_shape(self):
        p = extract_presentation(ref1_diagram())
        assert len(p.generators) == 5
        assert len(p.relators) == 8
        assert set(p.generators) == {"TL", "TR", "BL", "BR", "Y"}

    def test_relator_shape_for_single_arc(self):
        d = SingularLinkDiagram(
            circles=("u", "v", "w"),
            arcs=(arc("a", "u", 0, "v", 0, [("w", 1)]),),
        )
        p = extract_presentation(d)
        assert p.relators == ((("v", -1), ("w", 1), ("u", 1), ("w", -1)),)

    def test_evaluate_word(self):
        dec = Decoration.of({"x": rot("(1234)")})
        assert evaluate_word((("x", 1), ("x", -1)), dec) == RotationElement.identity()

    def test_agrees_with_check_relators(self, rng):
        # independent oracle: relators evaluate to the identity iff every
        # arc conjugation equation holds
        for _ in range(40):
            d = random_diagram(rng)
            dec = random_decoration(d, rng)
            p = extract_presentation(d)
            assert evaluate_representation(p, dec) == check_relators(d, dec).passed

    def test_ref1_representation(self):
        p = extract_presentation(ref1_diagram())
        assert evaluate_representation(p, ref1_decoration())
