import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkrep.diagram
from linkrep.conditions import extract_presentation, run_all_checks
from linkrep.diagram import (
    ArcBand,
    CircleRef,
    DiagramError,
    SingularLinkDiagram,
    betti,
    components,
    ribbon_genus,
    validate,
)

from linkrep.rotation import octahedral_group
from linkrep.search import SearchOptions, enumerate_valid_decorations

from linkrep.sldfile import parse

from conftest import FIXTURES, random_diagram, ref1_diagram
from ribbon_reference import reference_ribbon_genus
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


class TestValidate:
    # a malformed diagram cannot be built: construction raises DiagramError
    # carrying every violation validate() finds

    def test_empty_diagram(self):
        d = SingularLinkDiagram()
        assert validate(d) == []
        assert d.n_hopf == 0 and d.n_simple == 0

    def test_unresolved_reference(self):
        with pytest.raises(DiagramError, match="unresolved reference") as exc:
            SingularLinkDiagram(circles=("c1",), arcs=(arc("a1", "c1", 0, "ghost", 0),))
        assert exc.value.violations == ["unresolved reference ghost at end of arc a1"]

    def test_slot_collision(self):
        with pytest.raises(DiagramError, match="slot collision"):
            SingularLinkDiagram(circles=("c1",), arcs=(arc("a1", "c1", 0, "c1", 0),))

    def test_duplicate_ids(self):
        with pytest.raises(DiagramError, match="duplicate node id"):
            SingularLinkDiagram(circles=("c1", "c1"))

    def test_circle_named_like_a_hopf_member(self):
        # circle ids must be distinct circle vertices; H.a is a member of H
        with pytest.raises(DiagramError, match="'H.a' is a Hopf member id"):
            SingularLinkDiagram(circles=("H.a",), hopfs=("H",))

    def test_error_lists_every_violation(self):
        with pytest.raises(DiagramError) as exc:
            SingularLinkDiagram(
                circles=("c1", "c1"),
                arcs=(
                    arc("a1", "c1", 0, "c1", 0, [("ghost", 1)]),
                    arc("a2", "c1", 1, "c1", 2, twist=1),
                ),
            )
        assert exc.value.violations == [
            "duplicate node id 'c1'",
            "non-orientable band a2",
            "slot collision at c1:0 (arc a1)",
            "unresolved reference ghost in word of arc a1",
        ]
        assert str(exc.value) == "; ".join(exc.value.violations)

    def test_construction_is_linear_in_the_node_count(self):
        def build_seconds(n):
            # a decorated-chain shape: node i's self-arc crosses node i+1,
            # the link arc from node i to node i+1 crosses one of three circles
            arcs = [
                arc(f"S{i}", f"N{i}.a", 0, f"N{i}.b", 0, [(f"N{(i + 1) % n}.a", 1)])
                for i in range(n)
            ] + [
                arc(f"L{i}", f"N{i}.b", 1, f"N{i + 1}.a", 1, [(f"Z{i % 3}", 1)])
                for i in range(n - 1)
            ]
            hopfs = tuple(f"N{i}" for i in range(n))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                d = SingularLinkDiagram(
                    circles=("Z0", "Z1", "Z2"), hopfs=hopfs, arcs=tuple(arcs)
                )
                best = min(best, time.perf_counter() - start)
            assert d.n_hopf == n
            return best

        small, large = build_seconds(1000), build_seconds(4000)
        # membership tests on the node tuples made 4000 nodes cost ~0.8 s,
        # about 16 times 1000 nodes; linear work is about 4 times
        assert large < 0.25
        assert large < 8 * small

    def test_cached_plan_is_read_only(self):
        d = ref1_diagram()
        for plan in (d.adjacency, d.member_words, d.arcs_mentioning):
            with pytest.raises(TypeError):
                plan["x"] = ()
            assert all(isinstance(v, tuple) for v in plan.values())

    def test_validate_runs_once_per_diagram(self, monkeypatch):
        calls = []
        real = linkrep.diagram.validate
        monkeypatch.setattr(
            linkrep.diagram, "validate", lambda d: calls.append(d) or real(d)
        )
        doc = parse((FIXTURES / "commuting.sld").read_text())
        d, dec = doc.diagram(), doc.decoration()
        assert len(calls) == 1
        run_all_checks(d, dec, exhaustive_paths=True)
        extract_presentation(d)
        betti(d)
        enumerate_valid_decorations(d, SearchOptions(group=octahedral_group()))
        assert calls == [d]


class TestComponents:
    def test_two_isolated_circles(self):
        d = SingularLinkDiagram(circles=("c1", "c2"))
        assert len(components(d).blocks) == 2

    def test_one_arc_joins(self):
        d = SingularLinkDiagram(
            circles=("c1", "c2"), arcs=(arc("a1", "c1", 0, "c2", 0),)
        )
        assert len(components(d).blocks) == 1

    def test_ref1_is_connected(self):
        assert len(components(ref1_diagram()).blocks) == 1

    def test_invariant_under_arc_reordering(self, rng):
        for _ in range(30):
            d = random_diagram(rng)
            shuffled = list(d.arcs)
            rng.shuffle(shuffled)
            d2 = SingularLinkDiagram(d.circles, d.hopfs, tuple(shuffled))
            assert components(d) == components(d2)

    def test_block_of_every_circle(self, rng):
        for _ in range(30):
            part = components(random_diagram(rng))
            for block in part.blocks:
                for cid in block:
                    assert part.block_of(cid) is block
            with pytest.raises(KeyError):
                part.block_of("no-such-circle")

    def test_found_once_per_diagram(self, monkeypatch):
        from linkrep.cli import main

        calls = []
        real = linkrep.diagram._connected_components
        monkeypatch.setattr(
            linkrep.diagram,
            "_connected_components",
            lambda d: calls.append(d) or real(d),
        )
        d = ref1_diagram()
        assert components(d) is components(d)
        assert len(calls) == 1
        # a check query: selfint, genus, betti and the report's components
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", str(FIXTURES / "ref1.sld")]) == 0
        assert len(calls) == 2


class TestBetti:
    def test_ref1(self):
        assert betti(ref1_diagram()) == (1, 4)

    def test_lonely_circle(self):
        assert betti(SingularLinkDiagram(circles=("c1",))) == (1, 0)

    def test_disjoint_union_additivity(self):
        ref = ref1_diagram()
        renamed_arcs = tuple(
            ArcBand(
                id=a.id + "x",
                start=CircleRef(a.start.node + "x", a.start.member),
                start_slot=a.start_slot,
                end=CircleRef(a.end.node + "x", a.end.member),
                end_slot=a.end_slot,
                word=tuple((CircleRef(r.node + "x", r.member), s) for r, s in a.word),
            )
            for a in ref.arcs
        )
        doubled = SingularLinkDiagram(
            circles=ref.circles + tuple(c + "x" for c in ref.circles),
            hopfs=ref.hopfs + tuple(h + "x" for h in ref.hopfs),
            arcs=ref.arcs + renamed_arcs,
        )
        assert betti(doubled) == (2, 8)

    def test_error_when_selfint_fails(self):
        d = SingularLinkDiagram(hopfs=("h1",))
        with pytest.raises(DiagramError, match="ill-defined"):
            betti(d)


class TestRibbonGenus:
    def test_tree_has_genus_zero(self):
        d = SingularLinkDiagram(
            circles=("c1", "c2", "c3"),
            arcs=(arc("a1", "c1", 0, "c2", 0), arc("a2", "c2", 1, "c3", 0)),
        )
        assert ribbon_genus(d) == [(("c1", "c2", "c3"), 0)]

    def test_interleaved_bands_give_genus_one(self):
        # slots a,b,a,b around one circle: boundary tracing yields F = 1
        d = SingularLinkDiagram(
            circles=("c",),
            arcs=(arc("a", "c", 0, "c", 2), arc("b", "c", 1, "c", 3)),
        )
        assert ribbon_genus(d) == [(("c",), 1)]

    def test_nested_bands_give_genus_zero(self):
        # slots a,a,b,b: three boundary circles, sphere after capping
        d = SingularLinkDiagram(
            circles=("c",),
            arcs=(arc("a", "c", 0, "c", 1), arc("b", "c", 2, "c", 3)),
        )
        assert ribbon_genus(d) == [(("c",), 0)]

    def test_ref1_tree(self):
        assert all(g == 0 for _, g in ribbon_genus(ref1_diagram()))

    def test_odd_twist_rejected(self):
        # a non-orientable band is a validation violation: the diagram
        # cannot be built, so ribbon_genus never sees one
        with pytest.raises(DiagramError, match="non-orientable band a1"):
            SingularLinkDiagram(
                circles=("c1", "c2"), arcs=(arc("a1", "c1", 0, "c2", 0, twist=1),)
            )

    def test_slot_relabeling_invariance(self, rng):
        for _ in range(40):
            d = random_diagram(rng)
            base = {block: g for block, g in ribbon_genus(d)}
            # same cyclic order, shifted and stretched slot labels per circle
            relabeled = []
            for a in d.arcs:
                relabeled.append(
                    ArcBand(
                        id=a.id,
                        start=a.start,
                        start_slot=3 * a.start_slot + 1,
                        end=a.end,
                        end_slot=3 * a.end_slot + 1,
                        word=a.word,
                        twist=a.twist,
                    )
                )
            d2 = SingularLinkDiagram(d.circles, d.hopfs, tuple(relabeled))
            assert {block: g for block, g in ribbon_genus(d2)} == base

    def test_bridging_arc_never_increases_total_genus(self, rng):
        for _ in range(40):
            d = random_diagram(rng)
            blocks = components(d).blocks
            if len(blocks) < 2:
                continue
            total = sum(g for _, g in ribbon_genus(d))
            c1, c2 = blocks[0][0], blocks[1][0]
            slots = {
                cid: max(
                    [a.start_slot for a in d.arcs if a.start.circle_id == cid]
                    + [a.end_slot for a in d.arcs if a.end.circle_id == cid]
                    + [-1]
                )
                + 1
                for cid in (c1, c2)
            }
            bridge = ArcBand(
                id="bridge",
                start=CircleRef.parse(c1),
                start_slot=slots[c1],
                end=CircleRef.parse(c2),
                end_slot=slots[c2],
            )
            d2 = SingularLinkDiagram(d.circles, d.hopfs, d.arcs + (bridge,))
            assert sum(g for _, g in ribbon_genus(d2)) <= total


def random_ribbon_graph(rng: random.Random) -> SingularLinkDiagram:
    """Simple circles joined by random bands at shuffled slots, so that the
    components take every genus their size allows."""
    circles = tuple(f"c{i}" for i in range(rng.randint(1, 6)))
    ends = [(rng.choice(circles), rng.choice(circles)) for _ in range(rng.randint(0, 12))]
    degree = {c: 0 for c in circles}
    for u, v in ends:
        degree[u] += 1
        degree[v] += 1
    free = {c: rng.sample(range(3 * k), k) for c, k in degree.items()}
    arcs = tuple(
        ArcBand(f"a{i}", CircleRef(u), free[u].pop(), CircleRef(v), free[v].pop())
        for i, (u, v) in enumerate(ends)
    )
    return SingularLinkDiagram(circles=circles, arcs=arcs)


def disjoint_pairs(n: int) -> SingularLinkDiagram:
    """n components, each two circles joined by one band."""
    return SingularLinkDiagram(
        circles=tuple(c for i in range(n) for c in (f"c{i}", f"d{i}")),
        arcs=tuple(arc(f"a{i}", f"c{i}", 0, f"d{i}", 0) for i in range(n)),
    )


def star(n: int) -> SingularLinkDiagram:
    """A hub circle joined to each of n spokes by two bands: one component
    with n + 1 faces."""
    arcs = []
    for i in range(n):
        arcs.append(arc(f"a{i}", "hub", 2 * i, f"s{i}", 0))
        arcs.append(arc(f"b{i}", "hub", 2 * i + 1, f"s{i}", 1))
    return SingularLinkDiagram(
        circles=("hub",) + tuple(f"s{i}" for i in range(n)), arcs=tuple(arcs)
    )


class TestRibbonGenusScaling:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_the_reference_algorithm(self, seed):
        rng = random.Random(seed)
        for d in (random_diagram(rng), random_ribbon_graph(rng)):
            assert ribbon_genus(d) == reference_ribbon_genus(d)

    def test_reference_agreement_reaches_higher_genus(self):
        rng = random.Random(7)
        genera = set()
        for _ in range(200):
            d = random_ribbon_graph(rng)
            got = ribbon_genus(d)
            assert got == reference_ribbon_genus(d)
            genera.update(g for _, g in got)
        assert {0, 1, 2, 3} <= genera

    @pytest.mark.parametrize("build", [disjoint_pairs, star], ids=("pairs", "star"))
    def test_linear_in_components_and_faces(self, build):
        # 4 000 components, or one component with 4 001 faces: about 3 s
        # each when every component rescanned every arc and every face
        # trace searched for the least unvisited half-edge
        d = build(4000)
        start = time.perf_counter()
        genera = ribbon_genus(d)
        assert time.perf_counter() - start < 0.25
        assert len(genera) == (4000 if build is disjoint_pairs else 1)
        assert all(g == 0 for _, g in genera)


def parallel_arcs(k: int, rng: random.Random = None) -> SingularLinkDiagram:
    """Two circles joined by k bands, in the same slot order at both ends
    or, given rng, in a shuffled order at the second circle."""
    slots = list(range(k))
    if rng is not None:
        rng.shuffle(slots)
    return SingularLinkDiagram(
        circles=("c1", "c2"),
        arcs=tuple(arc(f"a{i}", "c1", i, "c2", slots[i]) for i in range(k)),
    )


class TestTripleArcCrosscheck:
    """The triple-arc reading of the genus condition, kept as a test
    reference (tests/triple_arc_reference.py): a theorem about ribbon_genus,
    not a runtime check."""

    def test_reversed_orders_pass(self):
        d = SingularLinkDiagram(
            circles=("c1", "c2"),
            arcs=(
                arc("a1", "c1", 0, "c2", 2),
                arc("a2", "c1", 1, "c2", 1),
                arc("a3", "c1", 2, "c2", 0),
            ),
        )
        assert triple_arc_findings(d) == []

    def test_matching_orders_reported(self):
        d = SingularLinkDiagram(
            circles=("c1", "c2"),
            arcs=(
                arc("a1", "c1", 0, "c2", 0),
                arc("a2", "c1", 1, "c2", 1),
                arc("a3", "c1", 2, "c2", 2),
            ),
        )
        assert triple_arc_findings(d) == [("c1", "c2", ("a1", "a2", "a3"))]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_finding_implies_positive_genus(self, seed):
        rng = random.Random(seed)
        for d in (
            random_diagram(rng),
            random_ribbon_graph(rng),
            parallel_arcs(rng.randint(3, 5), rng),
        ):
            genus = {cid: g for block, g in ribbon_genus(d) for cid in block}
            for c1, _, _ in triple_arc_findings(d):
                assert genus[c1] > 0

    def test_findings_are_seen_on_shuffled_parallel_arcs(self):
        rng = random.Random(3)
        assert any(triple_arc_findings(parallel_arcs(4, rng)) for _ in range(20))

    def test_check_on_200_parallel_arcs_is_prompt(self, tmp_path):
        # the runtime cross-check gave 1 313 401 genus0 diagnostics here, in ~5 s
        from linkrep.cli import main

        lines = ["group octahedral", "circle c1", "circle c2"]
        lines += [f"arc a{i} from c1 slot {i} to c2 slot {i} word" for i in range(200)]
        lines += ['decorate c1 = perm "()"', 'decorate c2 = perm "()"']
        path = tmp_path / "parallel200.sld"
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["check", str(path)])
        assert time.perf_counter() - start < 0.25
        assert code == 1
        genus0 = json.loads(out.getvalue())["checks"]["genus0"]
        assert genus0 == {"passed": False, "diagnostics": ["component c1...: genus 99"]}
