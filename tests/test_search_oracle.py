"""The search against the exhaustive reference search (tests/search_oracle.py),
its Stiefel-Whitney pruning against check_sw, and the orbit-at-a-time class
count against the per-solution reference."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linkrep.search
from linkrep.conditions import (
    Decoration,
    check_genus0,
    check_relators,
    check_selfint,
    check_sw,
)
from linkrep.diagram import SingularLinkDiagram
from linkrep.rotation import (
    FiniteRotationGroup,
    generate_group,
    icosahedral_group,
    octahedral_group,
    rot,
    tetrahedral_group,
)
from linkrep.search import (
    SearchOptions,
    _orbit_minima,
    _word_index,
    count_classes,
    enumerate_valid_decorations,
)
from linkrep.sldfile import parse

import search_oracle
from conftest import FIXTURES, hopf_ring, involution_elements, random_diagram, search_space
from search_oracle import reference_enumerate, reference_orbit_minima

GROUPS = [octahedral_group(), icosahedral_group(), tetrahedral_group()]
DEDUP_MODES = ("none", "group_conjugacy", "so3_canonical")


def leaves_and_solutions(search, module, d: SingularLinkDiagram, opts: SearchOptions):
    """The leaves a search hands to the public re-verification (its
    check_relators calls) and the solutions it returns."""
    leaves = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            module,
            "check_relators",
            lambda d, dec: leaves.append(dec) or check_relators(d, dec),
        )
        return leaves, search(d, opts)


def assert_matches_reference(d: SingularLinkDiagram, group) -> None:
    want_leaves, want = leaves_and_solutions(
        reference_enumerate, search_oracle, d, SearchOptions(group)
    )
    for prune_sw in (False, True):
        leaves, got = leaves_and_solutions(
            enumerate_valid_decorations,
            linkrep.search,
            d,
            SearchOptions(group, prune_sw=prune_sw),
        )
        assert got == want
        # pruning leaves only solutions for the public re-verification;
        # without it the leaves are the reference's
        assert Counter(leaves) == Counter(got if prune_sw else want_leaves)
    assert_orbit_minima_match(got, d.hopfs, group)


def assert_orbit_minima_match(solutions, hopf_order, group) -> None:
    """The orbit-at-a-time minima and class counts equal the per-solution
    reference's, on whole decorations and Hopf tuples, and on a subset of
    the solutions that is not closed under conjugation."""
    whole = [[g for _, g in dec.mapping] for dec in solutions]
    hopf = [[dec[h] for h in hopf_order] for dec in solutions]
    for tuples in (whole, hopf, whole[::3], hopf[1::2]):
        assert _orbit_minima(tuples, group) == reference_orbit_minima(tuples, group)
    for mode in DEDUP_MODES:
        opts = SearchOptions(group, mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linkrep.search, "_orbit_minima", reference_orbit_minima)
            want = count_classes(solutions, hopf_order, opts)
        assert count_classes(solutions, hopf_order, opts) == want


class TestDifferential:
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: str(len(g)))
    @pytest.mark.parametrize("fixture", ["ref1.sld", "commuting.sld", "transport.sld"])
    def test_fixtures(self, fixture, group):
        assert_matches_reference(parse((FIXTURES / fixture).read_text()).diagram(), group)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: str(len(g)))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hopf_rings(self, n, group):
        assert_matches_reference(hopf_ring(n), group)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: str(len(g)))
    def test_node_less_diagram(self, group):
        # no first node to break symmetry on: the one empty decoration
        d = parse("").diagram()
        assert enumerate_valid_decorations(d, SearchOptions(group)) == [Decoration(())]
        assert_matches_reference(d, group)

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: str(len(g)))
    def test_simple_circle_first(self, group):
        # the circle's class representatives range over every class of G
        d = parse(
            "hopf h\ncircle c\ncircle e\n"
            "arc a from h.a slot 0 to h.b slot 0 word c:+\n"
            "arc b from c slot 0 to e slot 0 word c:+ h.a:+\n"
        ).diagram()
        assert linkrep.search._node_order(d)[0] == "c"
        assert enumerate_valid_decorations(d, SearchOptions(group))
        assert_matches_reference(d, group)

    @pytest.mark.parametrize(
        "group",
        [
            generate_group([rot("(1234)"), rot("(13)")], "dihedral"),  # 5 classes
            FiniteRotationGroup(generate_group([rot("(123)")]).elements),  # odd order
        ],
        ids=("dihedral", "cyclic3"),
    )
    @pytest.mark.parametrize("fixture", ["commuting.sld", "transport.sld", None])
    def test_custom_groups(self, fixture, group):
        d = hopf_ring(4) if fixture is None else parse((FIXTURES / fixture).read_text()).diagram()
        assert_matches_reference(d, group)
        # odd order: no involutions, so no Hopf node has a domain
        has_solutions = len(group) % 2 == 0
        assert bool(enumerate_valid_decorations(d, SearchOptions(group))) == has_solutions

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), group=st.sampled_from(GROUPS))
    def test_random_diagrams(self, seed, group):
        d = random_diagram(random.Random(seed))
        assume(check_genus0(d).passed and search_space(d, group) <= 600)
        assert_matches_reference(d, group)


def pruned_hopfs(d: SingularLinkDiagram, dec: Decoration, group) -> set:
    """The Hopf nodes whose search-side SW verdict fails: the member word
    folded on group indices lies in {I, g}."""
    idx = {n: group.index_of(g) for n, g in dec.mapping}
    return {
        h
        for h in d.hopfs
        if _word_index(d.member_words[h], idx, group) in (group.identity, idx[h])
    }


def check_sw_failures(d: SingularLinkDiagram, dec: Decoration) -> set:
    """The Hopf nodes check_sw reports with a path product in {I, g}."""
    res = check_sw(d, dec)
    failed = {
        line.split(":")[0].removeprefix("hopf ")
        for line in res.diagnostics
        if line.endswith("path product lies in {I, g}")
    }
    assert res.passed == (not failed)
    return failed


class TestPruningVerdict:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        group=st.sampled_from([octahedral_group(), icosahedral_group()]),
    )
    def test_equals_check_sw_on_random_diagrams(self, seed, group):
        rng = random.Random(seed)
        d = random_diagram(rng)
        while not (d.hopfs and check_selfint(d).passed):  # most draws fail this
            d = random_diagram(rng)
        involutions = involution_elements(group)
        dec = Decoration.of(
            {h: rng.choice(involutions) for h in d.hopfs}
            | {c: rng.choice(group.elements) for c in d.circles}
        )
        assert pruned_hopfs(d, dec, group) == check_sw_failures(d, dec)

    def test_equals_check_sw_on_a_two_arc_member_path(self):
        # h.a -> c -> h.b: the member path has two arcs, so the verdict
        # depends on the order the transport is folded in
        d = parse(
            "hopf h\ncircle c\ncircle d\n"
            "arc a1 from h.a slot 0 to c slot 0 word d:+\n"
            "arc a2 from c slot 1 to h.b slot 0 word d:+ c:+\n"
            "arc a3 from d slot 0 to d slot 1 word\n"
        ).diagram()
        # C(a2) C(a1): a2's word, then a1's
        assert [(str(ref), s) for ref, s in d.member_words["h"]] == [
            ("d", 1), ("c", 1), ("d", 1)
        ]
        group = octahedral_group()
        involutions = involution_elements(group)
        verdicts = set()
        for h, c, x in product(involutions, group.elements, group.elements):
            dec = Decoration.of({"h": h, "c": c, "d": x})
            failed = check_sw_failures(d, dec)
            assert pruned_hopfs(d, dec, group) == failed
            verdicts.add(not failed)
        assert verdicts == {True, False}
        dec = Decoration.of({"h": rot("(34)"), "c": rot("(23)"), "d": rot("(24)")})
        assert pruned_hopfs(d, dec, group) == check_sw_failures(d, dec)
