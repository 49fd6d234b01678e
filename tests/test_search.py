import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linkrep.diagram
import linkrep.search
from linkrep.conditions import CheckResult, Decoration, check_genus0, check_sw, run_all_checks
from linkrep.diagram import ArcBand, CircleRef, SingularLinkDiagram
from linkrep.field import Matrix3
from linkrep.rotation import (
    RotationElement,
    axis_of_involution,
    conjugate,
    icosahedral_group,
    octahedral_group,
    rot,
    tetrahedral_group,
)
from linkrep.search import (
    REF1_HOPF_ORDER,
    ConjugacyClassKey,
    SearchOptions,
    StructuralConditionError,
    _class_transversals,
    canonical_class,
    count_classes,
    enumerate_valid_decorations,
    verify_onepoint_geometry,
)

from conftest import (
    hopf_ring,
    random_diagram,
    ref1_decoration,
    ref1_diagram,
    search_space,
)


def arc(aid, start, s_slot, end, e_slot, word=()):
    return ArcBand(
        id=aid,
        start=CircleRef.parse(start),
        start_slot=s_slot,
        end=CircleRef.parse(end),
        end_slot=e_slot,
        word=tuple((CircleRef.parse(r), s) for r, s in word),
    )


OCT = SearchOptions(group=octahedral_group())


@pytest.fixture(scope="module")
def ref1_solutions():
    return enumerate_valid_decorations(ref1_diagram(), OCT)


class TestEnumerate:
    def test_single_circle_admits_every_element(self):
        d = SingularLinkDiagram(circles=("c",))
        sols = enumerate_valid_decorations(d, OCT)
        assert len(sols) == 24

    def test_hopf_without_connecting_arcs_is_empty(self):
        # the self-intersection condition fails, no path product exists
        d = SingularLinkDiagram(hopfs=("h",))
        assert enumerate_valid_decorations(d, OCT) == []

    def test_genus_failure_is_an_error(self):
        d = SingularLinkDiagram(
            circles=("c",),
            arcs=(arc("a", "c", 0, "c", 2), arc("b", "c", 1, "c", 3)),
        )
        with pytest.raises(StructuralConditionError):
            enumerate_valid_decorations(d, OCT)

    def test_single_hopf_with_commuting_partner(self):
        d = SingularLinkDiagram(
            circles=("c",),
            hopfs=("h",),
            arcs=(arc("a", "h.a", 0, "h.b", 0, [("c", 1)]),),
        )
        sols = enumerate_valid_decorations(d, OCT)
        # the arc relator makes c commute with h; the path product c must
        # escape {I, h}.  Centralizer sizes 8 and 4 give 3*6 + 6*2 = 30.
        assert len(sols) == 30
        for dec in sols[::5]:
            assert run_all_checks(d, dec).passed
            assert dec["c"] * dec["h"] == dec["h"] * dec["c"]
            assert dec["c"] != dec["h"]
            assert dec["c"] != RotationElement.identity()

    def test_ref1_solutions(self, ref1_solutions):
        sols = ref1_solutions
        assert len(sols) == 120
        assert ref1_decoration() in sols

    def test_ref1_solutions_all_verify(self, ref1_solutions):
        d = ref1_diagram()
        for dec in ref1_solutions[::7]:
            assert run_all_checks(d, dec).passed

    def test_ref1_solution_set_closed_under_group_conjugation(self, ref1_solutions):
        sols = ref1_solutions
        pool = {tuple(dec.mapping) for dec in sols}
        for dec in sols[::11]:
            for c in octahedral_group().elements[::5]:
                assert tuple(dec.conjugated(c).mapping) in pool

    def test_deterministic_order(self, ref1_solutions):
        assert enumerate_valid_decorations(ref1_diagram(), OCT) == ref1_solutions

    def test_tetrahedral_group_finds_nothing_on_ref1(self):
        # the tetrahedral involutions are the three coordinate flips, which
        # pairwise commute and cannot realize the forced pi/4 geometry
        sols = enumerate_valid_decorations(
            ref1_diagram(), SearchOptions(group=tetrahedral_group())
        )
        assert sols == []


class TestSymmetryBreaking:
    @pytest.mark.parametrize(
        "group, sizes",
        [
            (octahedral_group(), [3, 6]),
            (icosahedral_group(), [15]),
            (tetrahedral_group(), [3]),
        ],
        ids=("24", "60", "12"),
    )
    def test_involution_classes(self, group, sizes):
        table = group.table
        found = _class_transversals(table.involutions, table.conj)
        assert [len(cosets) for cosets in found.values()] == sizes
        reached = []
        for r, cosets in found.items():
            images = [table.conj[c][r] for c in cosets]
            assert r == min(images)  # the least index of its class
            reached += images
        # the transversals carry each representative onto its whole class, once each
        assert sorted(reached) == list(table.involutions)

    @pytest.mark.parametrize(
        "group, sizes",
        [
            (octahedral_group(), [1, 3, 6, 6, 8]),
            (icosahedral_group(), [1, 12, 12, 15, 20]),
            (tetrahedral_group(), [1, 3, 4, 4]),
        ],
        ids=("24", "60", "12"),
    )
    def test_every_class_of_the_group(self, group, sizes):
        table = group.table
        found = _class_transversals(range(len(group)), table.conj)
        assert sorted(len(cosets) for cosets in found.values()) == sizes


class TestEquivariance:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        group=st.sampled_from([octahedral_group(), icosahedral_group()]),
    )
    def test_raw_solutions_are_closed_under_conjugation(self, seed, group):
        d = random_diagram(random.Random(seed))
        assume(check_genus0(d).passed and search_space(d, group) <= 600)
        solutions = enumerate_valid_decorations(d, SearchOptions(group, "none"))
        found = set(solutions)
        assert len(found) == len(solutions)
        # a finite set closed under conjugation by the generators is closed
        # under conjugation by every element of the group they generate
        assert group.generators
        for c in group.generators:
            assert {dec.conjugated(c) for dec in solutions} == found


class TestCanonicalClass:
    def test_rotated_pairs_share_a_key(self):
        # (12),(34) and (14),(23) are perpendicular axis pairs
        assert canonical_class([rot("(12)"), rot("(34)")]) == canonical_class(
            [rot("(14)"), rot("(23)")]
        )

    def test_angle_distinguishes(self):
        # a repeated axis is not congruent to a perpendicular pair
        assert canonical_class([rot("(12)"), rot("(12)")]) != canonical_class(
            [rot("(12)"), rot("(34)")]
        )

    def test_conjugation_invariance(self):
        base = [rot("(12)"), rot("(14)"), rot("(34)"), rot("(23)")]
        key = canonical_class(base)
        for c in octahedral_group().elements[::3]:
            assert canonical_class([conjugate(c, g) for g in base]) == key

    def test_order_matters(self):
        a = [rot("(12)"), rot("(12)(34)"), rot("(13)")]
        b = [a[1], a[0], a[2]]
        assert canonical_class(a) != canonical_class(b)

    def test_rejects_non_involutions(self):
        with pytest.raises(ValueError):
            canonical_class([rot("(123)")])

    def test_key_is_hashable_record(self):
        key = canonical_class([rot("(12)")])
        assert isinstance(key, ConjugacyClassKey)
        assert key.size == 1
        assert hash(key) == hash(canonical_class([rot("(12)")]))

    def test_mirror_pairs_with_equal_cosines_distinguished_by_triples(self):
        tl, tr, bl, br = (rot(s) for s in ("(12)", "(14)", "(34)", "(23)"))
        base = canonical_class([tl, tr, bl, br])
        swapped = canonical_class([tl, br, bl, tr])
        assert base.cos_squared == swapped.cos_squared


def brute_force_signs(elements):
    """Reference for canonical_class's sign patterns: the least (gram_signs,
    triple_signs) over all 2^n per-axis sign flips."""
    axes = [axis_of_involution(g).direction for g in elements]
    n = len(axes)
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    gram = [[axes[i].dot(axes[j]).sign() for j in range(n)] for i in range(n)]
    dets = {
        t: Matrix3(tuple(axes[x].components() for x in t)).det().sign()
        for t in triples
    }
    return min(
        (
            tuple(f[i] * f[j] * gram[i][j] for i, j in pairs),
            tuple(f[i] * f[j] * f[k] * dets[(i, j, k)] for i, j, k in triples),
        )
        for f in product((1, -1), repeat=n)
    )


INVOLUTION_POOLS = {
    "oct": octahedral_group().involutions(),
    "ico": icosahedral_group().involutions(),
    "mixed": octahedral_group().involutions() + icosahedral_group().involutions(),
}


class TestCanonicalClassGreedy:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(INVOLUTION_POOLS)),
        st.lists(st.integers(0, 10**6), max_size=7),
    )
    def test_matches_brute_force(self, pool, picks):
        # repeats included: picks may hit one axis several times
        invs = INVOLUTION_POOLS[pool]
        elements = [invs[p % len(invs)] for p in picks]
        key = canonical_class(elements)
        assert (key.gram_signs, key.triple_signs) == brute_force_signs(elements)


class TestCountClasses:
    def test_duplicates_collapse(self):
        dec = ref1_decoration()
        conj = dec.conjugated(rot("(123)"))
        n = count_classes([dec, conj, dec], REF1_HOPF_ORDER, OCT)
        assert n == 1

    def test_none_mode_counts_distinct_mappings(self):
        dec = ref1_decoration()
        conj = dec.conjugated(rot("(123)"))
        opts = SearchOptions(group=octahedral_group(), dedup="none")
        assert count_classes([dec, conj, dec], REF1_HOPF_ORDER, opts) == 2

    def test_ref1_has_one_canonical_class(self, ref1_solutions):
        assert count_classes(ref1_solutions, REF1_HOPF_ORDER, OCT) == 1

    def test_group_conjugacy_refines_canonical(self, ref1_solutions):
        sols = ref1_solutions
        gc = count_classes(
            sols,
            REF1_HOPF_ORDER,
            SearchOptions(group=octahedral_group(), dedup="group_conjugacy"),
        )
        so3 = count_classes(sols, REF1_HOPF_ORDER, OCT)
        assert gc >= so3
        assert gc == 5  # measured: octahedral conjugation is coarser than SO(3)

    def test_group_conjugacy_rejects_elements_outside_the_group(self):
        tet = SearchOptions(group=tetrahedral_group(), dedup="group_conjugacy")
        with pytest.raises(ValueError, match="outside the group"):
            count_classes([ref1_decoration()], REF1_HOPF_ORDER, tet)

    def test_group_conjugacy_matches_matrix_conjugation(self, ref1_solutions):
        # reference: orbit minima of whole decorations under matrix conjugation
        group = octahedral_group()
        sols = ref1_solutions[::12]
        reps = {
            min(
                tuple(v.sort_key() for _, v in dec.conjugated(c).mapping)
                for c in group
            )
            for dec in sols
        }
        opts = SearchOptions(group=group, dedup="group_conjugacy")
        assert count_classes(sols, REF1_HOPF_ORDER, opts) == len(reps)

    def test_invalid_dedup_mode(self):
        with pytest.raises(ValueError):
            SearchOptions(group=octahedral_group(), dedup="fuzzy")


class TestOnePointGeometry:
    def test_reference_decoration_passes(self):
        assert verify_onepoint_geometry(ref1_decoration())

    def test_all_ref1_solutions_pass(self, ref1_solutions):
        for dec in ref1_solutions:
            assert verify_onepoint_geometry(dec)

    def test_parallel_pair_fails(self):
        dec = Decoration.of(
            {
                "TL": rot("(12)"),
                "BL": rot("(12)"),
                "TR": rot("(14)"),
                "BR": rot("(23)"),
                "Y": rot("(24)"),
            }
        )
        assert not verify_onepoint_geometry(dec)

    def test_perpendicular_but_misaligned_fails(self):
        # both pairs perpendicular, but the common perpendiculars coincide with
        # coordinate axes at pi/2 (not pi/4) to the other pair
        dec = Decoration.of(
            {
                "TL": rot("(12)"),
                "BL": rot("(34)"),
                "TR": rot("(12)"),
                "BR": rot("(34)"),
                "Y": rot("(24)"),
            }
        )
        assert not verify_onepoint_geometry(dec)

    def test_non_involution_rejected(self):
        dec = Decoration.of(
            {
                "TL": rot("(123)"),
                "BL": rot("(34)"),
                "TR": rot("(12)"),
                "BR": rot("(34)"),
                "Y": rot("(24)"),
            }
        )
        with pytest.raises(ValueError):
            verify_onepoint_geometry(dec)


class TestIcosahedral:
    def test_involution_count(self):
        assert len(icosahedral_group().involutions()) == 15


class TestOnePath:
    def test_search_multiplies_no_rotations_outside_reverification(self, monkeypatch):
        group = octahedral_group()
        group.table  # built before counting
        calls = []
        original = RotationElement.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        def passes(name):
            return lambda *args, **kwargs: CheckResult(name, True)

        monkeypatch.setattr(RotationElement, "__mul__", counting)
        monkeypatch.setattr(linkrep.search, "check_relators", passes("relators"))
        monkeypatch.setattr(linkrep.search, "check_sw", passes("sw"))
        opts = SearchOptions(group=group, dedup="group_conjugacy")
        sols = enumerate_valid_decorations(ref1_diagram(), opts)
        assert count_classes(sols, REF1_HOPF_ORDER, opts) >= 1
        assert calls == []


def so3_count_per_solution(solutions, hopf_order) -> int:
    """Reference: one canonical_class key per solution."""
    return len({canonical_class([dec[h] for h in hopf_order]) for dec in solutions})


def hopf_orbits(solutions, hopf_order, group) -> set:
    """The Hopf tuples' orbits under simultaneous matrix conjugation."""
    return {
        frozenset(
            tuple(conjugate(c, dec[h]) for h in hopf_order) for c in group
        )
        for dec in solutions
    }


class TestTablePath:
    def test_ref1_search_multiplies_no_matrices(self, monkeypatch):
        group = octahedral_group()
        group.table  # built before counting
        products, keys = [], []
        matmul = Matrix3.__mul__
        canon = linkrep.search.canonical_class
        monkeypatch.setattr(
            Matrix3, "__mul__", lambda a, b: products.append(1) or matmul(a, b)
        )
        monkeypatch.setattr(
            linkrep.search, "canonical_class", lambda els: keys.append(els) or canon(els)
        )
        sols = enumerate_valid_decorations(ref1_diagram(), OCT)
        assert count_classes(sols, REF1_HOPF_ORDER, OCT) == 1
        assert len(sols) == 120
        assert products == []
        monkeypatch.undo()
        assert len(keys) == len(hopf_orbits(sols, REF1_HOPF_ORDER, group)) == 1

    def test_empty_words_multiply_no_matrices(self, monkeypatch):
        d = SingularLinkDiagram(
            circles=("C",),
            hopfs=("H",),
            arcs=(
                arc("A1", "H.a", 0, "H.b", 0, [("C", 1)]),
                arc("A2", "C", 0, "C", 1),  # holonomy: the identity constant
                arc("A3", "H.a", 1, "H.b", 1),
            ),
        )
        octahedral_group().table
        products = []
        matmul = Matrix3.__mul__
        monkeypatch.setattr(
            Matrix3, "__mul__", lambda a, b: products.append(1) or matmul(a, b)
        )
        assert enumerate_valid_decorations(d, OCT)
        assert products == []

    @staticmethod
    def checked_ref1_search(monkeypatch, opts):
        """REF-1's solutions and the decorations each public check saw."""
        checked = {"check_relators": [], "check_sw": []}
        for name, calls in checked.items():
            check = getattr(linkrep.search, name)
            monkeypatch.setattr(
                linkrep.search,
                name,
                lambda d, dec, calls=calls, check=check: calls.append(dec) or check(d, dec),
            )
        return enumerate_valid_decorations(ref1_diagram(), opts), checked

    def test_every_solution_is_reverified(self, monkeypatch):
        sols, checked = self.checked_ref1_search(monkeypatch, OCT)
        assert len(sols) == 120
        # every leaf reaches the public checks exactly once
        for calls in checked.values():
            assert len(calls) == len(set(calls)) == 273
            assert set(sols) <= set(calls)

    def test_pruned_search_reverifies_only_the_solutions(self, monkeypatch):
        opts = SearchOptions(octahedral_group(), prune_sw=True)
        sols, checked = self.checked_ref1_search(monkeypatch, opts)
        assert len(sols) == 120
        # SW failures are pruned while backtracking, so each public check
        # runs exactly once per solution
        for calls in checked.values():
            assert len(calls) == 120 and set(calls) == set(sols)

    def test_member_paths_built_once_per_search(self, monkeypatch):
        searched = []
        real = linkrep.diagram._shortest_arc_path
        monkeypatch.setattr(
            linkrep.diagram,
            "_shortest_arc_path",
            lambda adj, src, dst: searched.append((src, dst)) or real(adj, src, dst),
        )
        d = ref1_diagram()
        for prune_sw in (False, True):
            opts = SearchOptions(octahedral_group(), prune_sw=prune_sw)
            assert len(enumerate_valid_decorations(d, opts)) == 120
        assert searched == [(f"{h}.a", f"{h}.b") for h in d.hopfs]

    @pytest.mark.parametrize(
        "d, hopf_order",
        [(ref1_diagram(), REF1_HOPF_ORDER), (hopf_ring(4), ("R0", "R1", "R2", "R3"))],
    )
    def test_per_orbit_count_equals_per_solution_count(self, d, hopf_order):
        for group in (octahedral_group(), icosahedral_group()):
            sols = enumerate_valid_decorations(d, SearchOptions(group))
            n = count_classes(sols, hopf_order, SearchOptions(group))
            assert n == so3_count_per_solution(sols, hopf_order)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        group=st.sampled_from([octahedral_group(), icosahedral_group()]),
    )
    def test_per_orbit_count_on_random_diagrams(self, seed, group):
        d = random_diagram(random.Random(seed))
        assume(check_genus0(d).passed and search_space(d, group) <= 600)
        sols = enumerate_valid_decorations(d, SearchOptions(group))
        n = count_classes(sols, d.hopfs, SearchOptions(group))
        assert n == so3_count_per_solution(sols, d.hopfs)

    def test_so3_canonical_rejects_elements_outside_the_group(self):
        tet = SearchOptions(group=tetrahedral_group())
        with pytest.raises(ValueError, match="outside the group"):
            count_classes([ref1_decoration()], REF1_HOPF_ORDER, tet)
