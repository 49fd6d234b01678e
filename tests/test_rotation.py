import copy
import os
import pickle
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from linkrep.field import AxisLine, ExactScalar, Matrix3, Vector3
from linkrep.rotation import (
    CubePermutation,
    FiniteRotationGroup,
    RotationElement,
    axis_of_involution,
    conjugate,
    from_axis_pi,
    generate_group,
    icosahedral_group,
    is_involution,
    octahedral_group,
    perm_to_rotation,
    preset_group,
    rot,
    rotation_to_perm,
    tetrahedral_group,
)
from linkrep.rotation import _cube_perms, _int_axis
import linkrep.field

from closure_reference import reference_close, reference_cube_perms, reference_index_of
from conftest import involution_elements
import matrix_reference as ref
from matrix_reference import reference_axis, reference_check, reference_is_involution

PRESETS = ("tetrahedral", "octahedral", "icosahedral")
ALL_S4 = [CubePermutation(tuple(p)) for p in permutations((1, 2, 3, 4))]


def conjugate_perm_oracle(s: CubePermutation, t: CubePermutation) -> CubePermutation:
    """Independent oracle: s t s^-1 relabels the points of t through s."""
    images = [0] * 4
    for i in range(1, 5):
        images[s(i) - 1] = s(t(i))
    return CubePermutation(tuple(images))


class TestCubePermutation:
    def test_parse_and_canonical_form(self):
        assert CubePermutation.parse("(12)(34)").cycle_str() == "(12)(34)"
        assert CubePermutation.parse("(132)").cycle_str() == "(132)"
        assert CubePermutation.parse("()").cycle_str() == "()"

    def test_parse_rejects_overlapping_cycles(self):
        with pytest.raises(ValueError):
            CubePermutation.parse("(12)(23)")

    def test_inverse(self):
        p = CubePermutation.parse("(1234)")
        assert (p * p.inverse()).cycle_str() == "()"


class TestDictionary:
    def test_identity_maps_to_identity(self):
        assert perm_to_rotation(CubePermutation.identity()) == RotationElement.identity()

    def test_double_transposition_is_x_flip(self):
        expected = RotationElement.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        assert rot("(12)(34)") == expected

    def test_single_transposition_matches_axis_construction(self):
        assert rot("(12)") == from_axis_pi(AxisLine.of(0, 1, 1))

    def test_homomorphism_on_all_576_pairs(self):
        for p in ALL_S4:
            for q in ALL_S4:
                assert perm_to_rotation(p * q) == perm_to_rotation(p) * perm_to_rotation(q)

    def test_injective(self):
        images = {perm_to_rotation(p).sort_key() for p in ALL_S4}
        assert len(images) == 24

    def test_round_trip(self):
        for p in ALL_S4:
            assert rotation_to_perm(perm_to_rotation(p)) == p


class TestInvolutions:
    def test_identity_is_not_an_involution(self):
        assert not is_involution(RotationElement.identity())

    def test_diag_flip_is_involution(self):
        assert is_involution(RotationElement.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]]))

    def test_three_cycle_is_not(self):
        assert not is_involution(rot("(123)"))

    def test_octahedral_has_exactly_nine(self):
        group = octahedral_group()
        assert len(group.involutions) == 9
        for g in group:
            assert is_involution(g) == reference_is_involution(g)

    def test_axis_extraction(self):
        flip = RotationElement.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        assert axis_of_involution(flip) == AxisLine.of(1, 0, 0)
        # the rotation for (12) must fix its advertised axis
        assert rot("(12)").apply(Vector3.of(0, 1, 1)) == Vector3.of(0, 1, 1)
        assert axis_of_involution(rot("(12)")) == AxisLine.of(0, 1, 1)
        assert axis_of_involution(rot("(34)")) == AxisLine.of(0, 1, -1)

    def test_trace_criterion_matches_square_criterion(self):
        identity = RotationElement.identity()
        for name in PRESETS:
            for g in preset_group(name):
                assert is_involution(g) == (g * g == identity and g != identity)

    def test_extracted_axis_is_fixed(self):
        for name in PRESETS:
            for g in involution_elements(preset_group(name)):
                axis = axis_of_involution(g).direction
                assert g.apply(axis) == axis

    def test_axis_rejects_non_involutions(self):
        with pytest.raises(ValueError):
            axis_of_involution(rot("(123)"))

    def test_from_axis_pi_round_trip_on_all_involutions(self):
        for group in (octahedral_group(), icosahedral_group()):
            for g in involution_elements(group):
                axis = axis_of_involution(g)
                assert from_axis_pi(axis) == g
                assert axis_of_involution(from_axis_pi(axis)) == axis

    def test_from_axis_pi_coordinate_axis(self):
        assert from_axis_pi(AxisLine.of(1, 0, 0)) == RotationElement.of(
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
        )


class TestConjugation:
    def test_identity_conjugator(self):
        h = rot("(1234)")
        assert conjugate(RotationElement.identity(), h) == h

    def test_self_conjugation(self):
        g = rot("(12)")
        assert conjugate(g, g) == g

    def test_matches_permutation_relabeling_oracle(self):
        expected = conjugate_perm_oracle(
            CubePermutation.parse("(13)"), CubePermutation.parse("(12)")
        )
        assert expected.cycle_str() == "(23)"
        assert conjugate(rot("(13)"), rot("(12)")) == perm_to_rotation(expected)

    def test_conjugation_moves_axes(self):
        for c in octahedral_group().elements[::4]:
            for g in involution_elements(octahedral_group()):
                moved = conjugate(c, g)
                assert is_involution(moved)
                expected = AxisLine(c.apply(axis_of_involution(g).direction))
                assert axis_of_involution(moved) == expected


class TestGroups:
    def test_trivial_group(self):
        assert len(generate_group([RotationElement.identity()])) == 1

    def test_transposition_and_four_cycle_generate_s4(self):
        group = generate_group([rot("(12)"), rot("(1234)")])
        assert len(group) == 24

    def test_klein_four_group_of_sign_matrices(self):
        a = RotationElement.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        b = RotationElement.of([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert len(generate_group([a, b])) == 4

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            generate_group([])
        # the closure of no elements holds the identity, so no group is empty
        with pytest.raises(ValueError, match="closure"):
            FiniteRotationGroup(())

    def test_groups_are_immutable(self):
        group = octahedral_group()
        with pytest.raises(AttributeError):
            group.name = "cube"
        with pytest.raises(AttributeError):
            del group.mul
        assert group.name == "octahedral" and len(group.mul) == 24

    def test_preset_sizes(self):
        assert len(tetrahedral_group()) == 12
        assert len(octahedral_group()) == 24
        assert len(icosahedral_group()) == 60

    def test_presets_are_closed(self):
        for group in (tetrahedral_group(), octahedral_group()):
            for g in group:
                assert g.inverse() in group
            sample = group.elements[::3]
            for g in sample:
                for h in sample:
                    assert g * h in group

    def test_icosahedral_contains_order_five(self):
        orders = set()
        for g in icosahedral_group():
            order, power = 1, g
            while power != RotationElement.identity():
                power = power * g
                order += 1
            orders.add(order)
        assert orders == {1, 2, 3, 5}

    def test_non_orthogonal_matrix_rejected(self):
        with pytest.raises(ValueError):
            RotationElement.of([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            RotationElement.of([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])  # det -1

    def test_infinite_order_generator_rejected(self):
        # rotation by arccos(3/5) about z has infinite order
        c, s_ = Fraction(3, 5), Fraction(4, 5)
        g = RotationElement.of([[c, -s_, 0], [s_, c, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            generate_group([g])

    def test_contains(self):
        assert rot("(123)") in tetrahedral_group()
        assert rot("(12)") not in tetrahedral_group()
        assert icosahedral_group().elements[1] in icosahedral_group()


class TestGroupTable:
    def test_tables_match_matrix_products(self):
        for name in PRESETS:
            t = preset_group(name)
            rows = range(len(t)) if len(t) <= 24 else range(0, 60, 7)
            # untagged copies multiply and invert their matrices, so the
            # table is compared with products it did not supply
            untagged = [RotationElement.of(g.m.rows) for g in t.elements]
            for i in rows:
                a = untagged[i]
                assert t.elements[t.inv[i]] == a.inverse()
                for j, b in enumerate(untagged):
                    assert t.elements[t.mul[i][j]] == a * b
            assert t.elements[t.identity] == RotationElement.identity()
            assert [t.elements[i] for i in t.involutions] == [
                g for g in t if is_involution(g)
            ]

    def test_index_follows_sort_key(self):
        t = icosahedral_group()
        keys = [g.sort_key() for g in t.elements]
        assert keys == sorted(keys)
        assert all(
            t.index_of(RotationElement.of(g.m.rows)) == i for i, g in enumerate(t.elements)
        )

    def test_sort_key_is_the_rational_parts(self):
        # integral entries give int pairs, which compare and hash as the
        # Fraction pairs they stand for
        for group in (octahedral_group(), icosahedral_group()):
            for g in group:
                parts = tuple((e.a, e.b) for row in g.m.rows for e in row)
                assert g.sort_key() == parts
                assert hash(g.sort_key()) == hash(parts)

    def test_generated_group_table_does_not_depend_on_generators(self):
        a = generate_group([rot("(12)"), rot("(1234)")])
        b = generate_group([rot("(1234)"), rot("(234)"), rot("(12)")])
        assert a.elements == b.elements == octahedral_group().elements
        assert a.mul == b.mul == octahedral_group().mul

    def test_cold_icosahedral_build_multiplies_each_element_by_each_generator(
        self, monkeypatch
    ):
        import linkrep.rotation

        calls = []
        original = linkrep.rotation._form_mul

        def counting(x, y):
            calls.append(1)
            return original(x, y)

        monkeypatch.setattr(linkrep.rotation, "_form_mul", counting)
        icosahedral_group.cache_clear()
        try:
            icosahedral_group()
        finally:
            icosahedral_group.cache_clear()
        # |G| * (number of generators) products of forms; no |G|^2 products
        assert len(calls) == 60 * 3

    def test_elements_that_are_not_the_closure_are_rejected(self):
        # rejected when the group is built, not on first use
        with pytest.raises(ValueError, match="closure"):
            FiniteRotationGroup(octahedral_group().elements[:12], "half")
        tetrahedral = tetrahedral_group().elements
        group = FiniteRotationGroup(tetrahedral[::-1] + tetrahedral[:1], "again")
        assert group.elements == tetrahedral and group.name == "again"


class TestTableElements:
    """Elements a group owns multiply, invert and look up through its table."""

    def test_products_and_inverses_equal_matrix_products(self):
        for name in PRESETS:
            t = preset_group(name)
            for i, a in enumerate(t.elements):
                assert a._group is t and a._index == i
                assert a.inverse() is t.elements[t.inv[i]]
                assert a.inverse() == RotationElement(a.m.transpose())
                for b in t.elements:
                    product = a * b
                    assert product._group is t
                    assert product == RotationElement(a.m * b.m)

    def test_mixed_tables_fall_back_to_matrices(self):
        tet, oct_ = tetrahedral_group(), octahedral_group()
        # the tetrahedral group owns elements equal to, but distinct from,
        # octahedral ones
        assert all(g._group is tet for g in tet)
        for a in tet:
            for b in oct_:
                for product in (a * b, b * a):
                    assert product._group is None
                assert a * b == RotationElement(a.m * b.m)
                assert b * a == RotationElement(b.m * a.m)

    def test_identity_constant_stays_untagged(self):
        for name in PRESETS:
            preset_group(name)
        generate_group([rot("(12)"), rot("(1234)")])
        e = RotationElement.identity()
        assert e._group is None
        assert e * rot("(12)") == rot("(12)")

    def test_pickle_and_copy_drop_the_table(self):
        for group in (octahedral_group(), icosahedral_group()):
            for g in group.elements[::5]:
                for twin in (
                    pickle.loads(pickle.dumps(g)),
                    copy.deepcopy(g),
                    copy.copy(g),
                ):
                    assert twin == g and hash(twin) == hash(g)
                    assert twin._group is None
                    assert twin * g == g * g

    def test_own_index_lookups_build_no_sort_key(self, monkeypatch):
        oct_ = octahedral_group()
        _cube_perms()
        calls = []
        original = RotationElement.sort_key
        monkeypatch.setattr(
            RotationElement, "sort_key", lambda g: calls.append(g) or original(g)
        )
        for g in oct_:
            assert g in oct_
            assert rotation_to_perm(g) is not None
        assert calls == []
        # elements of another group are still found by value, on their int form
        assert icosahedral_group().elements[0] in oct_  # a coordinate flip
        assert rot("(12)") not in tetrahedral_group()
        assert len(calls) == 0


TAGGED = [g for name in PRESETS for g in preset_group(name)]
COPIES = {
    "owned": lambda g: g,
    "pickled": lambda g: pickle.loads(pickle.dumps(g)),
    "of_matrix": lambda g: RotationElement.of(g.m.rows),
}


class TestPerIndexFacts:
    """What a group knows about single elements: equality by index, the
    conjugation table and the involution axes, each computed once."""

    @settings(max_examples=400, deadline=None)
    @given(
        i=st.integers(0, len(TAGGED) - 1),
        j=st.integers(0, len(TAGGED) - 1),
        same=st.booleans(),
        copy_a=st.sampled_from(sorted(COPIES)),
        copy_b=st.sampled_from(sorted(COPIES)),
    )
    def test_equality_and_hash_agree_with_matrix_equality(self, i, j, same, copy_a, copy_b):
        a = COPIES[copy_a](TAGGED[i])
        b = COPIES[copy_b](TAGGED[i if same else j])
        assert (a == b) is (a.m == b.m)
        assert (a != b) is (a.m != b.m)
        assert hash(a) == hash((a.m,)) and hash(b) == hash((b.m,))
        assert (a in {b}) is (a.m == b.m)

    def test_elements_of_one_table_compare_by_index(self, monkeypatch):
        groups = [preset_group(name) for name in PRESETS]
        untagged = RotationElement.of(rot("(12)").m.rows)
        compared = []
        matrix_eq = Matrix3.__eq__
        monkeypatch.setattr(
            Matrix3, "__eq__", lambda x, y: compared.append(1) or matrix_eq(x, y)
        )
        for t in groups:
            for i, a in enumerate(t.elements):
                for j, b in enumerate(t.elements):
                    assert (a == b) is (i == j)
        assert compared == []
        # different groups, or no group, compare matrices
        assert tetrahedral_group().elements[0] == octahedral_group().elements[0]
        assert untagged == rot("(12)")
        assert len(compared) == 2

    def test_table_elements_compare_with_the_identity_constant_by_index(self, monkeypatch):
        groups = [preset_group(name) for name in PRESETS]
        e = RotationElement.identity()
        expected = [[g.m == e.m for g in t.elements] for t in groups]
        compared = []
        matrix_eq = Matrix3.__eq__
        monkeypatch.setattr(
            Matrix3, "__eq__", lambda x, y: compared.append(1) or matrix_eq(x, y)
        )
        for t, same in zip(groups, expected):
            assert [g == e for g in t.elements] == same
            assert [g != e for g in t.elements] == [not s for s in same]
            assert same.count(True) == 1 and same[t.identity]
        assert compared == []

    def test_conjugation_table(self):
        for name in PRESETS:
            t = preset_group(name)
            for c, x in enumerate(t.elements):
                for g, y in enumerate(t.elements):
                    conjugated = ref.mul(ref.mul(x.m.rows, y.m.rows), ref.transpose(x.m.rows))
                    assert t.elements[t.conj[c][g]] == RotationElement(Matrix3(conjugated))

    def test_axes_equal_the_matrix_computation(self):
        for name in PRESETS:
            t = preset_group(name)
            for i, g in enumerate(t.elements):
                untagged = RotationElement.of(g.m.rows)
                if i in t.involutions:
                    assert axis_of_involution(g) == axis_of_involution(untagged)
                    assert t.axes[i] is axis_of_involution(g)
                else:
                    with pytest.raises(ValueError):
                        axis_of_involution(g)

    def test_each_fact_is_computed_once_per_index(self, monkeypatch):
        import linkrep.rotation

        t = generate_group([rot("(12)"), rot("(1234)")])  # a fresh group
        calls = {"_axis": [], "_output_form": []}
        for name, seen in calls.items():
            fn = getattr(linkrep.rotation, name)
            monkeypatch.setattr(
                linkrep.rotation, name, lambda g, fn=fn, seen=seen: seen.append(g) or fn(g)
            )
        for _ in range(3):
            for i, g in enumerate(t.elements):
                assert t.form(i)[0] == "perm"
                if i in t.involutions:
                    assert axis_of_involution(g) is t.axes[i]
        assert len(calls["_output_form"]) == len(set(calls["_output_form"])) == 24
        assert len(calls["_axis"]) == len(set(calls["_axis"])) == 9


def assert_same_group(group: FiniteRotationGroup, reference: FiniteRotationGroup) -> None:
    """The same elements (as matrices) in the same order, the same tables and
    per-index facts, and each element's form the one its entries give."""
    assert [g.m for g in group] == [g.m for g in reference]
    assert group.mul == reference.mul and group.inv == reference.inv
    assert group.identity == reference.identity
    assert group.involutions == reference.involutions
    assert group.conj == reference.conj
    assert [g.m.form for g in group] == [Matrix3(g.m.rows).form for g in group]


@st.composite
def preset_subsets(draw):
    """Generators drawn from one preset, in any copy, now and then with an
    element of another preset (octahedral and icosahedral elements together
    generate an infinite group)."""
    group = preset_group(draw(st.sampled_from(PRESETS)))
    gens = draw(st.lists(st.sampled_from(group.elements), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        gens.append(draw(st.sampled_from(TAGGED)))
    return [COPIES[draw(st.sampled_from(sorted(COPIES)))](g) for g in gens]


def _closure(close, gens):
    """close(gens), or its ValueError message."""
    try:
        return close(gens, "custom")
    except ValueError as exc:
        return str(exc)


FIXED_COSTS = """
from linkrep.field import AxisLine
from linkrep.rotation import RotationElement, _cube_perms, preset_group

counts = {"sort_key": 0, "AxisLine": 0}

def counted(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper

RotationElement.sort_key = counted("sort_key", RotationElement.sort_key)
preset_group("octahedral")
AxisLine.__init__ = counted("AxisLine", AxisLine.__init__)
_cube_perms()
axis_lines = counts["AxisLine"]
preset_group("tetrahedral")
preset_group("icosahedral")
print(counts["sort_key"], axis_lines)
"""


class TestIntClosure:
    """Closure, lookups and the cube dictionary on int forms, against the
    Matrix3 / sort_key / AxisLine readings they replaced
    (tests/closure_reference.py)."""

    def test_presets_match_the_reference_closure(self, monkeypatch):
        import linkrep.rotation

        builders = (tetrahedral_group, octahedral_group, icosahedral_group)
        built = [b.__wrapped__() for b in builders]  # fresh, past the caches
        monkeypatch.setattr(linkrep.rotation, "_close", reference_close)
        for b, group in zip(builders, built):
            assert_same_group(group, b.__wrapped__())
            assert_same_group(preset_group(group.name), group)

    @settings(max_examples=80, deadline=None)
    @given(preset_subsets())
    def test_generated_groups_match_the_reference_closure(self, gens):
        import linkrep.rotation

        group = _closure(linkrep.rotation._close, gens)
        reference = _closure(reference_close, gens)
        if isinstance(reference, str):
            assert group == reference
        else:
            assert_same_group(group, reference)

    def test_index_of_matches_the_sort_key_lookup(self):
        found = set()
        for name in PRESETS:
            group = preset_group(name)
            reference = reference_close(group.elements, name)
            for g in TAGGED:
                for copy_ in COPIES.values():
                    h = copy_(g)
                    i = group.index_of(h)
                    assert i == reference_index_of(reference, h)
                    assert (h in group) is (i is not None)
                    found.add(i is None)
        assert found == {True, False}

    def test_cube_perms_match_the_axis_line_reading(self):
        assert _cube_perms() == reference_cube_perms()
        assert sorted(p.images for p in _cube_perms()) == sorted(p.images for p in ALL_S4)

    def test_fixed_costs_in_a_fresh_process(self):
        # a fresh process builds the presets and the cube dictionary cold:
        # the closure reads no sort_key, the dictionary builds no AxisLine
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", FIXED_COSTS],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.split() == ["0", "0"]


# candidate matrices for validation: special orthogonal ones with irrational
# or Pythagorean entries, then the same negated (det -1) or with one entry
# perturbed
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
coordinate_signs = st.tuples(*[st.sampled_from((1, -1))] * 3)


def _signed(m: Matrix3, s: tuple, t: tuple) -> Matrix3:
    """diag(s) * m * diag(t): orthogonal, of determinant det(m) * prod(s) * prod(t)."""
    return Matrix3(
        tuple(
            tuple(e if s[i] * t[j] > 0 else -e for j, e in enumerate(row))
            for i, row in enumerate(m.rows)
        )
    )


def _plane_rotation(triple: tuple, axis: int) -> Matrix3:
    """The rotation about a coordinate axis by the angle with cosine a/c
    and sine b/c, for a Pythagorean triple (a, b, c)."""
    a, b, c = triple
    i, j = (k for k in range(3) if k != axis)
    rows = [[0] * 3 for _ in range(3)]
    rows[axis][axis] = 1
    rows[i][i] = rows[j][j] = Fraction(a, c)
    rows[i][j], rows[j][i] = Fraction(-b, c), Fraction(b, c)
    return Matrix3.of(rows)


def _product(a: Matrix3, b: Matrix3) -> Matrix3:
    """a * b on the reference arithmetic, not on the kernel under test."""
    return Matrix3(ref.mul(a.rows, b.rows))


icosahedral_signed = st.builds(
    _signed,
    st.sampled_from(icosahedral_group().elements).map(lambda g: g.m),
    coordinate_signs,
    coordinate_signs,
)
pythagorean = st.builds(
    lambda t, k: _plane_rotation(t, k), st.sampled_from(PYTHAGOREAN), st.integers(0, 2)
)
half_turn_scalars = st.builds(
    ExactScalar,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
half_turns = (
    st.builds(Vector3, half_turn_scalars, half_turn_scalars, half_turn_scalars)
    .filter(lambda v: not v.is_zero())
    .map(lambda v: from_axis_pi(AxisLine(v)).m)
)
rotation_matrices = st.one_of(
    icosahedral_signed,
    st.builds(_product, pythagorean, pythagorean),
    st.builds(_product, icosahedral_signed, pythagorean),
    half_turns,
)


@st.composite
def candidate_matrices(draw):
    m = draw(rotation_matrices)
    variant = draw(st.sampled_from(("as drawn", "negated", "perturbed")))
    if variant == "negated":
        return Matrix3(ref.scale(m.rows, ExactScalar.of(-1)))
    if variant == "perturbed":
        k = draw(st.integers(0, 8))
        delta = draw(half_turn_scalars.filter(lambda x: not x.is_zero()))
        rows = [list(row) for row in m.rows]
        rows[k // 3][k % 3] = rows[k // 3][k % 3] + delta
        return Matrix3(tuple(map(tuple, rows)))
    return m


def _verdict(check, m: Matrix3):
    """None if check(m) accepts m, else its ValueError message."""
    try:
        check(m)
    except ValueError as exc:
        return str(exc)
    return None


class TestMatrixValidation:
    """RotationElement's check on the integer form against the Matrix3 /
    ExactScalar check it replaced (tests/matrix_reference.py)."""

    @settings(max_examples=400, deadline=None)
    @given(candidate_matrices())
    def test_int_check_matches_the_matrix3_reference(self, m):
        assert _verdict(RotationElement, m) == _verdict(reference_check, m)

    @settings(max_examples=200, deadline=None)
    @given(rotation_matrices)
    def test_involution_and_axis_match_the_matrix_reading(self, m):
        if _verdict(reference_check, m) is not None:
            return  # a signed icosahedral matrix of determinant -1
        g = RotationElement(m)
        assert is_involution(g) is reference_is_involution(g)
        if is_involution(g):
            assert axis_of_involution(g) == reference_axis(g)

    def test_pythagorean_rotations_are_accepted(self):
        for triple in PYTHAGOREAN:
            for axis in range(3):
                RotationElement(_plane_rotation(triple, axis))
        m = _product(_plane_rotation((3, 4, 5), 2), _plane_rotation((5, 12, 13), 0))
        assert RotationElement(m).m == m

    def test_negated_rotations_have_determinant_minus_one(self):
        for g in icosahedral_group():
            with pytest.raises(ValueError, match="^matrix has determinant != 1$"):
                RotationElement(Matrix3(ref.scale(g.m.rows, ExactScalar.of(-1))))

    def test_one_perturbed_entry_is_not_orthogonal(self):
        g = icosahedral_group().elements[7]
        for k in range(9):
            rows = [list(row) for row in g.m.rows]
            rows[k // 3][k % 3] = rows[k // 3][k % 3] + ExactScalar(0, Fraction(1, 4))
            with pytest.raises(ValueError, match="^matrix is not orthogonal$"):
                RotationElement(Matrix3(tuple(map(tuple, rows))))

    def test_every_pair_of_rows_is_checked(self):
        # unit rows, and only the rows of (0, 1, 0) and (0, 3/5, 4/5) meet
        rows = ((1, 0, 0), (0, 1, 0), (0, Fraction(3, 5), Fraction(4, 5)))
        for order in permutations(rows):
            m = Matrix3.of(order)
            assert _verdict(RotationElement, m) == "matrix is not orthogonal"
            assert _verdict(reference_check, m) == "matrix is not orthogonal"

    def test_orthogonality_is_checked_before_the_determinant(self):
        # 2I fails both checks; -2I fails both with a negative determinant
        for k in (2, -2):
            with pytest.raises(ValueError, match="^matrix is not orthogonal$"):
                RotationElement(Matrix3(ref.scale(ref.IDENTITY, ExactScalar.of(k))))

    def test_validation_builds_no_matrix_and_no_scalar(self, monkeypatch):
        ms = [g.m for g in icosahedral_group()] + [_plane_rotation((20, 21, 29), 1)]
        built = []
        for name in ("__mul__", "transpose", "det"):
            real = getattr(Matrix3, name)
            monkeypatch.setattr(
                Matrix3, name, lambda *a, real=real: built.append(1) or real(*a)
            )
        real_fields = linkrep.field._fields
        monkeypatch.setattr(
            linkrep.field, "_fields", lambda *a: built.append(1) or real_fields(*a)
        )
        real_init = ExactScalar.__init__
        monkeypatch.setattr(
            ExactScalar, "__init__", lambda *a: built.append(1) or real_init(*a)
        )
        for m in ms:
            g = RotationElement(m)
            if is_involution(g):
                _int_axis(g)
            assert g.m is m  # the element keeps the matrix, and so its form
        assert built == []

    def test_int_form_survives_pickling(self):
        g = RotationElement(_plane_rotation((3, 4, 5), 0))
        for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert h == g and h.__dict__ == {}
            assert h.m.form == g.m.form


matrices = st.one_of(pythagorean, icosahedral_signed, candidate_matrices())
vectors = st.builds(Vector3, half_turn_scalars, half_turn_scalars, half_turn_scalars)


class TestMatrixForm:
    """Matrix3's form arithmetic against the ExactScalar reference
    (tests/matrix_reference.py)."""

    @settings(max_examples=300, deadline=None)
    @given(matrices, matrices, st.booleans(), vectors)
    def test_form_arithmetic_matches_the_reference(self, a, b, same, v):
        if same:
            b = Matrix3(a.rows)
        ra, rb = a.rows, b.rows
        assert Matrix3(ra) == a
        assert (a * b).rows == ref.mul(ra, rb)
        assert a.transpose().rows == ref.transpose(ra)
        assert a.det() == ref.det(ra)
        assert a.apply(v) == ref.apply(ra, v)
        assert (a == b) is (ra == rb) and (a != b) is (ra != rb)
        if ra == rb:
            assert hash(a) == hash(b)

    @settings(max_examples=100, deadline=None)
    @given(vectors.filter(lambda v: not v.is_zero()))
    def test_half_turns_match_the_outer_product(self, v):
        # (2/(v.v)) v v^T - I, for any scaling of the axis
        two_over_norm = ExactScalar.of(2) / v.dot(v)
        want = ref.add(
            ref.scale(ref.outer(v, v), two_over_norm), ref.scale(ref.IDENTITY, ExactScalar.of(-1))
        )
        assert from_axis_pi(AxisLine(v)).m.rows == want
