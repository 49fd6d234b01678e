"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is exact-arithmetic (zero numerical tolerance) and carries a
wall-clock budget, asserted from within the test.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from linkrep.conditions import (
    Decoration,
    check_relators,
    evaluate_representation,
    extract_presentation,
    run_all_checks,
)
from linkrep.diagram import ArcBand, CircleRef, SingularLinkDiagram, ribbon_genus
from linkrep.field import AxisLine
from linkrep.obstructions import (
    bundle_profile,
    connected_sum_obstruction,
    divisibility_obstruction,
)
from linkrep.rotation import (
    CubePermutation,
    axis_of_involution,
    from_axis_pi,
    is_involution,
    octahedral_group,
    perm_to_rotation,
    rot,
)
from linkrep.search import (
    REF1_HOPF_ORDER,
    SearchOptions,
    count_classes,
    enumerate_valid_decorations,
    verify_onepoint_geometry,
)
from linkrep.sldfile import parse, serialize

from conftest import involution_elements, random_diagram, ref1_decoration, ref1_diagram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} FAIL {title} ({elapsed:.2f}s, budget {budget_s}s)")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {number} FAIL {title} (over budget: {elapsed:.2f}s > {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_s}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} PASS {title} ({elapsed:.2f}s, budget {budget_s}s)")


def test_criterion_1_reference_certificate():
    with criterion(1, "reference fixture passes all four checks", 1.0):
        report = run_all_checks(ref1_diagram(), ref1_decoration())
        assert report.genus0.passed
        assert report.selfint.passed
        assert report.relators.passed
        assert report.sw.passed


def test_criterion_2_one_point_search():
    with criterion(2, "exhaustive octahedral search finds one canonical class", 60.0):
        opts = SearchOptions(group=octahedral_group())
        solutions = enumerate_valid_decorations(ref1_diagram(), opts)
        assert solutions
        assert count_classes(solutions, REF1_HOPF_ORDER, opts) == 1
        for dec in solutions:
            assert verify_onepoint_geometry(dec)


def test_criterion_3_divisibility_obstructions():
    with criterion(3, "mod-4 divisibility over b2 in 1..1000 and the 4-summand sum", 1.0):
        for b2 in range(1, 1001):
            assert divisibility_obstruction(b2).divisibility_pass == (b2 % 4 == 0)
        assert not connected_sum_obstruction([1, 1, 1, 1]).divisibility_pass


def test_criterion_4_bundle_calculus():
    with criterion(4, "flat bundle profile and the compactness window", 1.0):
        p = bundle_profile(1, 4, -1)
        assert p.p1 == 0
        assert p.energy == 0
        assert p.flat and p.compact and p.irreducible_locked
        assert p.d == 0
        # energies c2 + b2/4 for b2 = 4: 0, 1/4 via b2 = 1 etc.
        assert bundle_profile(1, 1, 0).compact  # energy 1/4
        assert bundle_profile(1, 2, 0).compact  # energy 1/2
        assert bundle_profile(1, 3, 0).compact  # energy 3/4
        assert not bundle_profile(1, 4, 0).compact  # energy 1


def _splitting_oracle(b2: int, c2: int) -> bool:
    """Brute force: c2 = sum over b2 integers l_i of l_i(l_i - 1), |l_i| bounded."""
    if c2 < 0:
        return False
    bound = 1 + abs(c2)
    values = sorted({l * (l - 1) for l in range(-bound, bound + 1) if l * (l - 1) > 0})

    def rec(remaining: int, terms_left: int, start: int) -> bool:
        if remaining == 0:
            return True
        if terms_left == 0:
            return False
        for i in range(start, len(values)):
            v = values[i]
            if v > remaining:
                break
            if rec(remaining - v, terms_left - 1, i):
                return True
        return False

    return rec(c2, b2, 0)


def test_criterion_5_reducibility_lock_oracle():
    with criterion(5, "reducibility lock agrees with the brute-force oracle", 10.0):
        rng = random.Random(5)
        for _ in range(1000):
            b2 = rng.randint(1, 12)
            c2 = rng.randint(-8, 8)
            assert bundle_profile(1, b2, c2).irreducible_locked == (
                not _splitting_oracle(b2, c2)
            )


def test_criterion_6_presentation_oracle():
    with criterion(6, "relator check matches the symbolic presentation on 500 diagrams", 30.0):
        rng = random.Random(6)
        group = octahedral_group().elements
        for _ in range(500):
            d = random_diagram(rng)
            dec = Decoration.of(
                {n: rng.choice(group) for n in list(d.hopfs) + list(d.circles)}
            )
            direct = check_relators(d, dec).passed
            symbolic = evaluate_representation(extract_presentation(d), dec)
            assert direct == symbolic


def test_criterion_7_ribbon_genus():
    with criterion(7, "ribbon genus on trees, interleaved and nested bands", 5.0):
        def arc(aid, s, ss, e, es):
            return ArcBand(
                id=aid,
                start=CircleRef.parse(s),
                start_slot=ss,
                end=CircleRef.parse(e),
                end_slot=es,
            )

        tree = SingularLinkDiagram(
            circles=("c1", "c2", "c3"),
            arcs=(arc("a", "c1", 0, "c2", 0), arc("b", "c2", 1, "c3", 0)),
        )
        assert ribbon_genus(tree) == [(("c1", "c2", "c3"), 0)]
        interleaved = SingularLinkDiagram(
            circles=("c",),
            arcs=(arc("a", "c", 0, "c", 2), arc("b", "c", 1, "c", 3)),
        )
        assert ribbon_genus(interleaved) == [(("c",), 1)]
        nested = SingularLinkDiagram(
            circles=("c",),
            arcs=(arc("a", "c", 0, "c", 1), arc("b", "c", 2, "c", 3)),
        )
        assert ribbon_genus(nested) == [(("c",), 0)]
        rng = random.Random(7)
        for _ in range(60):
            d = random_diagram(rng)
            base = ribbon_genus(d)
            relabeled = tuple(
                ArcBand(
                    id=a.id,
                    start=a.start,
                    start_slot=5 * a.start_slot + 2,
                    end=a.end,
                    end_slot=5 * a.end_slot + 2,
                    word=a.word,
                    twist=a.twist,
                )
                for a in d.arcs
            )
            assert ribbon_genus(
                SingularLinkDiagram(d.circles, d.hopfs, relabeled)
            ) == base


def test_criterion_8_rotation_layer():
    with criterion(8, "cube-diagonal dictionary, involutions and axis facts", 1.0):
        from itertools import permutations

        perms = [CubePermutation(tuple(p)) for p in permutations((1, 2, 3, 4))]
        for p in perms:
            for q in perms:
                assert perm_to_rotation(p * q) == perm_to_rotation(p) * perm_to_rotation(q)
        involutions = involution_elements(octahedral_group())
        assert len(involutions) == 9
        assert axis_of_involution(rot("(12)")) == AxisLine.of(0, 1, 1)
        assert axis_of_involution(rot("(34)")) == AxisLine.of(0, 1, -1)
        assert AxisLine.of(0, 1, 1).direction.dot(
            AxisLine.of(0, 1, -1).direction
        ).is_zero()
        for g in involutions:
            assert is_involution(g)
            assert from_axis_pi(axis_of_involution(g)) == g


def test_criterion_9_parser_round_trip():
    with criterion(9, "byte-identical serialization over the fixture corpus", 1.0):
        fixture_paths = sorted(FIXTURES.glob("*.sld"))
        assert any(p.name == "ref1.sld" for p in fixture_paths)
        for path in fixture_paths:
            text = path.read_text()
            doc = parse(text)
            assert serialize(doc) == text
            assert parse(serialize(doc)) == doc
