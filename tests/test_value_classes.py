"""The 24 value classes keep the behaviour they had as frozen dataclasses.

`value_classes.json` holds, per class, the `repr` of the sample below and
`str(inspect.signature(cls))`, both recorded from the frozen-dataclass
implementation.  Each sample also pins equality (against a rebuilt copy, a
one-field variant and a foreign object), the hash (of the compared fields'
tuple, or the class's own), the immutability guard, and pickle and copy
round trips.
"""

import copy
import inspect
import json
import pickle
from pathlib import Path

import pytest

from linkrep import conditions, diagram, field, obstructions, rotation, search, sldfile
from linkrep.conditions import CheckResult, Decoration
from linkrep.diagram import ArcBand, CircleRef
from linkrep.field import ExactScalar, Matrix3, Vector3
from linkrep.rotation import CubePermutation, RotationElement, octahedral_group, rot

PINS = json.loads((Path(__file__).resolve().parent / "value_classes.json").read_text())


def _arc(arc_id="A", twist=0):
    return ArcBand(
        arc_id, CircleRef("H", "a"), 0, CircleRef("H", "b"), 0, ((CircleRef("c"), 1),), twist
    )


def _diagram(circles=("c",)):
    return diagram.SingularLinkDiagram(circles=circles, hopfs=("H",), arcs=(_arc(),))


def _report(sw_passed=True):
    return conditions.ConditionReport(
        CheckResult("genus0", True),
        CheckResult("selfint", True),
        CheckResult("relators", True, ("none",)),
        CheckResult("sw", sw_passed),
    )


def _quarter_turn():
    return RotationElement.of([[1, 0, 0], [0, 0, -1], [0, 1, 0]])


# class -> (a fresh sample, a variant differing in one compared field,
# the compared fields, or None where the class defines its own hash)
SAMPLES = {
    field.Vector3: (
        lambda: Vector3.of(1, -2, 3),
        lambda: Vector3.of(1, -2, 4),
        ("x", "y", "z"),
    ),
    field.Matrix3: (
        lambda: Matrix3.of([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
        lambda: Matrix3.of([[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        None,
    ),
    field.AxisLine: (
        lambda: field.AxisLine(
            Vector3(ExactScalar(2, 0), ExactScalar(1, 1), ExactScalar(0, 0))
        ),
        lambda: field.AxisLine.of(1, 0, 0),
        ("direction",),
    ),
    rotation.RotationElement: (_quarter_turn, lambda: rot("(12)"), None),
    rotation.CubePermutation: (
        lambda: CubePermutation((2, 1, 4, 3)),
        lambda: CubePermutation((2, 1, 3, 4)),
        ("images",),
    ),
    diagram.CircleRef: (
        lambda: CircleRef("H", "a"),
        lambda: CircleRef("H", "b"),
        ("node", "member"),
    ),
    diagram.ArcBand: (
        _arc,
        lambda: _arc(twist=2),
        ("id", "start", "start_slot", "end", "end_slot", "word", "twist"),
    ),
    diagram.SingularLinkDiagram: (
        _diagram,
        lambda: _diagram(("c", "d")),
        ("circles", "hopfs", "arcs"),
    ),
    diagram.ComponentPartition: (
        lambda: diagram.ComponentPartition((("H.a", "H.b", "c"), ("d",))),
        lambda: diagram.ComponentPartition((("H.a", "H.b", "c", "d"),)),
        ("blocks",),
    ),
    conditions.Decoration: (
        lambda: Decoration.of({"H": rot("(12)"), "c": rot("(34)")}),
        lambda: Decoration.of({"H": rot("(12)"), "c": rot("(13)")}),
        ("mapping",),
    ),
    conditions.CheckResult: (
        lambda: CheckResult("sw", False, ("hopf H: product is not the identity",)),
        lambda: CheckResult("sw", True, ("hopf H: product is not the identity",)),
        ("name", "passed", "diagnostics"),
    ),
    conditions.ConditionReport: (
        _report,
        lambda: _report(False),
        ("genus0", "selfint", "relators", "sw"),
    ),
    conditions.GroupPresentation: (
        lambda: conditions.GroupPresentation(("x", "y"), ((("x", 1), ("y", -1)),)),
        lambda: conditions.GroupPresentation(("x", "y"), ((("x", 1), ("y", 1)),)),
        ("generators", "relators"),
    ),
    search.SearchOptions: (
        lambda: search.SearchOptions(octahedral_group(), "none", True),
        lambda: search.SearchOptions(octahedral_group(), "none", False),
        ("group", "dedup", "prune_sw"),
    ),
    search.ConjugacyClassKey: (
        lambda: search.canonical_class([rot("(12)"), rot("(34)"), rot("(13)(24)")]),
        lambda: search.canonical_class([rot("(12)"), rot("(34)"), rot("(12)(34)")]),
        ("size", "cos_squared", "gram_signs", "triple_signs"),
    ),
    obstructions.BundleProfile: (
        lambda: obstructions.bundle_profile(1, 4, 3),
        lambda: obstructions.bundle_profile(2, 4, 3),
        ("b1", "b2", "c2", "c1sq", "p1", "energy", "compact", "flat",
         "irreducible_locked", "d"),
    ),
    obstructions.ObstructionReport: (
        lambda: obstructions.connected_sum_obstruction([4, 6]),
        lambda: obstructions.ObstructionReport(
            2, False, ((4, True), (6, False)), "another note"
        ),
        ("psq", "divisibility_pass", "summand_verdicts", "hurewicz_flag"),
    ),
    sldfile.GroupStmt: (
        lambda: sldfile.GroupStmt("octahedral"),
        lambda: sldfile.GroupStmt("icosahedral"),
        ("name",),
    ),
    sldfile.CircleStmt: (lambda: sldfile.CircleStmt("c"), lambda: sldfile.CircleStmt("d"), ("id",)),
    sldfile.HopfStmt: (lambda: sldfile.HopfStmt("H"), lambda: sldfile.HopfStmt("K"), ("id",)),
    sldfile.ArcStmt: (
        lambda: sldfile.ArcStmt(_arc()),
        lambda: sldfile.ArcStmt(_arc("B")),
        ("arc",),
    ),
    sldfile.DecorateStmt: (
        lambda: sldfile.DecorateStmt("H", rot("(12)"), CubePermutation.parse("(12)")),
        lambda: sldfile.DecorateStmt("H", rot("(12)"), None),
        ("node", "element", "perm"),
    ),
    sldfile.CommentStmt: (
        lambda: sldfile.CommentStmt("a note"),
        lambda: sldfile.CommentStmt("another note"),
        ("text",),
    ),
    sldfile.SldDocument: (
        lambda: sldfile.parse("hopf H\ncircle c\ndecorate H = perm \"(12)\"\n"),
        lambda: sldfile.parse("hopf H\ncircle c\n"),
        ("statements",),
    ),
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def test_every_class_is_pinned():
    assert len(SAMPLES) == 24
    assert sorted(PINS) == sorted(cls.__name__ for cls in SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestValueClass:
    def test_repr_and_signature_are_the_pinned_ones(self, cls):
        make, _, _ = SAMPLES[cls]
        assert repr(make()) == PINS[cls.__name__]["repr"]
        assert str(inspect.signature(cls)) == PINS[cls.__name__]["signature"]

    def test_equality_and_hash(self, cls):
        make, vary, compared = SAMPLES[cls]
        x, y, z = make(), make(), vary()
        assert type(x) is type(z) is cls
        assert x == y and not (x != y)
        assert x != z and not (x == z)
        assert x.__eq__(object()) is NotImplemented
        if compared is None:
            assert hash(x) == cls.__hash__(x)
        else:
            assert hash(x) == hash(tuple(getattr(x, f) for f in compared))
            assert hash(x) == hash(y)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        make, _, compared = SAMPLES[cls]
        x = make()
        for name in compared or ("m",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.not_a_field = 1

    def test_pickle_and_copy_give_an_equal_value(self, cls):
        x = SAMPLES[cls][0]()
        assert copy.copy(x) == x
        if cls is search.SearchOptions:
            # a FiniteRotationGroup is equal only to itself and cannot be
            # rebuilt from its state, so only a shallow copy keeps it
            return
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x
