"""Exact-arithmetic toolkit for decorated singular link diagrams.

Represents diagrams of circles, Hopf pairs and arc bands, verifies the four
combinatorial conditions certifying an SO(3) representation of the associated
4-manifold group with prescribed Stiefel-Whitney class, searches for valid
decorations over finite rotation groups up to conjugacy, and evaluates the
mod-4 divisibility, energy and expected-dimension obstructions.
"""

from .conditions import (
    ConditionReport,
    Decoration,
    GroupPresentation,
    check_genus0,
    check_relators,
    check_selfint,
    check_sw,
    evaluate_representation,
    extract_presentation,
    holonomy_word,
    run_all_checks,
)
from .diagram import (
    ArcBand,
    CircleRef,
    ComponentPartition,
    DiagramError,
    SingularLinkDiagram,
    betti,
    components,
    ribbon_genus,
    validate,
)
from .field import (
    AxisLine,
    ExactScalar,
    Matrix3,
    Vector3,
    is_angle_pi_over_4,
    is_coplanar,
    is_perpendicular,
)
from .obstructions import (
    BundleProfile,
    ObstructionReport,
    bundle_profile,
    connected_sum_obstruction,
    divisibility_obstruction,
    pontryagin_square_diag,
)
from .rotation import (
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
    rot,
    tetrahedral_group,
)
from .search import (
    ConjugacyClassKey,
    SearchOptions,
    canonical_class,
    count_classes,
    enumerate_valid_decorations,
    verify_onepoint_geometry,
)
from .sldfile import SldDocument, SldParseError, parse, serialize

__version__ = "0.1.0"
