"""Reference readings of a rotation matrix on Matrix3 / ExactScalar
arithmetic, for differential tests: validation, the involution test and the
axis as linkrep.rotation computed them before its integer form."""

from linkrep.field import AxisLine, ExactScalar, Matrix3, Vector3
from linkrep.rotation import RotationElement


def reference_check(m: Matrix3) -> None:
    """RotationElement's check of its matrix: orthogonality, then the
    determinant, with the same ValueError messages."""
    if m.transpose() * m != Matrix3.identity():
        raise ValueError("matrix is not orthogonal")
    if m.det() != ExactScalar.of(1):
        raise ValueError("matrix has determinant != 1")


def reference_is_involution(g: RotationElement) -> bool:
    """A rotation by pi: trace 1 + 2 cos(theta) = -1."""
    r = g.m.rows
    return r[0][0] + r[1][1] + r[2][2] == ExactScalar.of(-1)


def reference_axis(g: RotationElement) -> AxisLine:
    """The fixed line of a pi-rotation: the first nonzero column of g + I."""
    if not reference_is_involution(g):
        raise ValueError("element is not an involution")
    shifted = g.m + Matrix3.identity()
    for j in range(3):
        col = Vector3(*(row[j] for row in shifted.rows))
        if not col.is_zero():
            return AxisLine(col)
    raise RuntimeError("pi-rotation with no fixed direction")
