"""Reference matrix arithmetic on ExactScalar entries, for differential
tests: the product, sum, scaling, outer product, transpose, cofactor
determinant and action on vectors that linkrep.field.Matrix3 computed on its
entries before it held an int form, and the readings of a rotation matrix
(validation, the involution test, the axis) that linkrep.rotation made on
them.  A matrix here is its rows, three tuples of three ExactScalars, so no
reference calls the Matrix3 kernel it checks."""

from linkrep.field import AxisLine, ExactScalar, Vector3, _reduced
from linkrep.rotation import RotationElement

IDENTITY = tuple(tuple(ExactScalar.of(int(i == j)) for j in range(3)) for i in range(3))


def mul(a: tuple, b: tuple) -> tuple:
    """Each entry accumulates its three products over a common denominator,
    skipping zero factors, and is reduced once."""
    cols = tuple(zip(*b))
    rows = []
    for row in a:
        out = []
        for col in cols:
            num_p = num_q = 0
            den = 1
            for x, y in zip(row, col):
                p, q, r, s = x.p, x.q, y.p, y.q
                if not (p or q) or not (r or s):
                    continue
                tp = p * r + 5 * q * s
                tq = p * s + q * r
                td = x.d * y.d
                if td == den:
                    num_p += tp
                    num_q += tq
                elif den % td == 0:
                    k = den // td
                    num_p += tp * k
                    num_q += tq * k
                else:
                    num_p = num_p * td + tp * den
                    num_q = num_q * td + tq * den
                    den *= td
            out.append(_reduced(num_p, num_q, den))
        rows.append(tuple(out))
    return tuple(rows)


def add(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(a[i][j] + b[i][j] for j in range(3)) for i in range(3))


def scale(a: tuple, k: ExactScalar) -> tuple:
    return tuple(tuple(e * k for e in row) for row in a)


def outer(u: Vector3, v: Vector3) -> tuple:
    uu, vv = u.components(), v.components()
    return tuple(tuple(uu[i] * vv[j] for j in range(3)) for i in range(3))


def transpose(a: tuple) -> tuple:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def det(r: tuple) -> ExactScalar:
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def apply(r: tuple, v: Vector3) -> Vector3:
    return Vector3(
        r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
        r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
        r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
    )


def reference_check(m) -> None:
    """RotationElement's check of a Matrix3: orthogonality, then the
    determinant, with the same ValueError messages."""
    r = m.rows
    if mul(transpose(r), r) != IDENTITY:
        raise ValueError("matrix is not orthogonal")
    if det(r) != ExactScalar.of(1):
        raise ValueError("matrix has determinant != 1")


def reference_is_involution(g: RotationElement) -> bool:
    """A rotation by pi: trace 1 + 2 cos(theta) = -1."""
    r = g.m.rows
    return r[0][0] + r[1][1] + r[2][2] == ExactScalar.of(-1)


def reference_axis(g: RotationElement) -> AxisLine:
    """The fixed line of a pi-rotation: the first nonzero column of g + I."""
    if not reference_is_involution(g):
        raise ValueError("element is not an involution")
    shifted = add(g.m.rows, IDENTITY)
    for j in range(3):
        col = Vector3(*(row[j] for row in shifted))
        if not col.is_zero():
            return AxisLine(col)
    raise RuntimeError("pi-rotation with no fixed direction")
