"""Exact arithmetic over Q(sqrt(5)): scalars, 3-vectors, 3x3 matrices and unsigned axes.

Every quantity in the package bottoms out here.  A scalar is three ints
(p, q, d) in lowest terms standing for (p + q*sqrt(5)) / d; equality, ordering
and all field operations are decidable and exact.  Scalar text is read and
printed on the same ints: parse_scalar puts the two parts over one
denominator and reduces once, format_scalar reduces each part by a gcd.

A 3x3 matrix is one int form, n and the rows of n*M over Z[sqrt(5)] for n
the lcm of its denominators.  Products (one kernel, _form_mul, which
rotation's group closure shares), transpose, det, == and hash run on the
form, and format_matrix prints its entries without building scalars.

A vector scaled by the positive lcm of its denominators has coordinates in
Z[sqrt(5)], each an int pair (p, q).  Dot, cross and triple products of such
vectors are int arithmetic, and a positive rescale changes neither the sign
of a triple product nor a squared cosine; canonical_class and is_coplanar
work on these coordinates, as rotation's matrix check does.  No floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from ._value import Value, slot_setters

RationalLike = Union[int, Fraction]


class ExactScalar:
    """An element (p + q*sqrt(5)) / d of Q(sqrt(5)).

    Held as three ints in lowest terms: d > 0 and gcd(p, q, d) = 1.  The
    form is canonical, so equal values have equal fields.  Instances are
    immutable; the rational parts a = p/d and b = q/d are `Fraction`
    properties.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a: RationalLike, b: RationalLike):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("a Q(sqrt(5)) part must be exact, not a float")
        a, b = Fraction(a), Fraction(b)
        # with reduced a and b, the lcm of their denominators leaves
        # gcd(p, q, d) = 1
        d = lcm(a.denominator, b.denominator)
        _set_p(self, a.numerator * (d // a.denominator))
        _set_q(self, b.numerator * (d // b.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        return (_reduced, (self.p, self.q, self.d))

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    # --- constructors -------------------------------------------------

    @staticmethod
    def of(a: "RationalLike | ExactScalar", b: RationalLike = 0) -> "ExactScalar":
        if isinstance(a, ExactScalar):
            return a
        if type(a) is int and type(b) is int:
            return _fields(a, b, 1)
        return ExactScalar(a, b)

    @staticmethod
    def golden_ratio() -> "ExactScalar":
        """(1 + sqrt(5)) / 2, the generator used by the icosahedral preset."""
        return _fields(1, 1, 2)

    # --- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_rational(self) -> bool:
        return self.q == 0

    def sign(self) -> int:
        """Exact sign: sqrt(5) is irrational, so p + q*sqrt(5) = 0 iff p = q = 0."""
        return _sign(self.p, self.q)

    # --- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.p + other.p, self.q + other.q, d)
        return _reduced(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.p - other.p, self.q - other.q, d)
        return _reduced(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __neg__(self) -> "ExactScalar":
        return _fields(-self.p, -self.q, self.d)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        p, q, r, s = self.p, self.q, other.p, other.q
        return _reduced(p * r + 5 * q * s, p * s + q * r, self.d * other.d)

    def inverse(self) -> "ExactScalar":
        """d / (p + q*sqrt(5)) = d (p - q*sqrt(5)) / (p^2 - 5 q^2)."""
        p, q = self.p, self.q
        norm = p * p - 5 * q * q
        if norm == 0:
            # the field norm vanishes only at zero
            raise ZeroDivisionError("division by zero in Q(sqrt(5))")
        if norm < 0:
            return _reduced(-self.d * p, self.d * q, -norm)
        return _reduced(self.d * p, -self.d * q, norm)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        return self * other.inverse()

    # --- total order --------------------------------------------------

    def _cmp(self, other: "ExactScalar") -> int:
        """The sign of self - other; both denominators are positive."""
        d, e = self.d, other.d
        return _sign(self.p * e - other.p * d, self.q * e - other.q * d)

    def __lt__(self, other: "ExactScalar") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "ExactScalar") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "ExactScalar") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "ExactScalar") -> bool:
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        return f"ExactScalar({format_scalar(self)!r})"


# the slot setters, past the immutability guard
_set_p, _set_q, _set_d = slot_setters(ExactScalar)


def _fields(p: int, q: int, d: int) -> ExactScalar:
    """The scalar with fields already in lowest terms, d > 0."""
    x = object.__new__(ExactScalar)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _reduced(p: int, q: int, d: int) -> ExactScalar:
    """(p + q*sqrt(5)) / d in lowest terms, for d > 0."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    return _fields(p, q, d)


def _sign(p: int, q: int) -> int:
    """The sign of p + q*sqrt(5): for opposite signs, compare p^2 with 5 q^2
    (never equal, sqrt(5) being irrational)."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sp == sq or sq == 0:
        return sp
    if sp == 0:
        return sq
    return sp if p * p > 5 * q * q else sq


_SCALAR_RE = re.compile(
    r"^(?P<ra>-?\d+)(?:/(?P<rb>\d+))?"
    r"(?:(?P<sign>[+-])(?P<ia>\d+)(?:/(?P<ib>\d+))?\*r5)?$"
)


def parse_scalar(text: str) -> ExactScalar:
    """Parse the diagram-file scalar syntax: "p", "p/q", "p/q+r/s*r5", "p/q-r/s*r5"."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    ra, rb, sign, ia, ib = m.groups()
    rb = int(rb) if rb is not None else 1
    ib = int(ib) if ib is not None else 1
    if rb == 0 or ib == 0:
        raise ValueError(f"zero denominator in scalar {text!r}")
    if ia is None:
        return _reduced(int(ra), 0, rb)
    # ra/rb + ia/ib * sqrt(5) over the common denominator rb * ib
    q = int(ia) * rb
    return _reduced(int(ra) * ib, -q if sign == "-" else q, rb * ib)


def _ratio_str(n: int, d: int) -> str:
    """n / d in lowest terms, d > 0, printed as "n" or "n/d"."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _format_parts(p: int, q: int, d: int) -> str:
    """(p + q*sqrt(5)) / d in canonical text, for d > 0 and any common
    factor: each part is reduced by its own gcd."""
    if q == 0:
        return _ratio_str(p, d)
    return f"{_ratio_str(p, d)}{'+' if q > 0 else '-'}{_ratio_str(abs(q), d)}*r5"


def format_scalar(x: ExactScalar) -> str:
    """Canonical textual form; parse(format(x)) == x."""
    return _format_parts(x.p, x.q, x.d)


def format_matrix(m: "Matrix3") -> tuple:
    """The nine entries of m, row-major, as format_scalar prints them."""
    n, rows = m.form
    return tuple(_format_parts(r[k], r[k + 1], n) for r in rows for k in (0, 2, 4))


class Vector3(Value):
    __slots__ = __match_args__ = ("x", "y", "z")

    def __init__(self, x: ExactScalar, y: ExactScalar, z: ExactScalar) -> None:
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    @staticmethod
    def of(x: RationalLike, y: RationalLike, z: RationalLike) -> "Vector3":
        return Vector3(ExactScalar.of(x), ExactScalar.of(y), ExactScalar.of(z))

    def components(self) -> tuple:
        return (self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero() and self.z.is_zero()

    def __add__(self, other: "Vector3") -> "Vector3":
        return Vector3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vector3") -> "Vector3":
        return Vector3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vector3":
        return Vector3(-self.x, -self.y, -self.z)

    def scale(self, k: ExactScalar) -> "Vector3":
        return Vector3(self.x * k, self.y * k, self.z * k)

    def dot(self, other: "Vector3") -> ExactScalar:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vector3") -> "Vector3":
        return Vector3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )


_set_x, _set_y, _set_z = slot_setters(Vector3)


class Matrix3(Value):
    """Row-major 3x3 matrix over Q(sqrt(5)), held as one canonical form: n > 0,
    the lcm of the denominators, and the rows of n*M as int 6-tuples
    (p0, q0, p1, q1, p2, q2), entry k being (pk + qk*sqrt(5)) / n.  Equal
    matrices have equal forms; rows rebuilds the ExactScalar entries."""

    __slots__ = ("form",)
    __match_args__ = ("rows",)

    def __init__(self, rows: tuple) -> None:
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Matrix3 requires 3x3 entries")
        n = lcm(*(e.d for row in rows for e in row))
        ints = [tuple(x for e in row for x in (e.p * (n // e.d), e.q * (n // e.d))) for row in rows]
        _set_form(self, (n, tuple(ints)))

    @staticmethod
    def _new(form: tuple) -> "Matrix3":
        # internal fast path: form already canonical
        m = object.__new__(Matrix3)
        _set_form(m, form)
        return m

    @staticmethod
    def of(entries: Iterable[Iterable[RationalLike]]) -> "Matrix3":
        return Matrix3(
            tuple(tuple(ExactScalar.of(e) for e in row) for row in entries)
        )

    @staticmethod
    def identity() -> "Matrix3":
        return _IDENTITY

    @property
    def rows(self) -> tuple:
        n, rows = self.form
        return tuple(tuple(_reduced(r[k], r[k + 1], n) for k in (0, 2, 4)) for r in rows)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Matrix3:
            return NotImplemented
        return self.form == other.form

    def __hash__(self) -> int:
        return hash(self.form)

    def __reduce__(self):
        return (Matrix3._new, (self.form,))

    def __mul__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3._new(_form_mul(self.form, other.form))

    def transpose(self) -> "Matrix3":
        n, rows = self.form
        return Matrix3._new((n, _columns(rows)))

    def det(self) -> ExactScalar:
        """det(n*M) / n^3, the triple product of the rows of n*M."""
        n, rows = self.form
        p, q = _int_triple(*rows)
        return _reduced(p, q, n * n * n)

    def apply(self, v: Vector3) -> Vector3:
        """M v = (n*M)(L v) / (n L), for L the lcm of v's denominators."""
        n, rows = self.form
        w = _int_coords(v)
        d = n * lcm(v.x.d, v.y.d, v.z.d)
        return Vector3(*(_reduced(*_int_dot(r, w), d) for r in rows))


(_set_form,) = slot_setters(Matrix3)
_IDENTITY = Matrix3._new((1, ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0))))


def _columns(rows: tuple) -> tuple:
    """The columns of a form's rows, as rows: the int rows of the transpose."""
    (a0, b0, a1, b1, a2, b2), (c0, e0, c1, e1, c2, e2), (f0, h0, f1, h1, f2, h2) = rows
    return (a0, b0, c0, e0, f0, h0), (a1, b1, c1, e1, f1, h1), (a2, b2, c2, e2, f2, h2)


def _form_mul(x: tuple, y: tuple) -> tuple:
    """The form of a product, from the forms (n, R) and (m, S) of its
    factors: n*m and the row-by-column dots of R and S, divided by their gcd."""
    (n, rows), (m, other) = x, y
    cols = _columns(other)
    flat = [v for row in rows for col in cols for v in _int_dot(row, col)]
    d = gcd(n * m, *flat)
    if d != 1:
        flat = [v // d for v in flat]
    return n * m // d, (tuple(flat[:6]), tuple(flat[6:12]), tuple(flat[12:]))


def _canonicalize_direction(v: Vector3) -> Vector3:
    """Scale a nonzero vector to the canonical representative of its line.

    Divide by the first nonzero coordinate, then, if all coordinates are
    rational, rescale to coprime integers (first nonzero coordinate positive).
    """
    first = next(c for c in v.components() if not c.is_zero())
    w = v.scale(first.inverse())
    if all(c.is_rational() for c in w.components()):
        fracs = [c.a for c in w.components()]
        denom = lcm(*(f.denominator for f in fracs))
        ints = [f * denom for f in fracs]
        g = gcd(*(int(i) for i in ints))
        w = w.scale(ExactScalar.of(Fraction(denom, g)))
    return w


class AxisLine(Value):
    """An unsigned line through the origin, held by its canonical direction.

    A pi-rotation determines its axis only up to sign, so axes compare as
    lines: v and -v (and any nonzero rescaling) canonicalize identically.
    """

    __slots__ = __match_args__ = ("direction",)

    def __init__(self, direction: Vector3) -> None:
        if direction.is_zero():
            raise ValueError("zero vector does not span an axis")
        _set_direction(self, _canonicalize_direction(direction))

    @staticmethod
    def of(x: RationalLike, y: RationalLike, z: RationalLike) -> "AxisLine":
        return AxisLine(Vector3.of(x, y, z))


(_set_direction,) = slot_setters(AxisLine)


def is_perpendicular(u: AxisLine, v: AxisLine) -> bool:
    return u.direction.dot(v.direction).is_zero()


def is_angle_pi_over_4(u: AxisLine, v: AxisLine) -> bool:
    """Unsigned lines meet at pi/4 iff 2 (u.v)^2 = (u.u)(v.v)."""
    d = u.direction.dot(v.direction)
    lhs = ExactScalar.of(2) * d * d
    rhs = u.direction.dot(u.direction) * v.direction.dot(v.direction)
    return lhs == rhs


def is_coplanar(u: AxisLine, v: AxisLine, w: AxisLine) -> bool:
    p, q = _int_triple(
        _int_coords(u.direction), _int_coords(v.direction), _int_coords(w.direction)
    )
    return p == 0 and q == 0


# ---------------------------------------------------------------------------
# vectors on Z[sqrt(5)] coordinates
# ---------------------------------------------------------------------------
#
# An int vector is a flat 6-tuple (p0, q0, p1, q1, p2, q2): coordinate k is
# pk + qk*sqrt(5).  A dot or triple product of int vectors is an int pair
# (p, q), read as p + q*sqrt(5).


def _int_coords(v: Vector3) -> tuple:
    """v scaled by the positive lcm of its three denominators."""
    x, y, z = v.x, v.y, v.z
    n = lcm(x.d, y.d, z.d)
    a, b, c = n // x.d, n // y.d, n // z.d
    return (x.p * a, x.q * a, y.p * b, y.q * b, z.p * c, z.q * c)


def _int_dot(u: tuple, v: tuple) -> tuple:
    a0, b0, a1, b1, a2, b2 = u
    c0, e0, c1, e1, c2, e2 = v
    return (
        a0 * c0 + a1 * c1 + a2 * c2 + 5 * (b0 * e0 + b1 * e1 + b2 * e2),
        a0 * e0 + b0 * c0 + a1 * e1 + b1 * c1 + a2 * e2 + b2 * c2,
    )


def _int_cross(u: tuple, v: tuple) -> tuple:
    a0, b0, a1, b1, a2, b2 = u
    c0, e0, c1, e1, c2, e2 = v
    # (a + b sqrt5)(c + e sqrt5) = (ac + 5be) + (ae + bc) sqrt5, per term
    return (
        a1 * c2 + 5 * b1 * e2 - a2 * c1 - 5 * b2 * e1,
        a1 * e2 + b1 * c2 - a2 * e1 - b2 * c1,
        a2 * c0 + 5 * b2 * e0 - a0 * c2 - 5 * b0 * e2,
        a2 * e0 + b2 * c0 - a0 * e2 - b0 * c2,
        a0 * c1 + 5 * b0 * e1 - a1 * c0 - 5 * b1 * e0,
        a0 * e1 + b0 * c1 - a1 * e0 - b1 * c0,
    )


def _int_triple(u: tuple, v: tuple, w: tuple) -> tuple:
    """u . (v x w), the determinant with rows u, v, w."""
    return _int_dot(u, _int_cross(v, w))


def _int_mul(x: tuple, y: tuple) -> tuple:
    (p, q), (r, s) = x, y
    return (p * r + 5 * q * s, p * s + q * r)


def _int_cos_squared(g: tuple, n: tuple, m: tuple) -> ExactScalar:
    """g^2 / (n m) for a Gram entry g = u.v and the squared lengths n = u.u,
    m = v.v of int vectors: cos^2 of the angle between u and v.  Multiply
    by the Galois conjugate of n m, whose product with n m is the int norm;
    that norm is positive, since the conjugate of a squared length is the
    squared length of the conjugate vector."""
    p, q = _int_mul(g, g)
    r, s = _int_mul(n, m)
    return _reduced(p * r - 5 * q * s, q * r - p * s, r * r - 5 * s * s)
