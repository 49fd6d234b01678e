"""Finite subgroups of SO(3) as exact matrices.

Provides the rotation element type, conjugation, involution and axis
extraction, the dictionary between S4 (permuting the four cube diagonals)
and the 24 cube rotations, and finite groups closed from generators.  An
element's matrix is one int form (field.Matrix3): n with the rows of n*M,
for n the lcm of its denominators, so equal matrices have equal forms.  A
matrix is validated once, on its form; a group is closed with Matrix3's
product kernel and keyed on forms, and the cube dictionary reads the
diagonal images on them.  A finite group is its Cayley table, built and
validated when the group is.  The elements a group owns know their index in
it, so products, inverses, equality and lookups among them are table reads:
two elements of one group are equal iff their indices are.  The group also
holds the facts about single elements that searches and reports ask for
repeatedly: the conjugation table and each involution's axis, each built
in one pass on first use, and each element's output form, built the first
time a report prints that element; so each at most once per index.

Composition convention, used everywhere in the package: (g * h) applies h
first, then g.  Permutation composition follows the same convention.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import lcm
from types import MappingProxyType
from typing import Optional, Sequence

from ._value import Value, slot_setters
from .field import AxisLine, ExactScalar, Matrix3, Vector3, format_matrix
from .field import _form_mul, _int_dot, _int_triple


class RotationElement(Value):
    """An exact special-orthogonal 3x3 matrix.

    An element owned by a FiniteRotationGroup carries the group and its
    index there.  These are plain attributes, not fields: repr and hash
    ignore them, and pickling or copying drops them.  Two elements of one
    group compare by index, as do a group's element and the identity
    constant; every other pair compares by matrix, which gives the same
    answer.
    """

    __slots__ = ("m", "__dict__")  # the dict holds the group tags
    __match_args__ = ("m",)

    _group = None  # the owning FiniteRotationGroup, set by _close
    _index = -1

    def __init__(self, m: Matrix3) -> None:
        _set_m(self, m)
        # R = n*M: M^T M = I iff R R^T = n^2 I, and then det M = 1 iff det R = n^3
        n, (r, s, t) = m.form
        diagonal = (_int_dot(r, r), _int_dot(s, s), _int_dot(t, t))
        off_diagonal = (_int_dot(r, s), _int_dot(r, t), _int_dot(s, t))
        if diagonal != ((n * n, 0),) * 3 or off_diagonal != ((0, 0),) * 3:
            raise ValueError("matrix is not orthogonal")
        if _int_triple(r, s, t) != (n * n * n, 0):
            raise ValueError("matrix has determinant != 1")

    @staticmethod
    def _new(m: Matrix3) -> "RotationElement":
        # internal fast path: m already known special-orthogonal
        g = object.__new__(RotationElement)
        _set_m(g, m)
        return g

    @staticmethod
    def identity() -> "RotationElement":
        return _IDENTITY

    @staticmethod
    def of(entries) -> "RotationElement":
        return RotationElement(Matrix3.of(entries))

    def __reduce__(self):
        return (RotationElement._new, (self.m,))

    def __eq__(self, other) -> bool:
        if other.__class__ is not RotationElement:
            return NotImplemented
        t = self._group
        if t is not None:
            if t is other._group:
                return self._index == other._index
            if other is _IDENTITY:
                return self._index == t.identity
        return self.m == other.m

    # defining __eq__ drops the inherited __hash__, the hash of (m,)
    __hash__ = Value.__hash__

    def __mul__(self, other: "RotationElement") -> "RotationElement":
        t = self._group
        if t is not None and t is other._group:
            return t.elements[t.mul[self._index][other._index]]
        # the identity constant (an empty word's holonomy) is in no group
        if self is _IDENTITY:
            return other
        if other is _IDENTITY:
            return self
        # special-orthogonal matrices are closed under product
        return RotationElement._new(self.m * other.m)

    def inverse(self) -> "RotationElement":
        t = self._group
        if t is not None:
            return t.elements[t.inv[self._index]]
        if self is _IDENTITY:
            return self
        # orthogonal, so the transpose inverts
        return RotationElement._new(self.m.transpose())

    def apply(self, v: Vector3) -> Vector3:
        return self.m.apply(v)

    def sort_key(self) -> tuple:
        """Deterministic total order on elements: the rational parts (a, b)
        of the entries in row-major order, as ints where d = 1."""
        return tuple(
            (e.p, e.q) if e.d == 1 else (e.a, e.b) for row in self.m.rows for e in row
        )


(_set_m,) = slot_setters(RotationElement)
_IDENTITY = RotationElement._new(Matrix3.identity())


def conjugate(g: RotationElement, h: RotationElement) -> RotationElement:
    """g * h * g^-1."""
    return g * h * g.inverse()


def is_involution(g: RotationElement) -> bool:
    """True iff g is a rotation by pi: trace 1 + 2 cos(theta) = -1.
    (Equivalent to g != I and g*g = I; tests pin the equivalence.)  An
    element a group owns is looked up in its group, any other on its form."""
    t = g._group
    if t is not None:
        return g._index in t.involutions
    n, (r0, r1, r2) = g.m.form
    return r0[0] + r1[2] + r2[4] == -n and r0[1] + r1[3] + r2[5] == 0


def axis_of_involution(g: RotationElement) -> AxisLine:
    """The fixed line of a pi-rotation: any nonzero column of g + I.  The
    axis of an involution a group owns is computed once, by the group."""
    t = g._group
    axis = None if t is None else t.axes.get(g._index)
    return _axis(g) if axis is None else axis


def _axis(g: RotationElement) -> AxisLine:
    if not is_involution(g):
        raise ValueError("element is not an involution")
    v = _int_axis(g)
    return AxisLine(Vector3(*(ExactScalar.of(v[k], v[k + 1]) for k in (0, 2, 4))))


def _int_axis(g: RotationElement) -> tuple:
    """The axis of the pi-rotation g in int coordinates: a column of n*(M + I)."""
    n, rows = g.m.form
    for k in (0, 2, 4):
        col = [x for row in rows for x in row[k : k + 2]]
        col[k] += n
        if any(col):
            return tuple(col)
    raise RuntimeError("pi-rotation with no fixed direction")


def from_axis_pi(axis: AxisLine) -> RotationElement:
    """The rotation by pi about the given axis: (2/(v.v)) v v^T - I."""
    v = axis.direction.components()
    k = ExactScalar.of(2) / axis.direction.dot(axis.direction)
    entries = [[k * x * y for y in v] for x in v]
    for i in range(3):
        entries[i][i] -= ExactScalar.of(1)
    return RotationElement(Matrix3(entries))


# ---------------------------------------------------------------------------
# S4 as the rotation group of the cube
# ---------------------------------------------------------------------------

_CYCLES_RE = re.compile(r"\(([1-4]*)\)")


class CubePermutation(Value):
    """A permutation of {1,2,3,4}, acting on the four cube diagonals.

    images[i-1] is the image of i.  (p * q) applies q first.
    """

    __slots__ = __match_args__ = ("images",)

    def __init__(self, images: tuple) -> None:
        if sorted(images) != [1, 2, 3, 4]:
            raise ValueError(f"not a permutation of 1..4: {images}")
        _set_images(self, images)

    @staticmethod
    def identity() -> "CubePermutation":
        return CubePermutation((1, 2, 3, 4))

    @staticmethod
    def parse(text: str) -> "CubePermutation":
        """Parse cycle notation such as "(12)", "(12)(34)", "(123)"; "()" is the identity."""
        text = text.strip()
        if text in ("()", "e"):
            return CubePermutation.identity()
        if not re.fullmatch(r"(\([1-4]{2,4}\))+", text):
            raise ValueError(f"malformed cycle notation {text!r}")
        images = [1, 2, 3, 4]
        # disjoint cycles commute; apply them all to the identity
        for cycle in _CYCLES_RE.findall(text):
            pts = [int(c) for c in cycle]
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle {cycle!r}")
            for i, p in enumerate(pts):
                if images[p - 1] != p:
                    raise ValueError(f"cycles are not disjoint in {text!r}")
                images[p - 1] = pts[(i + 1) % len(pts)]
        return CubePermutation(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "CubePermutation") -> "CubePermutation":
        return CubePermutation(tuple(self(other(i)) for i in range(1, 5)))

    def inverse(self) -> "CubePermutation":
        inv = [0] * 4
        for i in range(1, 5):
            inv[self(i) - 1] = i
        return CubePermutation(tuple(inv))

    def cycle_str(self) -> str:
        """Canonical cycle notation: cycles by least point, fixed points omitted."""
        seen = set()
        cycles = []
        for start in range(1, 5):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cycle) > 1:
                cycles.append(cycle)
        if not cycles:
            return "()"
        return "".join("(" + "".join(str(p) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"CubePermutation({self.cycle_str()!r})"


(_set_images,) = slot_setters(CubePermutation)


#: the four cube diagonals, fixed once for a deterministic embedding
DIAGONALS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
#: each diagonal and its negative -> the diagonal's number, 1 to 4
_DIAGONAL_NUMBER = {
    tuple(s * x for x in d): k for k, d in enumerate(DIAGONALS, 1) for s in (1, -1)
}


def _diagonal_action(g: RotationElement) -> CubePermutation:
    """The permutation of the four diagonal lines induced by a cube rotation
    g.  g is rational, so the rational parts of the rows of its form n*M
    take each diagonal d to +-n*d' (KeyError if d' is no diagonal)."""
    n, rows = g.m.form
    return CubePermutation(
        tuple(
            _DIAGONAL_NUMBER[tuple((r[0] * x + r[2] * y + r[4] * z) // n for r in rows)]
            for x, y, z in DIAGONALS
        )
    )


@lru_cache(maxsize=1)
def _cube_perms() -> tuple:
    """The diagonal permutation of each octahedral element, by index."""
    return tuple(map(_diagonal_action, octahedral_group().elements))


@lru_cache(maxsize=1)
def _cube_dictionary() -> dict:
    """S4 images -> cube rotation; tests pin that this is a bijection and a
    homomorphism."""
    return {p.images: g for p, g in zip(_cube_perms(), octahedral_group())}


def perm_to_rotation(p: CubePermutation) -> RotationElement:
    """The cube rotation permuting the diagonals d1..d4 (as lines) according to p."""
    return _cube_dictionary()[p.images]


def rotation_to_perm(g: RotationElement) -> Optional[CubePermutation]:
    """Inverse dictionary lookup through the octahedral group; None if g is
    not a cube rotation."""
    i = octahedral_group().index_of(g)
    return None if i is None else _cube_perms()[i]


def rot(cycles: str) -> RotationElement:
    """Shorthand: the cube rotation for the given cycle notation."""
    return perm_to_rotation(CubePermutation.parse(cycles))


def _output_form(g: RotationElement) -> tuple:
    """How reports print g: ("perm", its cycle notation) for a cube
    rotation, else ("matrix", its nine entries in row-major order as exact
    strings).  Only FiniteRotationGroup.form calls it."""
    perm = rotation_to_perm(g)
    if perm is not None:
        return ("perm", perm.cycle_str())
    return ("matrix", format_matrix(g.m))


# ---------------------------------------------------------------------------
# finite rotation groups
# ---------------------------------------------------------------------------

GROUP_SIZE_LIMIT = 200


class FiniteRotationGroup:
    """A finite subgroup of SO(3), held as its Cayley table.

    The group is closed on int forms (see _close), and indices follow
    sort_key order, so comparing index tuples compares element tuples.  The
    group owns its elements (each knows its index and its form), and two of
    them are equal iff their indices are; index_of finds any other element
    by its form.  Built with the group:
      elements     the elements, in sort_key order;
      mul[i][j]    the index of elements[i] * elements[j];
      inv[i]       the index of elements[i]^-1;
      identity     the index of the identity;
      involutions  the indices of the pi-rotations, ascending.
    Facts about single elements are built at most once per index and kept
    as long as the group lives; the tables in one pass on first use, each
    form when it is first asked for:
      conj[c][g]   the index of elements[c] * elements[g] * elements[c]^-1;
      axes[i]      the AxisLine of the involution elements[i];
      form(i)      how reports print elements[i]: ("perm", cycles) for a
                   cube rotation, else ("matrix", nine exact strings).
    A group is immutable and equal only to itself.
    """

    def __new__(cls, elements: Sequence[RotationElement], name: str = "custom"):
        """The group of the given elements, in any order: ValueError unless
        they are closed under product (so a group is never empty)."""
        group = _close(elements, name)
        # the closure holds the identity and every given element
        if len(group) != len({g.m.form for g in elements}):
            raise ValueError("group elements are not their own closure")
        return group

    def __setattr__(self, *_):
        raise AttributeError("FiniteRotationGroup is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"<FiniteRotationGroup {self.name!r} of order {len(self)}>"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: RotationElement) -> bool:
        return self.index_of(g) is not None

    def index_of(self, g: RotationElement) -> Optional[int]:
        """The index of g, or None if g is not in the group: the element's
        own index when this group owns it, a lookup of its int form otherwise."""
        if g._group is self:
            return g._index
        return self._by_form.get(g.m.form)

    @cached_property
    def conj(self) -> tuple:
        mul, inv = self.mul, self.inv
        return tuple(
            tuple(mul[row[g]][inv[c]] for g in range(len(row)))
            for c, row in enumerate(mul)
        )

    @cached_property
    def axes(self) -> MappingProxyType:
        """Involution index -> its axis."""
        return MappingProxyType({i: _axis(self.elements[i]) for i in self.involutions})

    def form(self, i: int) -> tuple:
        form = self._forms.get(i)
        if form is None:
            form = self._forms[i] = _output_form(self.elements[i])
        return form


def _close(gens: Sequence[RotationElement], name: str) -> FiniteRotationGroup:
    """The group generated by gens, closed under right multiplication by them.

    The closure runs on int forms (n, rows of n*M) with Matrix3's product
    kernel, _form_mul, so it costs |G| * len(gens) products and builds no
    scalar.  Each new element is reached as parent * gens[k]; the rest of
    the table follows by index from these words, since
    x * (parent * g_k) = (x * parent) * g_k.  The forms are sorted once, by
    the ints x*(L/n) for L the lcm of every n, which is sort_key order.  The
    group owns one fresh element per form, with its index set.
    """
    found = [_IDENTITY.m.form]
    where = {found[0]: 0}
    word = [None]  # (parent, k) per element; the identity has none
    right = []  # right[i][k] = index of found[i] * gens[k]
    gen_forms = [g.m.form for g in gens]
    for i, x in enumerate(found):  # found grows while it is walked
        right.append([])
        for k, y in enumerate(gen_forms):
            y = _form_mul(x, y)
            j = where.setdefault(y, len(found))
            if j == len(found):
                if j >= GROUP_SIZE_LIMIT:
                    raise ValueError("not a finite subgroup preset size")
                found.append(y)
                word.append((i, k))
            right[i].append(j)
    n = len(found)
    top = lcm(*(form[0] for form in found))
    order = sorted(
        range(n), key=lambda j: [x * (top // found[j][0]) for row in found[j][1] for x in row]
    )
    rank = {j: r for r, j in enumerate(order)}
    mul = [None] * n
    for x in range(n):
        row = [x] * n  # found[x] * found[j], parents before children
        for j in range(1, n):
            parent, k = word[j]
            row[j] = right[row[parent]][k]
        mul[rank[x]] = tuple(rank[row[j]] for j in order)
    e = rank[0]
    group = object.__new__(FiniteRotationGroup)
    elements = []
    for i, j in enumerate(order):
        g = RotationElement._new(Matrix3._new(found[j]))
        g.__dict__.update(_group=group, _index=i)
        elements.append(g)
    group.__dict__.update(
        elements=tuple(elements),
        name=name,
        _by_form={form: rank[j] for form, j in where.items()},
        mul=tuple(mul),
        inv=tuple(row.index(e) for row in mul),
        identity=e,
        involutions=tuple(i for i, row in enumerate(mul) if row[i] == e != i),
        _forms={},  # index -> output form, filled by form
    )
    return group


def generate_group(
    gens: Sequence[RotationElement], name: str = "custom"
) -> FiniteRotationGroup:
    """Closure of a nonempty generator set; elements in sort_key order."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    return _close(gens, name)


@lru_cache(maxsize=1)
def octahedral_group() -> FiniteRotationGroup:
    """The 24 rotations of the cube, i.e. S4 acting on the diagonals,
    generated by the quarter turns about the z- and x-axes."""
    z_turn = RotationElement.of([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    x_turn = RotationElement.of([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    return generate_group([z_turn, x_turn], "octahedral")


@lru_cache(maxsize=1)
def tetrahedral_group() -> FiniteRotationGroup:
    """The 12 rotations of the tetrahedron, i.e. A4 acting on the cube
    diagonals, generated by (123) and (12)(34) under the cube dictionary."""
    return generate_group([rot("(123)"), rot("(12)(34)")], "tetrahedral")


@lru_cache(maxsize=1)
def icosahedral_group() -> FiniteRotationGroup:
    """The 60 rotations of the icosahedron, with exact Q(sqrt(5)) entries.

    Generated by the order-3 coordinate cycle, the pi-rotation about the
    z-axis and a pi-rotation about an edge-midpoint axis of the icosahedron
    with vertices (0, +-1, +-phi) and cyclic permutations.
    """
    phi = ExactScalar.golden_ratio()
    one = ExactScalar.of(1)
    cycle = RotationElement.of([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    z_flip = from_axis_pi(AxisLine.of(0, 0, 1))
    edge_axis = AxisLine(Vector3(one, phi + one, phi))
    edge_flip = from_axis_pi(edge_axis)
    group = generate_group([cycle, z_flip, edge_flip], "icosahedral")
    if len(group) != 60:
        raise RuntimeError(f"icosahedral closure has {len(group)} elements")
    return group


def preset_group(name: str) -> FiniteRotationGroup:
    presets = {
        "tetrahedral": tetrahedral_group,
        "octahedral": octahedral_group,
        "icosahedral": icosahedral_group,
    }
    if name not in presets:
        raise ValueError(f"unknown group preset {name!r}")
    return presets[name]()
