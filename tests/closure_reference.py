"""Reference readings of group closure and of the cube dictionary on
ExactScalar matrix arithmetic (tests/matrix_reference.py), for differential
tests: linkrep.rotation computed them this way before it closed groups on
integer forms."""

from linkrep.field import AxisLine, Matrix3, Vector3
from linkrep.rotation import (
    GROUP_SIZE_LIMIT,
    CubePermutation,
    FiniteRotationGroup,
    RotationElement,
    octahedral_group,
)

import matrix_reference as ref


def reference_close(gens, name: str = "custom") -> FiniteRotationGroup:
    """The group generated by gens, closed under right multiplication by
    them on matrix products, its elements sorted and keyed by sort_key.
    The group owns fresh elements; its `index` maps sort_key -> index."""
    found = [RotationElement._new(Matrix3.identity())]
    where = {found[0].sort_key(): 0}
    word = [None]  # (parent, k) per element; the identity has none
    right = []  # right[i][k] = index of found[i] * gens[k]
    for i, x in enumerate(found):  # found grows while it is walked
        right.append([])
        for k, g in enumerate(gens):
            y = RotationElement._new(Matrix3(ref.mul(x.m.rows, g.m.rows)))
            j = where.setdefault(y.sort_key(), len(found))
            if j == len(found):
                if j >= GROUP_SIZE_LIMIT:
                    raise ValueError("not a finite subgroup preset size")
                found.append(y)
                word.append((i, k))
            right[i].append(j)
    n = len(found)
    order = sorted(range(n), key=lambda j: found[j].sort_key())
    rank = {j: r for r, j in enumerate(order)}
    mul = [None] * n
    for x in range(n):
        row = [x] * n  # found[x] * found[j], parents before children
        for j in range(1, n):
            parent, k = word[j]
            row[j] = right[row[parent]][k]
        mul[rank[x]] = tuple(rank[row[j]] for j in order)
    e = rank[0]
    elements = tuple(found[j] for j in order)
    group = object.__new__(FiniteRotationGroup)
    group.__dict__.update(
        elements=elements,
        name=name,
        index={key: rank[j] for key, j in where.items()},
        mul=tuple(mul),
        inv=tuple(row.index(e) for row in mul),
        identity=e,
        involutions=tuple(i for i, row in enumerate(mul) if row[i] == e != i),
    )
    for i, g in enumerate(elements):
        object.__setattr__(g, "_group", group)
        object.__setattr__(g, "_index", i)
    return group


def reference_index_of(reference: FiniteRotationGroup, g: RotationElement):
    """The index of g in a group built by reference_close, by sort_key."""
    return reference.index.get(g.sort_key())


DIAGONAL_LINES = [
    AxisLine(Vector3.of(*d)) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
]


def reference_diagonal_action(g: RotationElement) -> CubePermutation:
    """The permutation of the four diagonal lines induced by a cube rotation
    g, read on AxisLines (ValueError if g moves a diagonal off the diagonals)."""
    return CubePermutation(
        tuple(
            DIAGONAL_LINES.index(AxisLine(ref.apply(g.m.rows, line.direction))) + 1
            for line in DIAGONAL_LINES
        )
    )


def reference_cube_perms() -> tuple:
    """The diagonal permutation of each octahedral element, by index."""
    return tuple(map(reference_diagonal_action, octahedral_group().elements))
