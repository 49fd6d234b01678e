"""Seeded inputs for the linkrep benchmark.

Every query comes from a *template*: a fixed diagram (a fixture, a Hopf ring,
a decorated chain, a decorated Hopf tuple) or a fixed calculus shape.  The
seed only changes how the template is written down: node and arc names, the
signs of Hopf-member crossings, the direction of a Hopf ring, and a global
conjugation of the decorations.  None of these changes the work a
query does or its answer up to renaming, so per-query cost stays the same
from seed to seed while the `.sld` text differs.  The oracle maps every
answer back to template names and compares it with the answer recorded for
the template.

Calculus queries (`bundle`, `obstruct`) take seeded numbers instead; their
answers follow from closed forms computed here (`expected_bundle`,
`expected_obstruct`), not from the code under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations, product
from math import isqrt
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

# ---------------------------------------------------------------------------
# S4 acting on the four cube diagonals; (p * q) applies q first, as in linkrep
# ---------------------------------------------------------------------------

Perm = Tuple[int, int, int, int]  # images of 1..4


def perm_parse(text: str) -> Perm:
    images = [1, 2, 3, 4]
    for cycle in re.findall(r"\(([1-4]*)\)", text):
        pts = [int(c) for c in cycle]
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)]
    return tuple(images)


def perm_str(p: Perm) -> str:
    seen, cycles = set(), []
    for start in range(1, 5):
        if start in seen:
            continue
        cycle, nxt = [start], p[start - 1]
        seen.add(start)
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = p[nxt - 1]
        if len(cycle) > 1:
            cycles.append("(" + "".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


def perm_mul(p: Perm, q: Perm) -> Perm:
    return tuple(p[q[i] - 1] for i in range(4))


def perm_inv(p: Perm) -> Perm:
    out = [0] * 4
    for i in range(4):
        out[p[i] - 1] = i + 1
    return tuple(out)


def perm_conj(c: Perm, p: Perm) -> Perm:
    return perm_mul(perm_mul(c, p), perm_inv(c))


S4 = sorted(tuple(p) for p in permutations((1, 2, 3, 4)))
IDENTITY: Perm = (1, 2, 3, 4)
OCT_INVOLUTIONS = [p for p in S4 if p != IDENTITY and perm_mul(p, p) == IDENTITY]
V4 = [p for p in OCT_INVOLUTIONS if all(p[i] != i + 1 for i in range(4))]


def _quarter_turns(w: Perm) -> List[Perm]:
    """The two 4-cycles squaring to the half-turn w in V4; conjugation by
    either swaps the other two elements of V4."""
    return [p for p in S4 if perm_mul(p, p) == w]


def commuting_involution_tuples(n: int) -> int:
    """Ordered n-tuples of octahedral pi-rotations in which cyclically
    adjacent entries are distinct and commute (perpendicular axes): the raw
    solution count of an n-node Hopf ring over the octahedral group."""
    ok = {
        (p, q)
        for p in OCT_INVOLUTIONS
        for q in OCT_INVOLUTIONS
        if p != q and perm_mul(p, q) == perm_mul(q, p)
    }
    return sum(
        all((t[i], t[(i + 1) % n]) in ok for i in range(n))
        for t in product(OCT_INVOLUTIONS, repeat=n)
    )


def icosahedral_ring_count(n: int) -> int:
    """The 15 icosahedral half-turn axes form 5 orthogonal frames, and an axis
    is perpendicular to exactly the other two of its frame; so an n-ring is a
    proper 3-colouring of the n-cycle inside one frame."""
    return 5 * (2 ** n + 2 * (-1) ** n)


# ---------------------------------------------------------------------------
# Q(sqrt 5) and 3x3 matrices, just enough to write icosahedral decorations
# ---------------------------------------------------------------------------

def _frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Q5:
    a: Fraction
    b: Fraction = Fraction(0)

    def __add__(self, o: "Q5") -> "Q5":
        return Q5(self.a + o.a, self.b + o.b)

    def __mul__(self, o: "Q5") -> "Q5":
        return Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __neg__(self) -> "Q5":
        return Q5(-self.a, -self.b)

    def inverse(self) -> "Q5":
        norm = self.a * self.a - 5 * self.b * self.b
        return Q5(self.a / norm, -self.b / norm)

    def text(self) -> str:
        if self.b == 0:
            return _frac_text(self.a)
        return f"{_frac_text(self.a)}{'+' if self.b > 0 else '-'}{_frac_text(abs(self.b))}*r5"


Matrix = Tuple[Tuple[Q5, ...], ...]
ZERO, ONE = Q5(Fraction(0)), Q5(Fraction(1))
PHI = Q5(Fraction(1, 2), Fraction(1, 2))


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] + x[i][2] * y[2][j] for j in range(3))
        for i in range(3)
    )


def mat_t(x: Matrix) -> Matrix:
    return tuple(tuple(x[j][i] for j in range(3)) for i in range(3))


def int_matrix(rows) -> Matrix:
    return tuple(tuple(Q5(Fraction(e)) for e in row) for row in rows)


def half_turn(v: Sequence[Q5]) -> Matrix:
    """(2 / v.v) v v^T - I."""
    scale = Q5(Fraction(2)) * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).inverse()
    return tuple(
        tuple(scale * v[i] * v[j] + (-ONE if i == j else ZERO) for j in range(3))
        for i in range(3)
    )


def _ico_axes() -> List[Tuple[Q5, Q5, Q5]]:
    axes = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
    for s1, s2 in product((1, -1), repeat=2):
        v = [ONE if s1 == 1 else -ONE, (PHI + ONE) if s2 == 1 else -(PHI + ONE), PHI]
        for k in range(3):
            axes.append(tuple(v[k:] + v[:k]))
    return axes


ICO_INVOLUTIONS = [half_turn(v) for v in _ico_axes()]

_DIAGONALS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _sign_changes() -> List[Tuple[Perm, Matrix]]:
    """The four rotations diag(+-1, +-1, +-1) of determinant 1, each as a
    permutation of the cube diagonals and as a matrix.  They lie in both
    presets, and conjugating by one only changes the signs of matrix
    entries, so the cost of `canon` on icosahedral axes stays the same (a
    coordinate cycle would change which coordinate `AxisLine` divides by)."""
    out = []
    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        images = []
        for d in _DIAGONALS:
            img = tuple(s * c for s, c in zip(signs, d))
            neg = tuple(-c for c in img)
            images.append(next(n + 1 for n, e in enumerate(_DIAGONALS) if e in (img, neg)))
        rows = [[signs[i] if i == j else 0 for j in range(3)] for i in range(3)]
        out.append((tuple(images), int_matrix(rows)))
    return out


SIGN_CHANGES = _sign_changes()

# ---------------------------------------------------------------------------
# a minimal .sld document: only what the generator writes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    id: str
    start: str
    start_slot: int
    end: str
    end_slot: int
    word: Tuple[Tuple[str, int], ...]
    twist: int = 0

    def text(self) -> str:
        word = " ".join(f"{r}:{'+' if s == 1 else '-'}" for r, s in self.word)
        twist = f" twist {self.twist}" if self.twist else ""
        return (
            f"arc {self.id} from {self.start} slot {self.start_slot} "
            f"to {self.end} slot {self.end_slot} word {word}".rstrip() + twist
        )


@dataclass(frozen=True)
class Doc:
    group: Optional[str]
    hopfs: Tuple[str, ...] = ()
    circles: Tuple[str, ...] = ()
    arcs: Tuple[Arc, ...] = ()
    # node -> Perm (perm decoration) or Matrix (matrix decoration)
    decorations: Tuple[Tuple[str, object], ...] = ()

    def text(self) -> str:
        lines = [f"group {self.group}"] if self.group else []
        lines += [f"hopf {h}" for h in self.hopfs]
        lines += [f"circle {c}" for c in self.circles]
        lines += [a.text() for a in self.arcs]
        for node, el in self.decorations:
            if isinstance(el[0], int):
                lines.append(f'decorate {node} = perm "{perm_str(el)}"')
            else:
                entries = " ".join(e.text() for row in el for e in row)
                lines.append(f"decorate {node} = matrix {entries}")
        return "".join(line + "\n" for line in lines)

    def node_names(self) -> List[str]:
        return list(self.hopfs) + list(self.circles) + [a.id for a in self.arcs]


def _ref_node(ref: str) -> str:
    return ref.split(".", 1)[0]


def _rename_ref(ref: str, names: Dict[str, str]) -> str:
    node, dot, member = ref.partition(".")
    return names[node] + dot + member


def read_fixture(name: str) -> Doc:
    """Parse the subset of `.sld` the fixtures use (rational matrices only)."""
    group, hopfs, circles, arcs, decs = None, [], [], [], []
    for line in (FIXTURES / name).read_text(encoding="utf-8").splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "group":
            group = tok[1]
        elif tok[0] == "hopf":
            hopfs.append(tok[1])
        elif tok[0] == "circle":
            circles.append(tok[1])
        elif tok[0] == "arc":
            rest = tok[11:]
            twist = 0
            if "twist" in rest:
                twist = int(rest[-1])
                rest = rest[:-2]
            word = tuple((w[:-2], 1 if w.endswith("+") else -1) for w in rest)
            arcs.append(Arc(tok[1], tok[3], int(tok[5]), tok[7], int(tok[9]), word, twist))
        elif tok[0] == "decorate" and tok[3] == "perm":
            decs.append((tok[1], perm_parse(tok[4].strip('"'))))
        elif tok[0] == "decorate" and tok[3] == "matrix":
            decs.append((tok[1], int_matrix([tok[4:7], tok[7:10], tok[10:13]])))
        else:
            raise ValueError(f"{name}: unsupported line {line!r}")
    return Doc(group, tuple(hopfs), tuple(circles), tuple(arcs), tuple(decs))


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


def hopf_ring(n: int, group: str, step: int = 1) -> Doc:
    """n Hopf nodes; node i's self-arc crosses node i+step's disc.  A valid
    decoration puts perpendicular half-turns on neighbouring nodes, so both
    directions have the same solutions."""
    hopfs = tuple(f"R{i}" for i in range(n))
    arcs = tuple(
        Arc(f"S{i}", f"R{i}.a", 0, f"R{i}.b", 0, ((f"R{(i + step) % n}.a", 1),))
        for i in range(n)
    )
    return Doc(group, hopfs, (), arcs)


def _chain_axes(n: int) -> List[Perm]:
    rng = random.Random(f"chain-axes-{n}")
    axes = [rng.choice(V4)]
    while len(axes) < n:
        axes.append(rng.choice([v for v in V4 if v != axes[-1]]))
    return axes


def decorated_chain(n: int, perturbed: bool) -> Doc:
    """A tree of n Hopf nodes with a valid octahedral decoration.

    Node i carries a coordinate half-turn (an element of V4), distinct from
    node i+1's; its self-arc crosses node i+1, so the two must commute, and
    the Stiefel-Whitney path product is node i+1's half-turn.  The link arc
    from node i to node i+1 crosses one of three simple circles Z0..Z2,
    decorated by a quarter turn that swaps the two half-turns.  When
    `perturbed`, the middle node gets the third half-turn instead, which
    breaks the relators of both link arcs at that node.
    """
    axes = _chain_axes(n)
    zs = {w: (f"Z{k}", _quarter_turns(w)[0]) for k, w in enumerate(V4)}
    arcs = []
    for i in range(n):
        nb = i + 1 if i + 1 < n else i - 1
        arcs.append(Arc(f"S{i}", f"N{i}.a", 0, f"N{i}.b", 0, ((f"N{nb}.a", 1),)))
    for i in range(n - 1):
        third = next(w for w in V4 if w not in (axes[i], axes[i + 1]))
        arcs.append(Arc(f"L{i}", f"N{i}.b", 1, f"N{i + 1}.a", 1, ((zs[third][0], 1),)))
    decs = [(f"N{i}", axes[i]) for i in range(n)]
    if perturbed:
        k = n // 2
        decs[k] = (f"N{k}", next(w for w in V4 if w not in (axes[k - 1], axes[k])))
    decs += [zs[w] for w in V4]
    return Doc(
        "octahedral",
        tuple(f"N{i}" for i in range(n)),
        tuple(zs[w][0] for w in V4),
        tuple(arcs),
        tuple(decs),
    )


def hopf_tuple(n: int, kind: str) -> Doc:
    """n Hopf nodes decorated by half-turns: octahedral perms (`oct`),
    icosahedral matrices (`ico`) or alternating the two (`mixed`)."""
    rng = random.Random(f"tuple-{n}-{kind}")
    decs = []
    for i in range(n):
        use_perm = kind == "oct" or (kind == "mixed" and i % 2 == 0)
        pool = OCT_INVOLUTIONS if use_perm else ICO_INVOLUTIONS
        decs.append((f"H{i}", rng.choice(pool)))
    group = "icosahedral" if kind == "ico" else "octahedral"
    return Doc(group, tuple(f"H{i}" for i in range(n)), (), (), tuple(decs))


# ---------------------------------------------------------------------------
# seeded rewriting of a template
# ---------------------------------------------------------------------------

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def fresh_names(doc: Doc, rng: random.Random) -> Dict[str, str]:
    """template name -> instance name; instance names are six characters,
    a letter first and a digit last, so they never read as an English word
    inside a diagnostic."""
    out: Dict[str, str] = {}
    used = set()
    for name in doc.node_names():
        while True:
            cand = (
                rng.choice(_ALNUM[:26])
                + "".join(rng.choice(_ALNUM) for _ in range(4))
                + rng.choice(_ALNUM[26:])
            )
            if cand not in used:
                break
        used.add(cand)
        out[name] = cand
    return out


def rewrite(doc: Doc, rng: random.Random, conj: Optional[Tuple[Perm, Matrix]] = None):
    """Rename everything, flip the sign of every Hopf-member crossing at
    random (a half-turn is its own inverse), and conjugate all decorations by
    `conj`.  Returns the instance and its instance -> template name map."""
    names = fresh_names(doc, rng)
    hopfs = set(doc.hopfs)

    def flip(ref: str, sign: int) -> Tuple[str, int]:
        if _ref_node(ref) in hopfs and rng.random() < 0.5:
            sign = -sign
        return _rename_ref(ref, names), sign

    arcs = tuple(
        replace(
            a,
            id=names[a.id],
            start=_rename_ref(a.start, names),
            end=_rename_ref(a.end, names),
            word=tuple(flip(r, s) for r, s in a.word),
        )
        for a in doc.arcs
    )
    decs = []
    for node, el in doc.decorations:
        if conj is not None:
            p, m = conj
            el = perm_conj(p, el) if isinstance(el[0], int) else mat_mul(mat_mul(m, el), mat_t(m))
        decs.append((names[node], el))
    inst = Doc(
        doc.group,
        tuple(names[h] for h in doc.hopfs),
        tuple(names[c] for c in doc.circles),
        arcs,
        tuple(decs),
    )
    return inst, {v: k for k, v in names.items()}


# ---------------------------------------------------------------------------
# closed forms for the calculus queries
# ---------------------------------------------------------------------------


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sum_of_two_squares(n: int) -> bool:
    """Fermat: n > 0 is a sum of two squares iff every prime 3 mod 4 divides
    it to an even power."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return False
        p += 1
    return n % 4 != 3


def splitting_exists(b2: int, c2: int) -> bool:
    """Is c2 a sum of at most b2 numbers l(l-1) = 2 T(l-1)?  c2 must be even;
    then Gauss (every n is a sum of three triangular numbers) settles b2 >= 3,
    Fermat settles b2 = 2 (2 c2 + 1 a sum of two squares) and b2 = 1 asks for
    4 c2 + 1 to be a square."""
    if c2 < 0 or c2 % 2:
        return False
    if b2 >= 3 or c2 == 0:
        return True
    if b2 == 2:
        return _sum_of_two_squares(2 * c2 + 1)
    return _is_square(4 * c2 + 1)


def expected_bundle(b1: int, b2: int, c2: int) -> dict:
    c1sq = -b2
    p1 = -4 * c2 + c1sq
    energy = Fraction(c2) - Fraction(c1sq, 4)
    return {
        "b1": b1,
        "b2": b2,
        "c2": c2,
        "c1sq": c1sq,
        "p1": p1,
        "energy": _frac_text(energy),
        "compact": energy in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        "flat": energy == 0,
        "irreducible_locked": not splitting_exists(b2, c2),
        "d": -2 * p1 + 3 * (b1 - 1),
    }


def expected_obstruct(b2: Optional[int], summands: Optional[List[int]]) -> dict:
    """Residue (-b2) mod 4 of the Pontryagin square of the all-ones class."""
    out = {}
    passed = True
    if b2 is not None:
        psq = (-b2) % 4
        out["b2"] = {"psq": psq, "divisibility_pass": psq == 0}
        passed = passed and psq == 0
    if summands is not None:
        verdicts = [{"b2": b, "passed": b % 4 == 0} for b in summands]
        failing = [b for b in summands if b % 4]
        psq = (-failing[0]) % 4 if failing else 0
        out["connected_sum"] = {
            "psq": psq,
            "divisibility_pass": not failing,
            "summand_verdicts": verdicts,
        }
        passed = passed and not failing
    out["verdict"] = "pass" if passed else "fail"
    return out


# ---------------------------------------------------------------------------
# queries and workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One CLI invocation.  `template` keys the recorded answer (None for
    calculus queries, whose answer is in `expect["json"]`); `names` maps
    instance names back to template names; `expect` holds answers that
    follow from the construction alone."""

    template: Optional[str]
    argv: Tuple[str, ...]
    text: Optional[str] = None
    names: Dict[str, str] = field(default_factory=dict)
    expect: Dict[str, object] = field(default_factory=dict)


# A pass entry is (template key, template Doc or None, argv with "{file}"
# standing for the written .sld, construction expectations), or AGAIN to
# repeat the previous query verbatim.
AGAIN = "again"


def _search(name, doc, group, dedup, expect=None, extra=()):
    argv = ["search", "{file}", "--group", group, "--dedup", dedup, *extra]
    return (f"search/{group}/{name}/{dedup}", doc, argv, expect or {})


def _ring(rng, n, group, dedup):
    count = commuting_involution_tuples(n) if group == "octahedral" else icosahedral_ring_count(n)
    doc = hopf_ring(n, group, rng.choice((1, -1)))
    return _search(f"ring{n}", doc, group, dedup, {"raw_solutions": count})


def _pass_search_oct(rng: random.Random, cache_dir: str) -> list:
    ref1, comm = read_fixture("ref1.sld"), read_fixture("commuting.sld")
    return [
        _search("ref1", ref1, "octahedral", "so3_canonical", {"raw_solutions": 120, "classes": 1}),
        _ring(rng, 4, "octahedral", "so3_canonical"),
        # three ring3 instances: the median of the 9 latencies is one of them
        _ring(rng, 3, "octahedral", "so3_canonical"),
        _ring(rng, 3, "octahedral", "so3_canonical"),
        _ring(rng, 3, "octahedral", "so3_canonical"),
        _ring(rng, 3, "octahedral", "group_conjugacy"),
        _search("commuting", comm, "octahedral", "none"),
        # one query twice against a fresh cache directory: a miss, then a hit
        _search("commuting", comm, "octahedral", "so3_canonical", extra=("--cache", cache_dir)),
        AGAIN,
    ]


def _pass_search_ico(rng: random.Random, cache_dir: str) -> list:
    comm = read_fixture("commuting.sld")
    return [
        _search("commuting", comm, "icosahedral", "so3_canonical"),
        _ring(rng, 3, "icosahedral", "so3_canonical"),
        _search("commuting", comm, "icosahedral", "none"),
        _search("commuting", comm, "icosahedral", "group_conjugacy"),
    ]


# an odd number of sizes keeps the median inside one size's cluster
CHAIN_SIZES = (25, 50, 100, 150, 200)


def _pass_check_scale(rng: random.Random, cache_dir: str) -> list:
    return [
        (
            f"check/chain{n}/{'perturbed' if bad else 'valid'}",
            decorated_chain(n, bad),
            ["check", "{file}"],
            {"exit": int(bad), "relators_passed": not bad},
        )
        for n in CHAIN_SIZES
        for bad in (False, True)
    ]


CANON_SHAPES = ((6, "oct"), (7, "ico"), (8, "mixed"), (9, "oct"), (10, "ico"), (11, "mixed"))
# c2 magnitudes of the bundle sweep; the DP behind `bundle` costs ~c2^1.5.
# The middle one, the median of a pass, stays clear of canon6's latency.
BUNDLE_C2 = (300, 1000, 2000, 8000, 20000)


def _bundle(b1: int, b2: int, c2: int):
    argv = ["bundle", "--b1", str(b1), "--b2", str(b2), "--c2", str(c2)]
    return (None, None, argv, {"json": expected_bundle(b1, b2, c2)})


def _obstruct(b2: Optional[int], summands: Optional[List[int]]):
    argv = ["obstruct"]
    if b2 is not None:
        argv += ["--b2", str(b2)]
    if summands is not None:
        argv += ["--summands", ",".join(map(str, summands))]
    return (None, None, argv, {"json": expected_obstruct(b2, summands)})


def _pass_calculus(rng: random.Random, cache_dir: str) -> list:
    out = [
        (f"canon/tuple{n}-{kind}", hopf_tuple(n, kind), ["canon", "{file}"], {"size": n})
        for n, kind in CANON_SHAPES
    ]
    for c2 in BUNDLE_C2:
        c2 += rng.randint(-c2 // 100, c2 // 100)
        out.append(_bundle(rng.randint(0, 3), rng.randint(1, 12), c2))
    b2 = rng.choice((4, 8, 12))
    out.append(_bundle(1, b2, -b2 // 4))  # flat: energy c2 + b2/4 = 0
    out.append(_bundle(rng.randint(0, 3), rng.randint(1, 12), -rng.randint(1, 9)))
    summands = [rng.choice((0, 4, 8, rng.randint(1, 12))) for _ in range(rng.randint(1, 5))]
    out += [
        _obstruct(rng.randint(1, 40), None),
        _obstruct(4 * rng.randint(1, 10), None),
        _obstruct(None, summands),
        _obstruct(rng.randint(1, 40), summands),
    ]
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    groups: Tuple[str, ...]  # preset groups the set-up builds
    # seconds one pass over the query list took at the commit that defined
    # the benchmark (2-core x86-64 VM, CPython 3.11); fixes passes per run
    pass_seconds: float
    make_pass: Callable[[random.Random, str], list]
    conjugate: bool  # conjugate decorations globally (answers are invariant)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search_oct", ("octahedral",), 25.0, _pass_search_oct, False),
        Workload("search_ico", ("icosahedral",), 15.0, _pass_search_ico, False),
        Workload("check_scale", (), 6.5, _pass_check_scale, True),
        Workload("calculus", (), 3.0, _pass_calculus, True),
    )
}


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes in a run of about `seconds` at the defining commit.  The
    count depends on `seconds` only, so two commits run the same queries."""
    return max(1, round(seconds / WORKLOADS[workload].pass_seconds))


def _has_matrix(doc: Doc) -> bool:
    return any(not isinstance(el[0], int) for _, el in doc.decorations)


def build_queries(workload: str, seed: int, passes: int, workdir: str) -> List[Query]:
    """The run's query list.  `workdir` is relative to the repo root, so the
    same seed gives byte-identical argv and `.sld` text."""
    w = WORKLOADS[workload]
    queries: List[Query] = []
    for p in range(passes):
        rng = random.Random(f"{workload}/{seed}/{p}")
        for entry in w.make_pass(rng, f"{workdir}/cache{p}"):
            if entry == AGAIN:
                queries.append(queries[-1])
                continue
            key, doc, argv, expect = entry
            text, names = None, {}
            if doc is not None:
                conj = None
                if w.conjugate:
                    # perms alone may take any cube rotation
                    conj = rng.choice(SIGN_CHANGES) if _has_matrix(doc) else (rng.choice(S4), None)
                doc, names = rewrite(doc, rng, conj)
                text = doc.text()
            path = f"{workdir}/p{p}q{len(queries)}.sld"
            queries.append(
                Query(
                    template=key,
                    argv=tuple(path if a == "{file}" else a for a in argv),
                    text=text,
                    names=names,
                    expect=expect,
                )
            )
    return queries
