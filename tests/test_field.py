import copy
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linkrep.field
from linkrep.field import (
    AxisLine,
    ExactScalar,
    Matrix3,
    Vector3,
    format_scalar,
    is_angle_pi_over_4,
    is_coplanar,
    is_perpendicular,
    parse_scalar,
)
from linkrep.rotation import RotationElement, icosahedral_group, octahedral_group
from linkrep.sldfile import SldParseError, parse

import matrix_reference as ref

rationals = st.fractions(
    max_denominator=12,
    min_value=Fraction(-20),
    max_value=Fraction(20),
)
scalars = st.builds(ExactScalar, rationals, rationals)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


def q(a, b=0):
    return ExactScalar.of(Fraction(a), Fraction(b))


@dataclass(frozen=True)
class FractionPair:
    """Reference arithmetic: a + b*sqrt(5) as a pair of Fractions, the
    representation ExactScalar had before its integer core."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(x: ExactScalar) -> "FractionPair":
        return FractionPair(x.a, x.b)

    def __add__(self, o):
        return FractionPair(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return FractionPair(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return FractionPair(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - 5 * self.b * self.b
        return FractionPair(self.a / norm, -self.b / norm)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0 or (a > 0) == (b > 0):
            return 1 if b > 0 else -1
        # opposite signs: the larger of a^2 and 5 b^2 decides
        return (1 if a > 0 else -1) if a * a > 5 * b * b else (1 if b > 0 else -1)


#: arbitrary denominators, and the lattice 1/4 (Z + Z sqrt(5)) holding the
#: entries of the icosahedral preset
wide_rationals = st.fractions(max_denominator=10**6, min_value=-(10**6), max_value=10**6)
wide_scalars = st.builds(ExactScalar, wide_rationals, wide_rationals)
quarter_scalars = st.builds(
    lambda p, r: ExactScalar(Fraction(p, 4), Fraction(r, 4)),
    st.integers(-40, 40),
    st.integers(-40, 40),
)
any_scalars = st.one_of(scalars, wide_scalars, quarter_scalars)
vectors = st.builds(Vector3, any_scalars, any_scalars, any_scalars)


def canonical(x: ExactScalar) -> bool:
    return x.d > 0 and gcd(x.p, x.q, x.d) == 1


class TestScalarOps:
    def test_one_is_multiplicative_identity(self):
        x = q(Fraction(3, 7), Fraction(-2, 5))
        assert q(1) * x == x

    def test_conjugate_product_is_rational(self):
        a, b = Fraction(3, 4), Fraction(2, 7)
        prod = q(a, b) * q(a, -b)
        assert prod == q(a * a - 5 * b * b)

    def test_golden_ratio_minimal_polynomial(self):
        phi = ExactScalar.golden_ratio()
        assert phi * phi == phi + q(1)

    def test_floats_are_rejected(self):
        # a float is no exact value: 0.1 would read as 3602879701896397/2**55,
        # and a float matrix would fail as "not orthogonal"
        with pytest.raises(TypeError, match="float"):
            ExactScalar.of(0.1)
        with pytest.raises(TypeError, match="float"):
            ExactScalar(Fraction(1, 2), 0.5)
        with pytest.raises(TypeError, match="float"):
            RotationElement.of([[0.6, -0.8, 0], [0.8, 0.6, 0], [0, 0, 1]])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(1) / q(0)

    @given(scalars, scalars, scalars)
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, x):
        assert x * x.inverse() == q(1)

    @given(scalars, scalars)
    def test_order_is_compatible_with_addition(self, x, y):
        assert (x < y) == ((y - x).sign() > 0)
        assert not (x < y and y < x)

    @given(any_scalars)
    def test_scalar_text_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x


def fraction_parse(text: str) -> ExactScalar:
    """Reference: parse_scalar as it read the two parts through Fraction."""
    m = linkrep.field._SCALAR_RE.match(text)
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    if any(m.group(q) is not None and int(m.group(q)) == 0 for q in ("rb", "ib")):
        raise ValueError(f"zero denominator in scalar {text!r}")
    a = Fraction(int(m.group("ra")), int(m.group("rb") or 1))
    b = Fraction(0)
    if m.group("ia") is not None:
        b = Fraction(int(m.group("ia")), int(m.group("ib") or 1))
        if m.group("sign") == "-":
            b = -b
    return ExactScalar(a, b)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fraction_format(x: ExactScalar) -> str:
    """Reference: format_scalar as it printed the Fraction parts."""
    if x.b == 0:
        return _frac_str(x.a)
    sign = "+" if x.b > 0 else "-"
    return f"{_frac_str(x.a)}{sign}{_frac_str(abs(x.b))}*r5"


def _digits(least: int):
    """Digit strings of ints >= least, some with leading zeros."""
    return st.builds(
        lambda n, zeros: "0" * zeros + str(n),
        st.integers(least, 10**4),
        st.integers(0, 2),
    )


def _part(denominator):
    """"n" or "n/d", d drawn from denominator (None: no slash)."""
    return st.builds(
        lambda n, d: n if d is None else f"{n}/{d}", _digits(0), denominator
    )


def _rational(denominator):
    return st.builds(
        lambda neg, part: "-" * neg + part, st.booleans(), _part(denominator)
    )


def _irrational(denominator):
    return st.builds(
        lambda sign, part: f"{sign}{part}*r5", st.sampled_from("+-"), _part(denominator)
    )


denominators = st.none() | _digits(1)
zero_digits = st.integers(1, 3).map(lambda k: "0" * k)
#: scalar texts as a file may hold them: parts not in lowest terms, -0,
#: zero over a denominator, leading zeros
scalar_texts = st.builds(
    lambda r, i: r + (i or ""),
    _rational(denominators),
    st.none() | _irrational(denominators),
)
#: the same with a zero denominator ("0", "00", ...) in one part or both
zero_denominator_texts = st.one_of(
    st.builds(
        lambda r, i: r + (i or ""),
        _rational(zero_digits),
        st.none() | _irrational(denominators | zero_digits),
    ),
    st.builds(lambda r, i: r + i, _rational(denominators), _irrational(zero_digits)),
)


class TestScalarText:
    @given(scalar_texts)
    @example("10/4+6/8*r5")
    @example("-0")
    @example("0/5")
    @example("-0-0/7*r5")
    @example("007/014+03*r5")
    def test_parse_matches_the_fraction_reference(self, text):
        x = parse_scalar(text)
        ref = fraction_parse(text)
        assert (x.p, x.q, x.d) == (ref.p, ref.q, ref.d)
        assert canonical(x)

    @given(zero_denominator_texts)
    @example("1/0")
    @example("0/0-1/000*r5")
    def test_zero_denominator_is_rejected(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)
        with pytest.raises(ValueError, match="zero denominator"):
            fraction_parse(text)

    @pytest.mark.parametrize("text", ["1/0", "1+2/0*r5"])
    def test_zero_denominator_in_a_file_names_its_line(self, text):
        entries = " ".join(["1", "0", "0", "0", "1", "0", "0", "0", text])
        doc = f"group octahedral\ncircle C\ndecorate C = matrix {entries}\n"
        with pytest.raises(SldParseError, match="zero denominator") as exc:
            parse(doc)
        assert exc.value.line == 3

    @given(any_scalars)
    def test_format_matches_the_fraction_reference(self, x):
        assert format_scalar(x) == fraction_format(x)


class TestIntegerCore:
    @given(any_scalars, any_scalars)
    def test_ring_operations_match_the_fraction_pair_reference(self, x, y):
        rx, ry = FractionPair.of(x), FractionPair.of(y)
        for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry)):
            assert canonical(got)
            assert FractionPair.of(got) == want
        assert FractionPair.of(-x) == FractionPair(-rx.a, -rx.b)

    @given(any_scalars.filter(lambda x: not x.is_zero()))
    def test_inverse_matches_the_reference(self, x):
        inv = x.inverse()
        assert canonical(inv)
        assert FractionPair.of(inv) == FractionPair.of(x).inverse()

    @given(any_scalars, any_scalars)
    def test_sign_and_order_match_the_reference(self, x, y):
        assert x.sign() == FractionPair.of(x).sign()
        diff = (FractionPair.of(x) - FractionPair.of(y)).sign()
        assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)

    @given(any_scalars)
    def test_rational_parts(self, x):
        assert (x.a, x.b) == (Fraction(x.p, x.d), Fraction(x.q, x.d))
        assert ExactScalar(x.a, x.b) == x

    @given(any_scalars, wide_rationals.filter(lambda f: f != 0))
    def test_equal_values_have_equal_fields(self, x, k):
        # the same value reached through a detour: scale by k, then by 1/k
        y = x * ExactScalar.of(k) * ExactScalar.of(1 / k)
        assert canonical(x) and canonical(y)
        assert (y.p, y.q, y.d) == (x.p, x.q, x.d)
        assert hash(y) == hash(x)

    def test_zero_is_canonical(self):
        assert (q(0).p, q(0).q, q(0).d) == (0, 0, 1)
        assert q(3, 5) - q(3, 5) == q(0)

    def test_immutable_and_picklable(self):
        x = q(Fraction(1, 4), Fraction(-3, 4))
        with pytest.raises(AttributeError):
            x.p = 5
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x


def _matrices(entries):
    return st.lists(entries, min_size=9, max_size=9).map(
        lambda e: Matrix3((tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9])))
    )


class TestMatrixKernel:
    @settings(max_examples=40)
    @given(_matrices(any_scalars), _matrices(any_scalars))
    def test_product_matches_the_entrywise_formula(self, m, n):
        a, b = m.rows, n.rows
        want = tuple(
            tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3))
            for i in range(3)
        )
        assert (m * n).rows == want
        assert all(canonical(e) for row in (m * n).rows for e in row)

    @settings(max_examples=40)
    @given(_matrices(st.one_of(st.just(q(0)), quarter_scalars)), _matrices(quarter_scalars))
    def test_zero_factors_are_skipped_exactly(self, m, n):
        assert (m * n).rows == tuple(
            tuple(sum((m.rows[i][k] * n.rows[k][j] for k in range(3)), q(0)) for j in range(3))
            for i in range(3)
        )

    def test_preset_products_build_no_fraction(self, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        octahedral = octahedral_group().elements
        icosahedral = icosahedral_group().elements
        monkeypatch.setattr(linkrep.field, "Fraction", CountingFraction)
        for group in (octahedral, icosahedral):
            for g in group[:12]:
                for h in group[-12:]:
                    g * h
        assert built == []

    def test_identity_is_built_once(self):
        assert Matrix3.identity() is Matrix3.identity()
        assert RotationElement.identity() is RotationElement.identity()
        assert RotationElement.identity().m is Matrix3.identity()
        assert Matrix3.identity() == Matrix3.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestMatrixOps:
    def test_identity_is_neutral(self):
        m = Matrix3.of([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
        assert Matrix3.identity() * m == m

    def test_det_diag(self):
        assert Matrix3.of([[1, 0, 0], [0, -1, 0], [0, 0, -1]]).det() == q(1)

    def test_transpose_involutive(self):
        m = Matrix3.of([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.transpose().transpose() == m

    def test_det_multiplicative_on_orthogonal_samples(self):
        from linkrep.rotation import octahedral_group

        sample = octahedral_group().elements[::5]
        for g in sample:
            for h in sample:
                assert (g.m * h.m).det() == g.m.det() * h.m.det()


class TestAxisLine:
    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            AxisLine.of(0, 0, 0)

    def test_canonicalization_idempotent(self):
        v = AxisLine.of(Fraction(-2, 3), Fraction(4, 3), 0)
        assert AxisLine(v.direction) == v
        assert v.direction == Vector3.of(1, -2, 0)

    def test_scale_invariance_including_negative(self):
        base = AxisLine.of(0, 6, -9)
        for lam in (Fraction(2), Fraction(-1), Fraction(7, 3), Fraction(-5, 11)):
            scaled = AxisLine(base.direction.scale(ExactScalar.of(lam)))
            assert scaled == base

    def test_irrational_direction_canonicalizes(self):
        phi = ExactScalar.golden_ratio()
        one = q(1)
        v = AxisLine(Vector3(phi, phi * phi, phi))
        w = AxisLine(Vector3(one, phi, one))
        assert v == w

    @given(
        st.tuples(
            st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
        ).filter(lambda t: any(t)),
        st.fractions(max_denominator=7, min_value=Fraction(-9), max_value=Fraction(9))
        .filter(lambda f: f != 0),
    )
    def test_canon_of_scaled_equals_canon(self, coords, lam):
        v = Vector3.of(*coords)
        assert AxisLine(v.scale(ExactScalar.of(lam))) == AxisLine(v)


class TestPredicates:
    def test_perpendicular(self):
        assert is_perpendicular(AxisLine.of(0, 1, 1), AxisLine.of(0, 1, -1))
        assert not is_perpendicular(AxisLine.of(0, 1, 1), AxisLine.of(0, 1, 1))
        assert is_perpendicular(AxisLine.of(1, 1, 0), AxisLine.of(1, -1, 0))

    def test_angle_pi_over_4(self):
        # 2 (u.v)^2 = (u.u)(v.v): 2 * 1 = 1 * 2
        assert is_angle_pi_over_4(AxisLine.of(0, 0, 1), AxisLine.of(0, 1, 1))
        assert not is_angle_pi_over_4(AxisLine.of(0, 0, 1), AxisLine.of(0, 0, 1))
        # unsigned-line angle: the sign of the z component must not matter
        assert is_angle_pi_over_4(AxisLine.of(0, 0, 1), AxisLine.of(0, 1, -1))

    def test_coplanar(self):
        u = AxisLine.of(0, 1, 1)
        v = AxisLine.of(0, 1, -1)
        w = AxisLine.of(0, 0, 1)
        assert is_coplanar(u, v, w)
        assert not is_coplanar(
            AxisLine.of(1, 0, 0), AxisLine.of(0, 1, 0), AxisLine.of(0, 0, 1)
        )

    def test_coplanar_linear_dependence(self):
        u = AxisLine.of(1, 2, 3)
        v = AxisLine.of(4, 5, 6)
        s = AxisLine(u.direction + v.direction)
        assert is_coplanar(u, v, s)

    @given(vectors, vectors, any_scalars, any_scalars, st.booleans())
    def test_triple_product_matches_the_determinant(self, u, v, a, b, dependent):
        # half the draws put w in the plane of u and v
        w = u.scale(a) + v.scale(b) if dependent else Vector3(a, b, a * b)
        det = ref.det((u.components(), v.components(), w.components()))
        ints = [linkrep.field._int_coords(x) for x in (u, v, w)]
        assert linkrep.field._sign(*linkrep.field._int_triple(*ints)) == det.sign()
        if not any(x.is_zero() for x in (u, v, w)):
            assert is_coplanar(AxisLine(u), AxisLine(v), AxisLine(w)) == det.is_zero()
