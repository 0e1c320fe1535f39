"""Base fields, values with infinity, and exact element arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclane import (
    INF, BaseField, FFPoly, FiniteField, Polynomial, classify, format_value, fppoly, parse_element,
    parse_value,
)
from maclane.base import vmul


class TestInfinity:
    def test_ordering(self):
        assert INF > Fraction(10**9)
        assert INF >= INF
        assert not INF < Fraction(-5)
        assert Fraction(1, 2) < INF
        assert INF == INF
        assert INF != Fraction(0)

    def test_absorbing_addition(self):
        assert INF + Fraction(3) is INF
        assert Fraction(-7, 2) + INF is INF
        assert INF + INF is INF

    def test_negation_rejected(self):
        with pytest.raises(ValueError):
            -INF

    def test_repr(self):
        assert repr(INF) == "inf"


class TestVmul:
    def test_finite(self):
        assert vmul(3, Fraction(1, 2)) == Fraction(3, 2)
        assert vmul(0, Fraction(5)) == 0

    def test_infinite(self):
        assert vmul(2, INF) is INF

    def test_zero_times_inf_rejected(self):
        with pytest.raises(ValueError):
            vmul(0, INF)


class TestValueParsing:
    def test_round_trip(self):
        for s in ("0", "3/2", "-7", "-11/64", "inf"):
            assert format_value(parse_value(s)) == s

    def test_whitespace(self):
        assert parse_value(" 1/2 ") == Fraction(1, 2)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_value("a/b")


class TestBaseFieldConstruction:
    def test_rationals(self):
        b = BaseField.rationals(5)
        assert b.kind == "Q"
        assert b.p == 5
        assert str(b) == "Q(v_5)"

    def test_rational_functions(self):
        b = BaseField.rational_functions(3)
        assert b.kind == "Fpt"
        assert str(b) == "F_3(t)"

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            BaseField.rationals(6)
        with pytest.raises(ValueError):
            BaseField.rational_functions(1)

    def test_equality_and_hash(self):
        assert BaseField.rationals(2) == BaseField.rationals(2)
        assert BaseField.rationals(2) != BaseField.rationals(3)
        assert BaseField.rationals(2) != BaseField.rational_functions(2)
        assert hash(BaseField.rationals(7)) == hash(BaseField.rationals(7))


class TestPadicValuation:
    def setup_method(self):
        self.b = BaseField.rationals(2)

    def test_integers(self):
        assert self.b.valuation(self.b.from_int(8)) == 3
        assert self.b.valuation(self.b.from_int(12)) == 2
        assert self.b.valuation(self.b.from_int(7)) == 0

    def test_fractions(self):
        assert self.b.valuation(self.b.from_fraction(Fraction(3, 4))) == -2
        assert self.b.valuation(self.b.from_fraction(Fraction(1, 6))) == -1

    def test_zero(self):
        assert self.b.valuation(self.b.zero()) is INF

    def test_residue(self):
        assert self.b.residue(self.b.from_int(7)) == 1
        b3 = BaseField.rationals(3)
        # 5/7 = 5 * 7^(-1) mod 3 = 2 * 1 = 2
        assert b3.residue(b3.from_fraction(Fraction(5, 7))) == 2

    def test_residue_needs_value_zero(self):
        with pytest.raises(ValueError):
            self.b.residue(self.b.from_int(4))

    def test_lift_residue(self):
        assert self.b.lift_residue(5) == self.b.from_int(1)


class TestTadicValuation:
    def setup_method(self):
        self.b = BaseField.rational_functions(3)

    def test_polynomials(self):
        t = self.b.t()
        assert self.b.valuation(t) == 1
        assert self.b.valuation(t * t + t) == 1
        assert self.b.valuation(self.b.from_int(2)) == 0

    def test_rational_functions(self):
        t = self.b.t()
        assert self.b.valuation(self.b.one() / t) == -1
        assert self.b.valuation((t + self.b.one()) / (t * t)) == -2

    def test_zero(self):
        assert self.b.valuation(self.b.zero()) is INF

    def test_residue(self):
        t = self.b.t()
        a = (t + self.b.from_int(2)) / (t + self.b.one())
        assert self.b.residue(a) == 2

    def test_uniformizer(self):
        assert self.b.valuation(self.b.uniformizer()) == 1
        b2 = BaseField.rationals(2)
        assert b2.uniformizer() == b2.from_int(2)


class TestElemArithmetic:
    def test_q_field_ops(self):
        b = BaseField.rationals(5)
        a = b.from_fraction(Fraction(3, 2))
        c = b.from_int(4)
        assert (a + c) - c == a
        assert a * c / c == a
        assert (a * a.inverse()) == b.one()
        assert a ** -2 == (a * a).inverse()

    def test_fpt_field_ops(self):
        b = BaseField.rational_functions(2)
        t = b.t()
        a = (t + b.one()) / t
        assert a * t == t + b.one()
        assert a * a.inverse() == b.one()
        assert (a - a).is_zero()
        assert a ** 3 == a * a * a

    def test_fpt_canonical_form(self):
        # (t^2 + t) / t and t + 1 must compare equal
        b = BaseField.rational_functions(2)
        t = b.t()
        lhs = (t * t + t) / t
        rhs = t + b.one()
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    def test_char_p_addition(self):
        b = BaseField.rational_functions(3)
        assert (b.from_int(2) + b.from_int(1)).is_zero()

    def test_division_by_zero(self):
        b = BaseField.rationals(2)
        with pytest.raises(ZeroDivisionError):
            b.one() / b.zero()
        with pytest.raises(ZeroDivisionError):
            b.zero().inverse()

    def test_cross_field_mixing_rejected(self):
        b2 = BaseField.rationals(2)
        b3 = BaseField.rationals(3)
        with pytest.raises(ValueError):
            b2.one() + b3.one()

    def test_str_fpt(self):
        b = BaseField.rational_functions(2)
        t = b.t()
        assert str((t + b.one()) / t) == "(t+1)/t"
        assert str(t * t) == "t^2"


Q3 = BaseField.rationals(3)
# integral values often, including huge ones, and fractions with small denominators
q_values = st.one_of(st.integers(-10 ** 30, 10 ** 30).map(Fraction), st.integers(-9, 9).map(Fraction),
                     st.fractions(max_denominator=60))


def assert_q_payload(elem, ref):
    """elem has the value ref, and its payload is an int exactly when ref is
    integral, a Fraction otherwise, and never a float."""
    assert elem.field is Q3
    assert not isinstance(elem.payload, float)
    assert type(elem.payload) is (int if ref.denominator == 1 else Fraction)
    assert elem.payload == ref


class TestQPayload:
    """The Q payload against a Fraction reference (see the base module docstring)."""

    @settings(max_examples=300, deadline=None)
    @given(q_values, q_values, st.integers(-5, 5), st.integers(-20, 20))
    def test_arithmetic_matches_fraction(self, a, b, e, n):
        A, B = Q3.from_fraction(a), Q3.from_fraction(b)
        assert_q_payload(A, a)
        cases = [(A + B, a + b), (A - B, a - b), (A * B, a * b), (-A, -a),
                 (A + n, a + n), (n - A, n - a), (A * n, a * n)]
        if b:
            cases += [(A / B, a / b), (B.inverse(), 1 / b), (n / B, n / b)]
        if a or e >= 0:
            cases.append((A ** e, a ** e))
        for elem, ref in cases:
            assert_q_payload(elem, ref)

    def test_integral_results_of_fraction_operands(self):
        half = Q3.from_fraction(Fraction(1, 2))
        for elem, ref in [(half + half, 1), (half * 6, 3), (half - Q3.from_fraction(Fraction(5, 2)), -2),
                          (Q3.from_fraction(Fraction(1, 5)).inverse(), 5), (half ** -3, 8),
                          (Q3.from_int(7).inverse(), Fraction(1, 7)), (Q3.from_int(-1).inverse(), -1),
                          (Q3.from_int(4) / 8, Fraction(1, 2)), (Q3.from_int(2) ** -2, Fraction(1, 4))]:
            assert_q_payload(elem, Fraction(ref))

    def test_equal_values_are_one_dict_key(self):
        three = [Q3.from_int(3), Q3.from_fraction(Fraction(6, 2)), Q3.from_fraction(3),
                 parse_element(Q3, "6/2"), parse_element(Q3, "9/3")]
        polys = [Polynomial.constant(e) for e in three]
        for e in three:
            assert_q_payload(e, Fraction(3))
        for a in three + polys + [3]:
            assert hash(a) == hash(3)
            assert {e: "v" for e in three}.get(a) == "v"
            assert {p: "v" for p in polys}.get(a) == "v"
            assert all(a == b for b in three + polys)
        assert {Q3.from_fraction(Fraction(1, 2)): "v"}.get(parse_element(Q3, "2/4")) == "v"

    @pytest.mark.parametrize("F", [Q3, BaseField.rational_functions(3), FiniteField.of(3),
                                   FiniteField.of(3, 2)], ids=str)
    @pytest.mark.parametrize("n", [2.5, 2.0, Fraction(1, 2), Fraction(2), "2", None])
    def test_from_int_takes_only_ints(self, F, n):
        with pytest.raises(ValueError, match="expected an int"):
            F.from_int(n)

    @pytest.mark.parametrize("q", [0.1, 2.0, "1/2", None])
    def test_from_fraction_takes_only_ints_and_fractions(self, q):
        with pytest.raises(ValueError, match="expected an int or a Fraction"):
            Q3.from_fraction(q)

    def test_bool_is_an_int(self):
        assert_q_payload(Q3.from_int(True), Fraction(1))
        assert_q_payload(Q3.from_fraction(False), Fraction(0))


@st.composite
def fpt_quotients(draw):
    """p, then numerator and denominator coefficient lists over F_p with
    zeros at both ends; the denominator is nonzero and may carry t + 1."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def coeffs(nonzero):
        body = st.lists(st.integers(0, p - 1), min_size=1, max_size=5)
        if nonzero:
            body = body.filter(any)
        low = draw(st.integers(0, 4))
        high = draw(st.integers(0, 2))
        return [0] * low + draw(body) + [0] * high

    num, den = coeffs(False), coeffs(True)
    if draw(st.booleans()):
        den = list(fppoly.mul(fppoly.trim(den, p), (1, 1), p))
    if draw(st.booleans()):
        common = fppoly.trim(coeffs(True), p)
        num = list(fppoly.mul(fppoly.trim(num, p), common, p))
        den = list(fppoly.mul(fppoly.trim(den, p), common, p))
    return p, num, den


class TestNormalForm:
    """The F_p(t) payload checked by F_p[t] arithmetic alone."""

    @staticmethod
    def build(b, cs):
        t = b.t()
        out = b.zero()
        for i, c in enumerate(cs):
            out = out + b.from_int(c) * t ** i
        return out

    @settings(max_examples=200, deadline=None)
    @given(fpt_quotients())
    def test_reduced_pair_with_monic_denominator(self, case):
        p, num, den = case
        b = BaseField.rational_functions(p)
        n, d = (self.build(b, num) / self.build(b, den)).payload
        N, D = fppoly.trim(num, p), fppoly.trim(den, p)
        assert fppoly.mul(n, D, p) == fppoly.mul(N, d, p)
        assert d and d[-1] == 1
        assert fppoly.gcd(n, d, p) == (1,)

    @staticmethod
    def count_gcds(monkeypatch):
        calls = []
        gcd = fppoly.gcd

        def counted(a, b, p):
            calls.append((a, b))
            return gcd(a, b, p)

        monkeypatch.setattr(fppoly, "gcd", counted)
        return calls

    def test_laurent_arithmetic_runs_no_gcd(self, monkeypatch):
        b = BaseField.rational_functions(3)
        calls = self.count_gcds(monkeypatch)
        a = parse_element(b, "t^10+2*t^9+2*t^8+2*t^6+t^5+2*t^4+t^2+2/t+1/t^3")
        classify(b, a)
        assert calls == []

    def test_general_denominator_runs_gcd(self, monkeypatch):
        b = BaseField.rational_functions(3)
        calls = self.count_gcds(monkeypatch)
        assert (b.t() + 1).inverse() * (b.t() + 1) == b.one()
        assert len(calls) >= 1


class TestInterning:
    def test_one_field_per_kind_and_prime(self):
        assert BaseField.rationals(2) is BaseField.of("Q", 2)
        assert BaseField.rational_functions(3) is BaseField.of("Fpt", 3)
        fields = [BaseField.of(kind, p) for kind in ("Q", "Fpt") for p in (2, 3, 5)]
        assert len({id(f) for f in fields}) == 6

    @pytest.mark.parametrize("kind, p", [("R", 2), ("Q", 4), ("Fpt", 1)])
    def test_of_rejects_bad_arguments(self, kind, p):
        with pytest.raises(ValueError):
            BaseField.of(kind, p)

    def test_kind_is_read_only(self):
        with pytest.raises(AttributeError):
            BaseField.of("Q", 2).kind = "Fpt"

    @pytest.mark.parametrize("a, b", [
        (BaseField.rationals(2).one(), BaseField.rationals(3).one()),
        (BaseField.rational_functions(2).t(), BaseField.rational_functions(3).t()),
        (BaseField.rationals(2).one(), BaseField.rational_functions(2).one()),
        (FiniteField.of(2, 2).gen(), FiniteField.of(2, 3).gen()),
        (FiniteField.of(2).one(), BaseField.rational_functions(2).one()),
    ])
    def test_mixing_fields_raises(self, a, b):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="element/field mismatch"):
                op(a, b)
            with pytest.raises(ValueError, match="element/field mismatch"):
                op(b, a)


class TestHashMatchesEquality:
    """An element equal to an int hashes like it, so dict lookups agree."""

    FIELDS = [BaseField.rational_functions(2), FiniteField.of(3), FiniteField.of(2, 2)]

    @pytest.mark.parametrize("F", FIELDS, ids=str)
    def test_constant_elements(self, F):
        for c in range(F.p):
            e = F.from_int(c)
            assert e == c and hash(e) == hash(c)
        assert {F.one(): "v"}.get(1) == "v"
        assert {1: "v"}.get(F.one()) == "v"

    @pytest.mark.parametrize("F", FIELDS + [BaseField.rationals(3)], ids=str)
    def test_constant_polynomials(self, F):
        cls = FFPoly if isinstance(F, FiniteField) else Polynomial
        one = cls.one(F)
        assert one == 1 and hash(one) == hash(1)
        assert {one: "v"}.get(1) == "v"
        assert hash(cls.zero(F)) == hash(0)
        assert hash(cls.constant(F.one())) == hash(F.one())

    @pytest.mark.parametrize("F", [BaseField.rational_functions(3), FiniteField.of(3),
                                   FiniteField.of(2, 2)], ids=str)
    def test_ints_outside_range_p_are_not_equal(self, F):
        # from_int reduces mod p, but only 0, ..., p-1 may equal an element,
        # since an element hashes like the one int it equals
        one = F.one()
        cls = FFPoly if isinstance(F, FiniteField) else Polynomial
        for n in (F.p + 1, 1 - F.p, -1 - F.p, 1 + 10 * F.p):
            assert one != n and cls.one(F) != n
            assert {one: "v"}.get(n) is None and {n: "v"}.get(one) is None
        assert F.zero() != F.p and cls.zero(F) != F.p and F.from_int(-1) != -1
        assert F.from_int(-1) == F.p - 1 and cls.constant(F.from_int(-1)) == F.p - 1

    def test_q_equals_every_int(self):
        Q = BaseField.rationals(3)
        for n in (-7, -1, 0, 4, 10 ** 30):
            assert Q.from_int(n) == n and Polynomial.constant(Q.from_int(n)) == n
            assert {Q.from_int(n): "v"}.get(n) == "v"
        assert Q.from_int(4) != 1 and Polynomial.x(Q) != 0

    def test_other_elements_keep_the_payload_hash(self):
        t = BaseField.rational_functions(2).t()
        assert hash(t) == hash(t.payload)
        g = FiniteField.of(2, 2).gen()
        assert hash(g) == hash(g.payload)
