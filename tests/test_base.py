"""Base fields, values with infinity, and exact element arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclane import INF, BaseField, FiniteField, classify, format_value, fppoly, parse_element, parse_value
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
