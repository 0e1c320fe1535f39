"""Univariate polynomials, q-expansions, and the expression parser."""

import random
from fractions import Fraction

import pytest

from maclane import (
    BaseField, FFPoly, FiniteField, Polynomial, parse_element, parse_polynomial, q_expansion,
)

B2 = BaseField.rationals(2)
B5 = BaseField.rationals(5)
F2T = BaseField.rational_functions(2)
F3T = BaseField.rational_functions(3)
GF8 = FiniteField.of(2, 3)


def poly(field, *ints):
    return Polynomial.from_ints(field, list(ints))


class TestConstruction:
    def test_trimming(self):
        assert poly(B2, 1, 2, 0, 0).degree() == 1
        assert Polynomial.zero(B2).degree() == -1

    def test_classmethods(self):
        assert Polynomial.x(B2).degree() == 1
        assert Polynomial.one(B2).is_constant()
        assert str(Polynomial.x(B5)) == "x"

    def test_predicates(self):
        f = poly(B5, 2, 0, 1)
        assert f.is_monic()
        assert not poly(B5, 1, 2).is_monic()
        assert f.leading() == B5.one()
        assert f.constant_coeff() == B5.from_int(2)
        assert f.coeff(17).is_zero()


class TestArithmetic:
    def test_ring_ops(self):
        f = poly(B5, 1, 1)
        g = poly(B5, 4, 0, 1)
        assert (f + g) - g == f
        assert f * g == g * f
        assert f ** 3 == f * f * f
        assert (f * g).degree() == 3

    def test_char_p_coefficients(self):
        f = poly(F2T, 1, 1)
        assert (f + f).is_zero()
        assert (f * f) == poly(F2T, 1, 0, 1)  # freshman's dream

    def test_divmod_monic(self):
        f = poly(B5, 3, 2, 0, 1)
        q = poly(B5, 1, 1)
        quo, rem = divmod(f, q)
        assert quo * q + rem == f
        assert rem.degree() < q.degree()

    def test_divmod_requires_monic(self):
        with pytest.raises(ValueError):
            divmod(poly(B5, 1, 1), poly(B5, 1, 2))
        with pytest.raises(ZeroDivisionError):
            divmod(poly(B5, 1, 1), Polynomial.zero(B5))

    def test_no_mixed_classes(self):
        gf2 = FiniteField.of(2)
        with pytest.raises(ValueError):
            Polynomial.x(B2) + FFPoly.y(gf2)
        with pytest.raises(ValueError):
            FFPoly.y(gf2) * Polynomial.x(B2)
        # even over the same field the two classes stay apart
        with pytest.raises(ValueError):
            Polynomial.x(gf2) + FFPoly.y(gf2)
        with pytest.raises(ValueError):
            FFPoly(gf2, (Polynomial.one(gf2),))

    def test_evaluate(self):
        f = poly(B5, 1, 0, 1)
        assert f(B5.from_int(2)) == B5.from_int(5)

    def test_derivative(self):
        f = poly(B5, 7, 0, 3)
        assert f.derivative() == poly(B5, 0, 6)
        g = poly(F2T, 1, 0, 1)  # x^2 + 1 in char 2
        assert g.derivative().is_zero()

    def test_gcd(self):
        f = poly(B5, 1, 1) * poly(B5, 2, 1)
        g = poly(B5, 1, 1) * poly(B5, 3, 1)
        assert f.gcd(g) == poly(B5, 1, 1)

    def test_monic(self):
        f = poly(B5, 2, 4)
        assert f.monic().is_monic()
        assert f.monic() == parse_polynomial(B5, "x + 1/2")


def _gf8(*cs):
    g = GF8.gen()
    return FFPoly(GF8, tuple(GF8.zero() if c is None else g ** c for c in cs))


class TestPrinting:
    @pytest.mark.parametrize("f, text", [
        (parse_polynomial(B2, "3/2*x^2 - x + 1"), "(3/2)*x^2-x+1"),
        (parse_polynomial(B2, "-3/2*x"), "(-3/2)*x"),
        (parse_polynomial(F2T, "t^2*x"), "t^2*x"),
        (parse_polynomial(F2T, "(t+1)*x^2 + x/t"), "(t+1)*x^2+(1/t)*x"),
        (_gf8(0, 2), "(g^2)*y+1"),
        (_gf8(1, None, 0) + FFPoly.y(GF8) * FFPoly(GF8, (GF8.gen() + 1,)), "y^2+(g+1)*y+g"),
    ])
    def test_coefficient_parentheses(self, f, text):
        assert str(f) == text


class TestQExpansion:
    def test_round_trip_fixed(self):
        f = parse_polynomial(B2, "x^5+3*x^2+7")
        q = parse_polynomial(B2, "x^2+1")
        ex = q_expansion(f, q)
        assert ex.reassemble() == f
        assert all(d.degree() < q.degree() for d in ex.digits)
        assert not ex.digits[-1].is_zero()

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            field = rng.choice([B2, B5, F2T, F3T])
            f = Polynomial.from_ints(field, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 9))])
            if f.is_zero():
                continue
            qd = rng.randrange(1, 4)
            q = Polynomial.from_ints(field, [rng.randrange(-9, 10) for _ in range(qd)] + [1])
            ex = q_expansion(f, q)
            assert ex.reassemble() == f
            assert all(d.degree() < q.degree() for d in ex.digits)

    def test_exact_power(self):
        q = parse_polynomial(B2, "x^2+2")
        ex = q_expansion(q ** 3, q)
        assert [str(d) for d in ex.digits] == ["0", "0", "0", "1"]

    def test_errors(self):
        q = parse_polynomial(B2, "x^2+1")
        with pytest.raises(ValueError):
            q_expansion(Polynomial.zero(B2), q)
        with pytest.raises(ValueError):
            q_expansion(q, Polynomial.one(B2))
        with pytest.raises(ValueError):
            q_expansion(q, parse_polynomial(B2, "2*x+1"))


class TestParser:
    def test_basic(self):
        assert parse_polynomial(B5, "x^2+3*x+2") == poly(B5, 2, 3, 1)
        assert parse_polynomial(B5, "-x") == poly(B5, 0, -1)
        assert parse_polynomial(B5, "7") == poly(B5, 7)

    def test_precedence(self):
        assert parse_polynomial(B5, "2*x^3") == poly(B5, 0, 0, 0, 2)
        assert parse_polynomial(B5, "(x+1)^2") == poly(B5, 1, 2, 1)
        assert parse_polynomial(B5, "2+3*4") == poly(B5, 14)
        assert parse_polynomial(B5, "-x^2") == poly(B5, 0, 0, -1)

    def test_rational_coefficients(self):
        f = parse_polynomial(B2, "x^2/4 + 1/2")
        assert f.leading() == B2.from_fraction(Fraction(1, 4))
        assert f.constant_coeff() == B2.from_fraction(Fraction(1, 2))
        assert parse_polynomial(B2, "3^-2") == Polynomial.constant(B2.from_fraction(Fraction(1, 9)))

    def test_t_in_function_field(self):
        f = parse_polynomial(F2T, "x^2 + x/t + 1/t^2")
        assert str(f.coeff(1)) == "1/t"
        with pytest.raises(ValueError):
            parse_polynomial(B2, "t*x")

    def test_division_only_by_constants(self):
        with pytest.raises(ValueError):
            parse_polynomial(B2, "1/x")
        with pytest.raises(ValueError):
            parse_polynomial(F2T, "t/(x+1)")

    def test_negative_power_needs_constant(self):
        with pytest.raises(ValueError):
            parse_polynomial(B2, "x^-1")
        with pytest.raises(ValueError):
            parse_polynomial(F2T, "0^-1")

    def test_trailing_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial(B2, "x+1)")
        with pytest.raises(ValueError):
            parse_polynomial(B2, "")

    @pytest.mark.parametrize("field, text", [
        (B2, "x^1001"),
        (F2T, "t^-1001"),
        (B2, "(x^2+1)^501"),
    ])
    def test_exponent_bound(self, field, text):
        with pytest.raises(ValueError, match="bound"):
            parse_polynomial(field, text)

    def test_exponent_at_bound(self):
        assert parse_polynomial(B2, "x^1000") == Polynomial.x(B2) ** 1000

    @pytest.mark.parametrize("field, text", [
        (B2, "x^1000*x^1000"),
        (B2, "x^500*x^501"),
        (F2T, "(t^999)^999"),
        (F2T, "(1/(t^11+1))^-91"),
        (F3T, "(t^3*x)^334"),
        (B2, "(2^999)^999"),
        (B2, "(x+2^300)^300"),
        (B5, "(1/3^999)^999"),
        (B2, "((2^999)^999)^999"),
    ])
    def test_size_bound(self, field, text):
        with pytest.raises(ValueError, match="bound"):
            parse_polynomial(field, text)

    def test_size_at_bound(self):
        assert parse_polynomial(B2, "x^500*x^500") == Polynomial.x(B2) ** 1000
        u = F2T.t() ** 10 + 1
        assert parse_polynomial(F2T, "(t^10)^100") == Polynomial.constant(F2T.t() ** 1000)
        assert parse_polynomial(F2T, "(1/(t^10+1))^-100") == Polynomial.constant(u ** 100)
        # 2^99 has 100 bits, and 100 * 99 = 9900 is within MAX_BITS
        assert parse_polynomial(B2, "(x+2^99)^99") == (Polynomial.x(B2) + 2 ** 99) ** 99

    def test_str_parse_round_trip(self):
        rng = random.Random(11)
        for _ in range(150):
            field = rng.choice([B2, B5, F2T, F3T])
            f = Polynomial.from_ints(field, [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 6))])
            assert parse_polynomial(field, str(f)) == f

    def test_fpt_coefficient_round_trip(self):
        f = parse_polynomial(F3T, "x^2*(t+1)/t + x*2 + 1/t^2")
        assert parse_polynomial(F3T, str(f)) == f

    def test_parse_element(self):
        a = parse_element(F2T, "(t+1)/t^2")
        assert F2T.valuation(a) == -2
        with pytest.raises(ValueError):
            parse_element(F2T, "x+1")
