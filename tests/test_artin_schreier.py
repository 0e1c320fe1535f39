"""Classification of x^p - x - a over F_p(t), t-adic."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from maclane import (
    INF,
    ASCase,
    BaseField,
    FFPoly,
    FiniteField,
    Polynomial,
    artin_schreier_polynomial,
    classify,
    enumerate_extensions,
    ff_factor,
    improve_witness,
    max_of_S,
    parse_element,
    parse_polynomial,
    split_residual,
)

F2T = BaseField.rational_functions(2)
F3T = BaseField.rational_functions(3)


def elem(base, s):
    return parse_element(base, s)


class TestPolynomial:
    def test_shape(self):
        F = artin_schreier_polynomial(F3T, elem(F3T, "t"))
        assert F.degree() == 3
        assert F.is_monic()
        assert F(F3T.zero()) == -F3T.t()

    def test_needs_function_field(self):
        with pytest.raises(ValueError):
            artin_schreier_polynomial(BaseField.rationals(2), 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_is_x_to_the_p_minus_x_minus_a(self, p):
        base = BaseField.rational_functions(p)
        x = Polynomial.x(base)
        for text in ("0", "1", "t", "1/t^3+2", "(t+1)/(t^2+t+1)"):
            a = elem(base, text)
            assert artin_schreier_polynomial(base, a) == x ** p - x - Polynomial.constant(a)


class TestSplitResidual:
    def test_full_splitting(self):
        fbar, factors = split_residual(3)
        assert str(fbar) == "y^3+2*y"
        assert [str(h) for h, _ in factors] == ["y", "y+1", "y+2"]
        assert all(m == 1 for _, m in factors)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_factoring(self, p):
        gfp = FiniteField.of(p, 1)
        y = FFPoly.y(gfp)
        fbar, factors = split_residual(p)
        _, expected = ff_factor(y ** p - y)
        assert fbar == y ** p - y
        assert len(factors) == len(expected) == p
        for (h, m), (g, n) in zip(factors, expected):
            assert h == g and m == n


class TestClassify:
    # rows: (base, a, case, e, f, g, improvements, final witness)
    TABLE = [
        (F2T, "t", ASCase.SplitP, 1, 1, 2, 0, "0"),
        (F2T, "1/t", ASCase.RamifiedP, 2, 1, 1, 0, "0"),
        (F2T, "1", ASCase.InertP, 1, 2, 1, 0, "0"),
        (F2T, "1/t^2", ASCase.RamifiedP, 2, 1, 1, 1, "1/t"),
        (F2T, "1/t^4", ASCase.RamifiedP, 2, 1, 1, 2, "(t+1)/t^2"),
        (F3T, "t", ASCase.SplitP, 1, 1, 3, 0, "0"),
        (F3T, "1/t", ASCase.RamifiedP, 3, 1, 1, 0, "0"),
        (F3T, "1", ASCase.InertP, 1, 3, 1, 0, "0"),
        (F3T, "1/t^3", ASCase.RamifiedP, 3, 1, 1, 1, "1/t"),
        (F3T, "1/t^9", ASCase.RamifiedP, 3, 1, 1, 2, "(t^2+1)/t^3"),
    ]

    @pytest.mark.parametrize("base,a,case,e,f,g,improvements,witness", TABLE)
    def test_table(self, base, a, case, e, f, g, improvements, witness):
        r = classify(base, elem(base, a))
        assert r.case is case
        assert (r.e, r.f, r.g) == (e, f, g)
        assert r.e * r.f * r.g == base.p
        assert r.improvements == improvements
        assert str(r.witness) == witness

    def test_split_details(self):
        r = classify(F2T, elem(F2T, "t"))
        assert r.w == 1
        assert r.split_factors == ("y", "y+1")
        assert r.residual is None
        assert r.defect == 1

    def test_inert_residual(self):
        r2 = classify(F2T, elem(F2T, "1"))
        assert r2.residual == "y^2+y+1"
        r3 = classify(F3T, elem(F3T, "1"))
        assert r3.residual == "y^3+2*y+2"

    def test_ramified_value(self):
        r = classify(F3T, elem(F3T, "1/t"))
        assert r.w == -1
        assert r.defect == 1

    def test_trace_strictly_increases(self):
        r = classify(F3T, elem(F3T, "1/t^9"))
        ws = [w for _, w in r.trace]
        assert ws == [-9, -3, -1]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            classify(F2T, elem(F2T, "0"))

    def test_base_must_be_function_field(self):
        with pytest.raises(ValueError):
            classify(BaseField.rationals(3), 1)

    def test_long_improvement_chain(self):
        # sum of t^(-2j), j = 1..40: 20 improvements, past the old cap of 16
        a = elem(F2T, "+".join(f"1/t^{2 * j}" for j in range(1, 41)))
        r = classify(F2T, a)
        assert r.case is ASCase.RamifiedP
        assert r.w == -39
        assert (r.e, r.f, r.g, r.defect) == (2, 1, 1, 1)
        assert r.improvements == 20
        assert max_of_S(r) == (Fraction(-39, 2), r.witness)


class TestOneEvaluationPerStep:
    @pytest.mark.parametrize("i", range(0, 48, 5))
    def test_f_of_b_once_per_step(self, monkeypatch, i):
        p, text, _, _ = AS_INPUTS[i]
        base = BaseField.rational_functions(p)
        calls = []
        evaluate = Polynomial.__call__
        monkeypatch.setattr(Polynomial, "__call__", lambda f, b: calls.append(b) or evaluate(f, b))
        r = classify(base, elem(base, text))
        assert len(calls) == r.improvements + 1
        assert [b for b, _ in r.trace] == calls


class TestImproveWitness:
    def test_one_step(self):
        b1 = improve_witness(F3T, elem(F3T, "1/t^3"), F3T.zero())
        assert str(b1) == "1/t"

    def test_rejects_nonnegative_value(self):
        with pytest.raises(ValueError):
            improve_witness(F2T, elem(F2T, "t"), F2T.zero())
        with pytest.raises(ValueError):
            improve_witness(F2T, elem(F2T, "0"), F2T.zero())

    def test_rejects_value_prime_to_p(self):
        with pytest.raises(ValueError):
            improve_witness(F2T, elem(F2T, "1/t"), F2T.zero())


class TestMaxOfS:
    def test_ramified(self):
        r = classify(F2T, elem(F2T, "1/t"))
        v, b = max_of_S(r)
        assert v == Fraction(-1, 2)
        assert b == F2T.zero()

    def test_after_improvement(self):
        r = classify(F3T, elem(F3T, "1/t^3"))
        v, b = max_of_S(r)
        assert v == Fraction(-1, 3)
        assert str(b) == "1/t"

    def test_inert(self):
        r = classify(F2T, elem(F2T, "1"))
        assert max_of_S(r) == (Fraction(0), F2T.zero())

    def test_split_unbounded(self):
        r = classify(F2T, elem(F2T, "t"))
        with pytest.raises(ValueError):
            max_of_S(r)


class TestJson:
    def test_report_shape(self):
        r = classify(F3T, elem(F3T, "1/t^3"))
        d = r.to_json()
        json.dumps(d)
        assert d["case"] == "ramified-p"
        assert d["p"] == 3
        assert d["witness"] == "1/t"
        assert d["w"] == "-1"
        assert d["trace"] == [["0", "-3"], ["1/t", "-1"]]
        assert d["residual"] is None and d["split_factors"] is None

    def test_split_json(self):
        d = classify(F2T, elem(F2T, "t")).to_json()
        assert d["case"] == "split-p"
        assert d["split_factors"] == ["y", "y+1"]


# -- an independent oracle: inputs whose case is known by construction --------

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)

AS_INPUTS = [bench_inputs.as_case(1, i) for i in range(48)]


def _oracle_params():
    """Every input: split, inert and ramified."""
    return [pytest.param(i, id=f"{i}-{case}-p{p}") for i, (p, _, case, _) in enumerate(AS_INPUTS)]


class TestOracle:
    @pytest.mark.parametrize("i", range(len(AS_INPUTS)))
    def test_case_and_improvement_bound(self, i):
        p, text, case, w = AS_INPUTS[i]
        base = BaseField.rational_functions(p)
        a = elem(base, text)
        r = classify(base, a)
        assert r.case.value == case
        if w is not None:
            assert r.w == w
        assert r.improvements <= max(0, -int(base.valuation(a)) // p)

    @pytest.mark.parametrize("i", _oracle_params())
    def test_enumeration_agrees(self, i):
        p, text, _, _ = AS_INPUTS[i]
        base = BaseField.rational_functions(p)
        r = classify(base, elem(base, text))
        survey = enumerate_extensions(base, parse_polynomial(base, f"x^{p}-x-({text})"))
        assert sorted((b.e, b.f) for b in survey.reports) == [(r.e, r.f)] * r.g
