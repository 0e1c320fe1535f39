"""Inductive valuation chains: evaluation, keys, augmentation, graded reduction."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclane import (
    INF,
    BaseField,
    FFPoly,
    FiniteField,
    InvariantError,
    MacLaneChain,
    Polynomial,
    enumerate_extensions,
    format_value,
    newton_polygon,
    parse_polynomial,
)
from maclane import ffield

B2 = BaseField.rationals(2)
B3 = BaseField.rationals(3)
B5 = BaseField.rationals(5)
F2T = BaseField.rational_functions(2)


def pol(field, s):
    return parse_polynomial(field, s)


def chain(field, s):
    return MacLaneChain.parse(field, s)


class TestConstruction:
    def test_gauss(self):
        g = MacLaneChain.gauss(B2)
        assert len(g.stages) == 1
        assert g.minimal_key() == Polynomial.x(B2)
        assert g.last_value() == 0
        assert not g.is_support()
        assert g.support_generator() is None

    def test_stage_one_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            MacLaneChain.stage_one(B2, pol(B2, "x^2+1"), 0)
        with pytest.raises(ValueError):
            MacLaneChain.stage_one(B2, pol(B2, "2*x"), 0)
        with pytest.raises(ValueError):
            MacLaneChain.stage_one(B2, pol(B3, "x"), 0)

    def test_stage_one_inf(self):
        c = MacLaneChain.stage_one(B2, pol(B2, "x"), INF)
        assert c.is_support()
        assert c.support_generator() == pol(B2, "x")

    def test_from_pairs_and_parse_agree(self):
        pairs = [(pol(B2, "x"), Fraction(1, 2)), (pol(B2, "x^2+2"), Fraction(3, 2))]
        assert MacLaneChain.from_pairs(B2, pairs) == chain(B2, "x:1/2; x^2+2:3/2")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            MacLaneChain.parse(B2, "x:0; ; x+2:1")
        with pytest.raises(ValueError):
            MacLaneChain.parse(B2, "x")
        with pytest.raises(ValueError):
            MacLaneChain.from_pairs(B2, [])

    def test_str_parse_round_trip(self):
        cases = [
            (B5, "x:0"),
            (B2, "x:1/2; x^2+2:3/2"),
            (B5, "x+1:1"),
            (B3, "x:0; x^2+1:inf"),
        ]
        for base, text in cases:
            c = chain(base, text)
            assert MacLaneChain.parse(base, str(c)) == c

    def test_same_degree_key_replaces_last_stage(self):
        c = chain(B2, "x:0; x+2:1")
        assert len(c.stages) == 1
        assert c.minimal_key() == pol(B2, "x+2")
        assert c.last_value() == 1

    def test_same_degree_replacement_at_stage_two(self):
        c = chain(B2, "x:1/2; x^2+2:3/2; x^2+2*x+2:2")
        assert len(c.stages) == 2
        assert c.minimal_key() == pol(B2, "x^2+2*x+2")

    def test_inf_only_at_the_end(self):
        c = chain(B3, "x:0; x^2+1:inf")
        with pytest.raises(ValueError):
            MacLaneChain(B3, tuple(reversed(c.stages)))

    def test_stage_must_sit_on_its_own_prefix(self):
        # a stage's memoized values hold only above the prefix it was built on
        a = chain(B2, "x:1/2; x^2+2:3/2")
        with pytest.raises(ValueError):
            MacLaneChain(B2, (chain(B2, "x:1").stages[0], a.stages[1]))
        with pytest.raises(ValueError):
            MacLaneChain(B2, a.stages[1:])
        assert MacLaneChain(B2, a.stages[:1]) == chain(B2, "x:1/2")

    def test_eq_hash(self):
        a = chain(B2, "x:1/2")
        b = MacLaneChain.stage_one(B2, pol(B2, "x"), Fraction(1, 2))
        assert a == b and hash(a) == hash(b)
        assert a != chain(B2, "x:1")
        assert a != chain(B3, "x:1/2")

    def test_repr_mentions_stages(self):
        assert "x:1/2" in repr(chain(B2, "x:1/2"))


class TestValuate:
    def test_gauss_is_min_of_coefficient_valuations(self):
        g = MacLaneChain.gauss(B2)
        assert g.valuate(pol(B2, "4*x^2+6*x+8")) == 1
        assert g.valuate(pol(B2, "x+3")) == 0

    def test_zero_maps_to_inf(self):
        assert MacLaneChain.gauss(B2).valuate(Polynomial.zero(B2)) is INF

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            MacLaneChain.gauss(B2).valuate(pol(B3, "x"))

    def test_stage_one_fractional(self):
        c = chain(B2, "x:1/2")
        f = pol(B2, "x^2+2")
        assert c.valuate(f) == 1
        assert c.valuate(pol(B2, "x^3")) == Fraction(3, 2)

    def test_stage_two(self):
        c = chain(B2, "x:1/2; x^2+2:3/2")
        assert c.valuate(pol(B2, "x^2+2")) == Fraction(3, 2)
        assert c.valuate(pol(B2, "x^4+4")) == 3
        assert c.valuate(pol(B2, "x")) == Fraction(1, 2)

    def test_support_chain(self):
        c = chain(B3, "x:0; x^2+1:inf")
        assert c.valuate(pol(B3, "x^2+1")) is INF
        assert c.valuate(pol(B3, "x^4+2*x^2+1")) is INF
        assert c.valuate(pol(B3, "x^2+4")) == 1

    def test_inf_stage_one_evaluates_at_zero(self):
        c = MacLaneChain.stage_one(B2, pol(B2, "x"), INF)
        assert c.valuate(pol(B2, "x")) is INF
        assert c.valuate(pol(B2, "x^2+x+6")) == 1

    def test_function_field(self):
        c = chain(F2T, "x:1/2")
        assert c.valuate(pol(F2T, "x^2+t")) == 1
        assert c.valuate(pol(F2T, "x^2+t^3")) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_axioms_on_random_pairs(self, data):
        c = chain(B2, "x:1/2; x^2+2:3/2")
        cs = st.lists(st.integers(-8, 8), min_size=1, max_size=5)
        f = Polynomial.from_ints(B2, data.draw(cs))
        g = Polynomial.from_ints(B2, data.draw(cs))
        vf, vg = c.valuate(f), c.valuate(g)
        assert c.valuate(f * g) == (INF if INF in (vf, vg) else vf + vg)
        if not (f + g).is_zero():
            assert c.valuate(f + g) >= min(vf, vg)


class TestTruncate:
    def test_s_set_tracks_the_slope(self):
        f = pol(B2, "x^2+2")
        x = pol(B2, "x")
        below = MacLaneChain.gauss(B2).truncate(x, f)
        assert below.value == 0 and below.s_set == frozenset({2})
        at = chain(B2, "x:1/2").truncate(x, f)
        assert at.value == 1 and at.s_set == frozenset({0, 2})
        above = chain(B2, "x:1").truncate(x, f)
        assert above.value == 1 and above.s_set == frozenset({0})
        assert above.term_values == (Fraction(1), INF, Fraction(2))

    def test_rejects_bad_arguments(self):
        g = MacLaneChain.gauss(B2)
        with pytest.raises(ValueError):
            g.truncate(pol(B2, "x"), Polynomial.zero(B2))
        with pytest.raises(ValueError):
            g.truncate(pol(B2, "2*x"), pol(B2, "x"))
        with pytest.raises(ValueError):
            g.truncate(pol(B2, "3"), pol(B2, "x"))


class TestExpansionMemo:
    def test_sibling_chains_keep_their_own_answers(self):
        # two augmentations of one chain object share its Stage, and so its memo
        prefix = chain(B2, "x:1/2")
        key = pol(B2, "x^2+2")
        a, b = prefix.augment(key, Fraction(3, 2)), prefix.augment(key, 2)
        assert a.stages[0] is b.stages[0] is prefix.stages[0]
        fs = [pol(B2, "x^4+4*x^2+20"), pol(B2, "x^5+2*x^3+x^2+6")]
        qs = [key, pol(B2, "x^3")]

        def answers(c):
            return [(c.valuate(f), c.truncate(q, f), newton_polygon(c, q, f))
                    for f in fs for q in qs]

        first_a, first_b, again_a = answers(a), answers(b), answers(a)
        assert first_a == again_a == answers(chain(B2, "x:1/2; x^2+2:3/2"))
        assert first_b == answers(chain(B2, "x:1/2; x^2+2:2"))
        assert (a.valuate(fs[0]), b.valuate(fs[0])) == (3, 4)
        assert newton_polygon(a, qs[1], fs[1]) != newton_polygon(b, qs[1], fs[1])

    def test_enumeration_expands_each_pair_once_per_prefix(self, monkeypatch):
        calls = []
        for name in ("chains", "newton", "approach"):
            mod = importlib.import_module(f"maclane.{name}")
            if hasattr(mod, "q_expansion"):
                real = mod.q_expansion
                monkeypatch.setattr(mod, "q_expansion",
                                    lambda f, q, _real=real: calls.append((f, q)) or _real(f, q))
        survey = enumerate_extensions(B2, pol(B2, "((x^2+x+1)^2+2)^2+4*x"))
        assert sum(r.e * r.f for r in survey.reports) == 8
        # one expansion per (f, key) and stage prefix; without the memo it is 310
        assert 0 < len(calls) < 100

    def test_enumeration_tests_each_key_once(self, monkeypatch):
        f = pol(B2, "((x^2+x+1)^2+2)^2+4*x")
        enumerate_extensions(B2, f)     # builds the residue fields, which test moduli
        tests, reductions = [], []
        real_test, real_reduce = ffield.is_irreducible, MacLaneChain.reduce
        monkeypatch.setattr(ffield, "is_irreducible", lambda g: tests.append(g) or real_test(g))
        monkeypatch.setattr(MacLaneChain, "reduce",
                            lambda c, g: reductions.append(g) or real_reduce(c, g))
        survey = enumerate_extensions(B2, f)
        assert sum(r.e * r.f for r in survey.reports) == 8
        # one residual test per key above its chain's last key degree: x^2+x+1 at
        # x:0, one key at the second stage and two at the third.  Testing in
        # is_key_polynomial and again in the stage build made it 10 and 13.
        assert [str(g) for g in tests] == ["y^2+y+1", "y+g", "y+g", "y+g"]
        assert len(reductions) <= 7

    def test_enumeration_reduces_each_pair_once(self, monkeypatch):
        f = pol(B2, "((x^2+x+1)^2+2)^2+4*x")
        calls, computed = [], []
        real_reduce, real_reduction = MacLaneChain.reduce, MacLaneChain._reduction
        monkeypatch.setattr(MacLaneChain, "reduce",
                            lambda c, g: calls.append((str(c), g)) or real_reduce(c, g))
        monkeypatch.setattr(MacLaneChain, "_reduction", lambda c, g, s: computed.append(
            (c.stages[s - 1], g, s == len(c.stages))) or real_reduction(c, g, s))
        survey = enumerate_extensions(B2, f)
        assert sum(r.e * r.f for r in survey.reports) == 8
        # 7 reduce calls on 6 distinct (chain, f) pairs: graded_factorization
        # reduces f on x:0; x^2+x+1:1/2; x^4+2*x^3+3*x^2+4*x+1:5/4, and the
        # "f is key" test reduces it again there
        assert (len(calls), len(set(calls))) == (7, 6)
        assert calls.count(("x:0; x^2+x+1:1/2; x^4+2*x^3+3*x^2+4*x+1:5/4", f)) == 2
        assert sum(top for _, _, top in computed) == 6
        # the digits reduced below the last stage are computed once per (stage, g) too
        assert len(computed) == len({(st_, g) for st_, g, _ in computed})


class TestGradedRing:
    def test_units_at_gauss(self):
        g = MacLaneChain.gauss(B2)
        # nonconstant residuals are never invertible, so x+1 is not a unit here
        assert not g.is_unit_in_graded(pol(B2, "x+1"))
        assert g.is_unit_in_graded(pol(B2, "3"))
        assert not g.is_unit_in_graded(pol(B2, "x"))
        assert not g.is_unit_in_graded(pol(B2, "x+2"))

    def test_units_after_augmenting_past_the_cutoff(self):
        c = chain(B2, "x:1/2")
        assert c.is_unit_in_graded(pol(B2, "x+1"))
        assert not c.is_unit_in_graded(pol(B2, "x^2+2"))

    def test_unit_errors(self):
        g = MacLaneChain.gauss(B2)
        with pytest.raises(ValueError):
            g.is_unit_in_graded(Polynomial.zero(B2))
        c = chain(B3, "x:0; x^2+1:inf")
        with pytest.raises(ValueError):
            c.is_unit_in_graded(pol(B3, "x^2+1"))

    def test_support_initial_forms_are_units(self):
        c = chain(B3, "x:0; x^2+1:inf")
        assert c.is_unit_in_graded(pol(B3, "x"))
        assert c.is_unit_in_graded(pol(B3, "x^2+4"))

    def test_divides(self):
        c = chain(B2, "x:1/2")
        x = pol(B2, "x")
        assert c.divides_in_graded(x, pol(B2, "x^3"))
        assert not c.divides_in_graded(x, pol(B2, "x^2+2"))
        with pytest.raises(ValueError):
            c.divides_in_graded(pol(B2, "x^2+3*x+2"), x)


class TestKeyPolynomials:
    def test_gauss_keys(self):
        g2 = MacLaneChain.gauss(B2)
        assert g2.is_key_polynomial(pol(B2, "x"))
        assert g2.is_key_polynomial(pol(B2, "x^2+x+1"))
        assert not g2.is_key_polynomial(pol(B2, "x^2+3*x+2"))
        assert not g2.is_key_polynomial(pol(B2, "2*x"))

    def test_residual_must_be_irreducible(self):
        g5 = MacLaneChain.gauss(B5)
        assert not g5.is_key_polynomial(pol(B5, "x^2+1"))
        assert g5.is_key_polynomial(pol(B5, "x+2"))

    def test_value_and_divisibility_conditions(self):
        c = chain(B2, "x:1/2")
        assert c.is_key_polynomial(pol(B2, "x^2+2"))
        assert not c.is_key_polynomial(pol(B2, "x^2+4"))
        assert not c.is_key_polynomial(pol(B2, "x^2+x"))

    def test_degree_must_be_a_multiple(self):
        c = chain(B2, "x:1/2; x^2+2:3/2")
        assert not c.is_key_polynomial(pol(B2, "x^3+2"))
        assert c.is_key_polynomial(pol(B2, "x^2+2*x+2"))

    def test_support_has_no_keys(self):
        c = chain(B3, "x:0; x^2+1:inf")
        with pytest.raises(ValueError):
            c.is_key_polynomial(pol(B3, "x"))


class TestAugment:
    def test_rejects_non_keys(self):
        with pytest.raises(ValueError):
            MacLaneChain.gauss(B2).augment(pol(B2, "x^2+3*x+2"), 2)

    def test_value_must_increase(self):
        g = MacLaneChain.gauss(B2)
        with pytest.raises(ValueError):
            g.augment(pol(B2, "x+1"), 0)
        with pytest.raises(ValueError):
            g.augment(pol(B2, "x+1"), Fraction(-1, 3))

    def test_support_cannot_grow(self):
        c = chain(B3, "x:0; x^2+1:inf")
        with pytest.raises(ValueError):
            c.augment(pol(B3, "x"), 5)

    def test_augment_to_inf(self):
        c = chain(B3, "x:0").augment(pol(B3, "x^2+1"), INF)
        assert c.is_support()
        assert c.valuate(pol(B3, "x^2+1")) is INF

    def test_proper_degree_growth(self):
        c = chain(B2, "x:1/2; x^2+2:3/2")
        k = FiniteField.of(2, 1)
        F = c.lift_residual(FFPoly.from_ints(k, [1, 1, 1]))
        assert F.degree() == 4
        assert c.is_key_polynomial(F)
        assert c.valuate(F) == 3
        c3 = c.augment(F, 4)
        assert len(c3.stages) == 3
        assert c3.ramification_index() == 2
        assert c3.inertia_degree() == 2

    def test_monotone_growth(self):
        g = MacLaneChain.gauss(B2)
        c = g.augment(pol(B2, "x"), Fraction(1, 2))
        rng = random.Random(11)
        for _ in range(40):
            f = Polynomial.from_ints(B2, [rng.randrange(-9, 10) for _ in range(4)])
            if f.is_zero():
                continue
            assert c.valuate(f) >= g.valuate(f)


class TestInvariants:
    def test_ramification_and_inertia(self):
        assert chain(B2, "x:1/2; x^2+2:3/2").ramification_index() == 2
        assert chain(B2, "x:1/2; x^2+2:3/2").inertia_degree() == 1
        c = chain(B2, "x:0; x^2+x+1:1")
        assert c.ramification_index() == 1
        assert c.inertia_degree() == 2
        assert c.residue_constant_field() is FiniteField.of(2, 2)
        both = chain(B2, "x:0; x^2+x+1:3/2")
        assert both.ramification_index() == 2
        assert both.inertia_degree() == 2

    def test_support_chain_invariants(self):
        c = chain(B3, "x:0; x^2+1:inf")
        assert c.ramification_index() == 1
        assert c.inertia_degree() == 2


class TestReduceLift:
    def test_frozen_reductions(self):
        g5 = MacLaneChain.gauss(B5)
        fbar, i0, j0, v = g5.reduce(pol(B5, "x^2+1"))
        assert (str(fbar), i0, j0, v) == ("y^2+1", 0, 0, 0)
        c1 = chain(B2, "x:1/2")
        fbar, i0, j0, v = c1.reduce(pol(B2, "x^2+2"))
        assert (str(fbar), i0, j0, v) == ("y+1", 0, 1, 1)
        c2 = chain(B2, "x:1/2; x^2+2:3/2")
        fbar, i0, j0, v = c2.reduce(pol(B2, "x^4+4"))
        assert (str(fbar), i0, j0, v) == ("y^2+1", 0, 6, 3)

    def test_frozen_lifts(self):
        c2 = chain(B2, "x:1/2; x^2+2:3/2")
        k = FiniteField.of(2, 1)
        h = FFPoly.from_ints(k, [1, 1])
        assert c2.lift_residual(h) == pol(B2, "x^2+2*x+2")
        assert c2.lift_residual(h, s=1) == pol(B2, "x^2+2")

    def test_lift_with_explicit_exponents(self):
        c1 = chain(B2, "x:1/2")
        k = FiniteField.of(2, 1)
        assert c1.lift_residual(FFPoly.one(k), 1, 0) == pol(B2, "x")
        fbar, i0, j0, v = c1.reduce(pol(B2, "x"))
        assert (str(fbar), i0, j0, v) == ("1", 1, 0, Fraction(1, 2))

    def test_round_trip_stage_one(self):
        c = chain(B2, "x:1/2")
        k = c.residue_constant_field()
        rng = random.Random(5)
        for _ in range(30):
            h = FFPoly.from_ints(k, [rng.randrange(2) for _ in range(rng.randrange(1, 5))])
            if h.is_zero():
                continue
            fbar, i0, j0, _ = c.reduce(c.lift_residual(h))
            assert fbar == h and i0 == 0

    def test_round_trip_residue_tower(self):
        c = chain(B2, "x:0; x^2+x+1:1")
        k4 = c.residue_constant_field()
        w, one = k4.gen(), k4.one()
        h = FFPoly(k4, (w, one, one))
        F = c.lift_residual(h)
        assert c.is_key_polynomial(F)
        fbar, i0, j0, v = c.reduce(F)
        assert fbar == h and i0 == 0 and v == c.valuate(F)

    def test_round_trip_tower_random(self):
        c = chain(B2, "x:0; x^2+x+1:1")
        k4 = c.residue_constant_field()
        elems = list(k4.elements())
        rng = random.Random(17)
        for _ in range(25):
            cs = [elems[rng.randrange(len(elems))] for _ in range(rng.randrange(1, 4))]
            h = FFPoly(k4, tuple(cs))
            if h.is_zero():
                continue
            fbar, _, _, _ = c.reduce(c.lift_residual(h))
            assert fbar == h

    def test_errors(self):
        c = chain(B2, "x:1/2")
        with pytest.raises(ValueError):
            c.reduce(Polynomial.zero(B2))
        sup = chain(B3, "x:0; x^2+1:inf")
        with pytest.raises(ValueError):
            sup.reduce(pol(B3, "x"))
        k = FiniteField.of(2, 1)
        with pytest.raises(ValueError):
            sup.lift_residual(FFPoly.one(k))
        with pytest.raises(ValueError):
            c.lift_residual(FFPoly.zero(k))
        with pytest.raises(ValueError):
            c.lift_residual(FFPoly.one(FiniteField.of(3, 1)))


class TestCompare:
    def test_incomparable(self):
        a = chain(B2, "x:2")
        b = chain(B2, "x+2:2")
        assert a.compare(b) == "incomparable"

    def test_le(self):
        g = MacLaneChain.gauss(B2)
        c = chain(B2, "x:1")
        assert g.compare(c) == "le"
        assert c.compare(g) == "ge"

    def test_equal_for_distinct_chains(self):
        # x+2:1 has value min(v(2), 1) = 1 on x, and x:1 has 1 on x+2
        a = chain(B2, "x:1")
        b = chain(B2, "x+2:1")
        assert a != b
        assert a.compare(b) == "equal"

    def test_support_chains(self):
        sup = chain(B2, "x:1/2; x^2+2:inf")
        assert chain(B2, "x:1/2").compare(sup) == "le"
        assert chain(B2, "x:1/2; x^2+2:3").compare(sup) == "le"
        assert sup.compare(sup) == "equal"
        assert sup.compare(chain(B2, "x:1/2; x^2+6:inf")) == "incomparable"

    @pytest.mark.parametrize("a, b", [
        ("x:1", "x:1/2; x^2+2:2"),
        ("x:1/2; x^2+2:2", "x:1/2; x^2+6:2"),
        ("x:1/2; x^2+2:3", "x:1/2; x^2+6:3"),
        ("x:0; x^2+x+1:5/2", "x+1:1/2"),
        ("x:0", "x:0; x^2+x+1:5/2"),
        ("x+3:2", "x+1:1"),
    ])
    def test_agrees_with_values_on_keys(self, a, b):
        # the verdict matches a pointwise comparison on a sample that holds
        # every key of both chains plus a few more polynomials
        mu, nu = chain(B2, a), chain(B2, b)
        sample = [st.key for st in mu.stages + nu.stages]
        sample += [pol(B2, s) for s in ("x", "x+1", "x^2+2", "x^3+x+1", "x^4+4*x+2")]
        le = all(mu.valuate(f) <= nu.valuate(f) for f in sample)
        ge = all(nu.valuate(f) <= mu.valuate(f) for f in sample)
        verdict = {(True, True): "equal", (True, False): "le",
                   (False, True): "ge", (False, False): "incomparable"}[le, ge]
        assert mu.compare(nu) == verdict
        assert nu.compare(mu) == {"le": "ge", "ge": "le"}.get(verdict, verdict)

    def test_errors(self):
        a = chain(B2, "x:1")
        with pytest.raises(ValueError):
            a.compare(chain(B3, "x:1"))
