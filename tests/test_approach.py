"""Approach sets, graded factorization, and extension branch enumeration."""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from maclane import (
    INF,
    BaseField,
    MacLaneChain,
    Polynomial,
    augment_toward,
    already_maximal,
    count_extensions_lower_bound,
    enumerate_extensions,
    graded_factorization,
    in_VF,
    max_augmentation_value,
    parse_polynomial,
)
from maclane import approach

B2 = BaseField.rationals(2)
B3 = BaseField.rationals(3)
B5 = BaseField.rationals(5)
F2T = BaseField.rational_functions(2)
F3T = BaseField.rational_functions(3)


def pol(field, s):
    return parse_polynomial(field, s)


def chain(field, s):
    return MacLaneChain.parse(field, s)


class TestMembership:
    def test_sharp_cutoff(self):
        f = pol(B2, "x^2+2")
        x = pol(B2, "x")
        g = MacLaneChain.gauss(B2)
        assert in_VF(g, f)
        assert in_VF(g.augment(x, Fraction(1, 64)), f)
        assert in_VF(g.augment(x, Fraction(1, 2)), f)
        assert not in_VF(g.augment(x, Fraction(33, 64)), f)

    def test_already_maximal_is_the_complement(self):
        f = pol(B2, "x^2+2")
        for text in ("x:0", "x:1/2", "x:33/64"):
            c = chain(B2, text)
            assert already_maximal(c, f) == (not in_VF(c, f))

    def test_support_member_is_maximal(self):
        c = chain(B2, "x:1/2; x^2+2:inf")
        f = pol(B2, "x^2+2")
        assert in_VF(c, f)
        assert already_maximal(c, f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            in_VF(MacLaneChain.gauss(B2), Polynomial.zero(B2))


class TestMaxAugmentation:
    def test_first_slope(self):
        g = MacLaneChain.gauss(B2)
        x = pol(B2, "x")
        assert max_augmentation_value(g, x, pol(B2, "x^2+2")) == Fraction(1, 2)
        assert max_augmentation_value(g, x, pol(B2, "x^3+8")) == 1

    def test_literal_divisor_gives_inf(self):
        g = MacLaneChain.gauss(B2)
        x = pol(B2, "x")
        assert max_augmentation_value(g, x, pol(B2, "x^3+2*x")) is INF

    def test_requires_graded_divisibility(self):
        g = MacLaneChain.gauss(B2)
        with pytest.raises(ValueError):
            max_augmentation_value(g, pol(B2, "x"), pol(B2, "x+1"))

    def test_augment_toward_increases_the_value(self):
        g = MacLaneChain.gauss(B2)
        f = pol(B2, "x^2+2")
        c = augment_toward(g, f)
        assert c == chain(B2, "x:1/2")
        assert c.valuate(f) == 1
        c2 = augment_toward(c, f)
        assert c2.is_support()

    def test_augment_toward_rejects_maximal_chains(self):
        f = pol(B2, "x^2+2")
        with pytest.raises(ValueError):
            augment_toward(chain(B2, "x:33/64"), f)
        with pytest.raises(ValueError):
            augment_toward(chain(B2, "x:1/2; x^2+2:inf"), f)


class TestGradedFactorization:
    def test_key_reached(self):
        s = graded_factorization(chain(B3, "x:0"), pol(B3, "x^2+1"))
        assert s.value == 0 and not s.is_unit
        assert len(s.entries) == 1
        e = s.entries[0]
        assert e.factor == "y^2+1"
        assert e.key == pol(B3, "x^2+1")
        assert e.multiplicity == 1
        assert e.proposed_value is INF
        assert not e.is_current_key

    def test_key_power_part(self):
        s = graded_factorization(chain(B2, "x:0"), pol(B2, "x^2+2"))
        assert len(s.entries) == 1
        e = s.entries[0]
        assert (e.factor, e.multiplicity, e.is_current_key) == ("y", 2, True)
        assert e.key == pol(B2, "x")
        assert e.proposed_value == Fraction(1, 2)

    def test_after_augmenting(self):
        s = graded_factorization(chain(B2, "x:1/2"), pol(B2, "x^2+2"))
        assert [e.factor for e in s.entries] == ["y+1"]
        assert s.entries[0].proposed_value is INF
        assert s.value == 1

    def test_normalizer_exponent_counts_into_key_part(self):
        # in(x) = in(key)^1 times a unit at this chain, seen through i0
        s = graded_factorization(chain(B2, "x:1/2"), pol(B2, "x"))
        assert s.i0 == 1 and s.j0 == 0
        assert len(s.entries) == 1
        e = s.entries[0]
        assert (e.factor, e.multiplicity, e.is_current_key) == ("y", 1, True)
        assert e.proposed_value is INF

    def test_split_residual_gives_two_entries(self):
        s = graded_factorization(chain(B5, "x:0"), pol(B5, "x^2+1"))
        assert [e.factor for e in s.entries] == ["y+2", "y+3"]
        assert all(e.proposed_value == 1 and e.multiplicity == 1 for e in s.entries)

    def test_units_have_no_entries(self):
        s = graded_factorization(chain(B2, "x:33/64"), pol(B2, "x^2+2"))
        assert s.is_unit and s.entries == ()

    def test_support_chain_rejected(self):
        with pytest.raises(ValueError):
            graded_factorization(chain(B2, "x:1/2; x^2+2:inf"), pol(B2, "x"))

    def test_json_shape(self):
        s = graded_factorization(chain(B2, "x:0"), pol(B2, "x^2+2"))
        d = s.to_json()
        json.dumps(d)
        assert d["normalizer"] == {"key_exp": 0, "unif_exp": 0, "unit": "1"}
        assert d["entries"][0]["proposed_value"] == "1/2"
        assert d["is_unit"] is False


def branch_summaries(survey):
    return [(str(r.chain), r.terminal, r.reason, r.e, r.f) for r in survey.reports]


class TestEnumerate:
    def test_split_case(self):
        sv = enumerate_extensions(B5, pol(B5, "x^2+1"))
        assert branch_summaries(sv) == [
            ("x+2:1", True, "stabilized", 1, 1),
            ("x+3:1", True, "stabilized", 1, 1),
        ]
        assert count_extensions_lower_bound(sv) == 2
        assert all(r.rounds == 2 for r in sv.reports)

    def test_inert_case(self):
        sv = enumerate_extensions(B3, pol(B3, "x^2+1"))
        assert branch_summaries(sv) == [
            ("x:0; x^2+1:inf", True, "support", 1, 2),
        ]

    def test_ramified_case(self):
        sv = enumerate_extensions(B2, pol(B2, "x^2+2"))
        assert branch_summaries(sv) == [
            ("x:1/2; x^2+2:inf", True, "support", 2, 1),
        ]

    def test_inert_shortcut(self):
        sv = enumerate_extensions(B3, pol(B3, "x^2+7"))
        assert branch_summaries(sv) == [
            ("x:0; x^2+7:inf", True, "support", 1, 2),
        ]

    def test_two_sides_two_branches(self):
        sv = enumerate_extensions(F2T, pol(F2T, "x^2+x+t"))
        assert branch_summaries(sv) == [
            ("x:1", True, "stabilized", 1, 1),
            ("x:0", True, "stabilized", 1, 1),
        ]
        assert all(r.rounds == 1 for r in sv.reports)

    def test_negative_slope_seed(self):
        sv = enumerate_extensions(F2T, pol(F2T, "x^2+x+1/t"))
        assert branch_summaries(sv) == [
            ("x:-1/2; x^2+x+1/t:inf", True, "support", 2, 1),
        ]

    def test_key_replacement_before_support(self):
        sv = enumerate_extensions(F2T, pol(F2T, "x^2+x+1/t^2"))
        assert branch_summaries(sv) == [
            ("x+1/t:-1/2; x^2+x+1/t^2:inf", True, "support", 2, 1),
        ]
        assert sv.reports[0].rounds == 3

    def test_cubic_splits_into_three(self):
        sv = enumerate_extensions(F3T, pol(F3T, "x^3+2*x+2*t"))
        assert branch_summaries(sv) == [
            ("x:1", True, "stabilized", 1, 1),
            ("x+1:1", True, "stabilized", 1, 1),
            ("x+2:1", True, "stabilized", 1, 1),
        ]

    def test_degree_one_leaf(self):
        sv = enumerate_extensions(B2, pol(B2, "x+3"))
        assert branch_summaries(sv) == [("x+3:inf", True, "support", 1, 1)]

    def test_sum_ef_bounded_by_degree(self):
        for base, text in [
            (B5, "x^2+1"), (B3, "x^2+1"), (B2, "x^2+2"),
            (F2T, "x^2+x+t"), (F3T, "x^3+2*x+2*t"),
        ]:
            f = pol(base, text)
            sv = enumerate_extensions(base, f)
            assert sum(r.e * r.f for r in sv.reports) <= f.degree()

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(approach, "MAX_DEPTH", 1)
        sv = enumerate_extensions(B5, pol(B5, "x^2+1"))
        assert branch_summaries(sv) == [("x:0", False, "budget-exhausted", 1, 1)]
        assert not all(r.terminal for r in sv.reports)
        assert sv.to_json()["budget"] == 1

    def test_shape_requirements(self):
        with pytest.raises(ValueError):
            enumerate_extensions(B2, pol(B2, "2*x"))
        with pytest.raises(ValueError):
            enumerate_extensions(B2, pol(B2, "7"))

    def test_dot_export(self):
        sv = enumerate_extensions(B5, pol(B5, "x^2+1"))
        dot = sv.tree.to_dot()
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "->" in dot
        assert dot.count("peripheries=2") == 2
        assert "x+2:1" in dot

    def test_survey_json(self):
        sv = enumerate_extensions(B2, pol(B2, "x^2+2"))
        d = sv.to_json()
        json.dumps(d)
        assert d["count_lower_bound"] == 1
        assert d["all_terminal"] is True
        assert d["sum_ef"] == 2
        br = d["branches"][0]
        assert br["reason"] == "support"
        assert br["stages"] == [["x", "1/2"], ["x^2+2", "inf"]]


class TestEveryPrincipalSide:
    """A lifted key is augmented at every principal side of f's polygon in it,
    and at inf first when it divides f, so sum e*f = deg f."""

    @pytest.mark.parametrize("base, text, ef", [
        (B5, "x^5+50*x-1", [(1, 1), (4, 1)]),
        (B2, "(x^2+2)*(x^2+6)", [(2, 1), (2, 1)]),
        (F2T, "x^4+t^3*x^3+(t^3+1)*x^2+t^3*x+1", [(1, 2), (1, 2)]),
    ], ids=["shallower-side", "key-divides-f", "key-divides-f-fpt"])
    def test_fundamental_equality(self, base, text, ef):
        f = pol(base, text)
        sv = enumerate_extensions(base, f)
        assert all(r.terminal for r in sv.reports)
        assert sorted((r.e, r.f) for r in sv.reports) == ef
        assert sum(e * f_ for e, f_ in ef) == f.degree()

    def test_shallower_side(self):
        # f(x+4) over Q_5 has sides of slopes -1 and -1/4 in x+4
        sv = enumerate_extensions(B5, pol(B5, "x^5+50*x-1"))
        assert [label for _, _, label in sv.tree.edges][1:3] == ["y+4 -> 1", "y+4 -> 1/4"]

    def test_divisor_key_then_cofactor(self):
        sv = enumerate_extensions(B2, pol(B2, "(x^2+2)*(x^2+6)"))
        assert branch_summaries(sv) == [
            ("x:1/2; x^2+2:inf", True, "support", 2, 1),
            ("x:1/2; x^2+2:2", True, "stabilized", 2, 1),
        ]


class TestSquarefreeContract:
    """enumerate_extensions takes monic squarefree f, reducible or not, and
    rejects a repeated factor at the support node that would certify it."""

    @pytest.mark.parametrize("base, text, ef", [
        (B2, "x^2+3*x+2", [(1, 1), (1, 1)]),
        (F3T, "(x+2)*(x^2+t)", [(1, 1), (2, 1)]),
        (B2, "x*(x^2+3)", [(1, 1), (1, 2)]),
    ], ids=["two-rational-roots", "fpt-product", "x-times-inert"])
    def test_certified_products(self, base, text, ef):
        f = pol(base, text)
        sv = enumerate_extensions(base, f)
        assert all(r.terminal for r in sv.reports)
        assert sorted((r.e, r.f) for r in sv.reports) == ef
        assert sum(e * f_ for e, f_ in ef) == f.degree()

    def test_x_divides_f_is_a_support_branch(self):
        sv = enumerate_extensions(B2, pol(B2, "x^2+x"))
        assert branch_summaries(sv) == [
            ("x:inf", True, "support", 1, 1),
            ("x:0", True, "stabilized", 1, 1),
        ]
        assert sv.tree.edges[0] == (0, 1, "x divides f; value inf")

    @pytest.mark.parametrize("kind, p, text", [
        ("Q", 2, "x^3+x^2"),
        ("Q", 2, "x^2"),
        ("Fpt", 2, "x^2+t^2"),
        ("Fpt", 3, "x^3+2*t^3"),
        ("Fpt", 2, "x^5+(1/t^2)*x^4+t^2*x^3+t^2"),
    ])
    def test_repeated_factor_rejected(self, kind, p, text):
        base = BaseField.of(kind, p)
        with pytest.raises(ValueError, match="not squarefree"):
            enumerate_extensions(base, pol(base, text))


# -- an independent oracle: repeated factors known by construction -------------

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)

_KINDS = ("E1", "U1", "E2", "U2")


def _non_squarefree(kind, p, shape, i):
    """g^2, g^2*h or g^3 as text, from the bench's irreducible factors g != h."""
    fpt = kind == "Fpt"
    R = bench_inputs.LaurentRing(p) if fpt else bench_inputs.IntRing()
    rng = random.Random(f"non-squarefree/{kind}/{p}/{shape}/{i}")
    g, _ = bench_inputs._enum_factor(R, rng, _KINDS[i % 4], p, fpt, i % 2 == 1, 0)
    factors = [g] * (3 if shape == "g3" else 2)
    if shape == "g2h":
        h = g
        while h == g:
            h, _ = bench_inputs._enum_factor(R, rng, _KINDS[(i + 1) % 4], p, fpt, False, 0)
        factors.append(h)
    prod = [R.one]
    for f in factors:
        prod = bench_inputs.pmul(R, prod, f)
    return bench_inputs.poly_text(R, prod)


@pytest.mark.parametrize("shape", ["g2", "g2h", "g3"])
@pytest.mark.parametrize("kind, p", [("Q", 2), ("Q", 3), ("Q", 5), ("Fpt", 2), ("Fpt", 3)])
def test_no_certificate_for_a_repeated_factor(kind, p, shape):
    base = BaseField.of(kind, p)
    for i in range(8):
        text = _non_squarefree(kind, p, shape, i)
        try:
            sv = enumerate_extensions(base, pol(base, text))
        except ValueError:
            continue
        assert not all(r.terminal for r in sv.reports), text
