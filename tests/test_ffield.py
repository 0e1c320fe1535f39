"""Finite fields, factorization over them, and tower embeddings."""

import functools
import itertools
import random
import subprocess
import sys

import pytest

from maclane import BaseField, FFPoly, FiniteField, enumerate_extensions, ff_factor, ff_roots
from maclane import ffield, fppoly, parse_polynomial
from maclane.ffield import (
    FFElem,
    ZechElem,
    absolute_trace,
    embed_into,
    is_irreducible,
    linear_solver,
    pth_root,
)


class TestFieldConstruction:
    def test_prime_field(self):
        f = FiniteField.of(5)
        assert f.order == 5
        assert f.gen() == f.one()
        assert [int(str(e)) for e in f.elements()] == [0, 1, 2, 3, 4]

    def test_extension_field(self):
        f = FiniteField.of(2, 4)
        assert f.order == 16
        assert len(list(f.elements())) == 16

    def test_caching(self):
        assert FiniteField.of(3, 2) is FiniteField.of(3, 2)

    def test_second_call_runs_no_search(self, monkeypatch):
        # a fresh cache for this test only, so the first call must search
        monkeypatch.setattr(ffield, "_field_of", functools.lru_cache(ffield._field_of.__wrapped__))
        search = ffield.first_irreducible
        calls = []
        monkeypatch.setattr(ffield, "first_irreducible", lambda p, k: calls.append((p, k)) or search(p, k))
        first = FiniteField.of(11, 2)
        searched = list(calls)
        assert first is FiniteField.of(11, 2)
        assert calls == searched and searched.count((11, 2)) == 1

    @pytest.mark.parametrize("p, k", [(4, 1), (0, 1), (1, 1), (4, 2)])
    def test_rejects_non_prime_characteristic(self, p, k):
        with pytest.raises(ValueError, match="prime"):
            FiniteField.of(p, k)

    def test_deterministic_modulus(self):
        # lexicographically first irreducible: z^2 + z + 1 over F_2
        f = FiniteField.of(2, 2)
        assert "w^2+w+1" in repr(f)


class TestElemArithmetic:
    def test_all_inverses(self):
        f = FiniteField.of(3, 2)
        for a in f.elements():
            if a.is_zero():
                continue
            assert a * a.inverse() == f.one()
            assert a ** -1 == a.inverse()

    def test_frobenius_and_pth_root(self):
        f = FiniteField.of(3, 3)
        for a in f.elements():
            assert pth_root(a) ** 3 == a
            assert pth_root(a ** 3) == a

    def test_absolute_trace(self):
        f = FiniteField.of(2, 3)
        traces = sorted(absolute_trace(a) for a in f.elements())
        # trace is a surjective F_2-linear map: half the elements hit each value
        assert traces.count(0) == 4 and traces.count(1) == 4

    def test_generator_generates(self):
        f = FiniteField.of(2, 4)
        g = f.gen()
        seen = {g ** i for i in range(f.order - 1)}
        # w need not be primitive, but its powers must leave the prime field
        assert any(e not in {f.zero(), f.one()} for e in seen)


# -- log/Zech tables against schoolbook arithmetic ------------------------------------

# every (p, k) with p^k <= 64
SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
                for k in range(1, 7) if p ** k <= 64]


def _ref_mul(F, a, b):
    return fppoly.div_mod(fppoly.mul(a, b, F.p), F.modulus, F.p)[1]


def _ref_inverse(F, a):
    """Extended Euclid in F_p[w]: s with s * a = 1 mod the modulus."""
    p = F.p
    r0, r1, s0, s1 = F.modulus, a, (), (1,)
    while r1:
        q, r = fppoly.div_mod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, fppoly.sub(s0, fppoly.mul(q, s1, p), p)
    return fppoly.scal(pow(r0[-1], -1, p), s0, p)


def _ref_pow(F, a, e):
    if e < 0:
        a, e = _ref_inverse(F, a), -e
    out = (1,)
    for _ in range(e):
        out = _ref_mul(F, out, a)
    return out


class TestTables:
    @pytest.mark.parametrize("p, k", SMALL_FIELDS)
    def test_against_schoolbook(self, p, k):
        F = FiniteField.of(p, k)
        assert F.order <= ffield.TABLE_BOUND and F.log is not None
        els = list(F.elements())
        assert all(type(a) is ZechElem for a in els)
        frobenius = {_ref_pow(F, b.payload, p): b.payload for b in els}
        for a in els:
            A = a.payload
            assert (-a).payload == fppoly.neg(A, p)
            assert pth_root(a).payload == frobenius[A]
            trace, cur = (), A
            for _ in range(k):
                trace, cur = fppoly.add(trace, cur, p), _ref_pow(F, cur, p)
            assert absolute_trace(a) == (trace[0] if trace else 0)
            for e in (0, 1, 2, p, F.order - 1, F.order + 3):
                assert (a ** e).payload == _ref_pow(F, A, e)
            if a:
                assert a.inverse().payload == _ref_inverse(F, A)
                for e in (-1, -2, -F.order):
                    assert (a ** e).payload == _ref_pow(F, A, e)
            else:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
                with pytest.raises(ZeroDivisionError):
                    a ** -1
            for b in els:
                B = b.payload
                assert (a * b).payload == _ref_mul(F, A, B)
                assert (a + b).payload == fppoly.add(A, B, p)
                assert (a - b).payload == fppoly.sub(A, B, p)

    def test_int_operands(self):
        F = FiniteField.of(3, 2)
        w = F.gen()
        assert (w * 2).payload == (0, 2) and (2 * w).payload == (0, 2)
        assert (w + 4).payload == (1, 1) and (1 - w).payload == (1, 2)
        with pytest.raises(ValueError):
            w * FiniteField.of(3).one()

    def test_field_above_the_bound_has_no_tables(self):
        F = FiniteField.of(2, 11)
        assert F.order > ffield.TABLE_BOUND
        assert (F.antilog, F.log, F.zech) == (None, None, None)
        assert type(F.one()) is FFElem and type(F.gen()) is FFElem
        rng = random.Random(3)
        for _ in range(30):
            A = fppoly.trim([rng.randrange(2) for _ in range(11)], 2)
            B = fppoly.trim([rng.randrange(2) for _ in range(11)], 2)
            a, b = F.elem(A), F.elem(B)
            assert (a * b).payload == _ref_mul(F, A, B)
            assert (a + b).payload == fppoly.add(A, B, 2)
            assert (a ** 5).payload == _ref_pow(F, A, 5)
            if a:
                assert a.inverse().payload == _ref_inverse(F, A)
                assert pth_root(a) ** 2 == a

    def test_enumeration_through_a_field_above_the_bound(self):
        # x^11+x^2+1 is irreducible mod 2: one unramified branch whose
        # residue field is GF(2^11), which has no tables
        base = BaseField.rationals(2)
        survey = enumerate_extensions(base, parse_polynomial(base, "x^11+x^2+1"))
        assert survey.to_json()["all_terminal"]
        assert [(r.e, r.f) for r in survey.reports] == [(1, 11)]
        big = survey.reports[0].chain.stages[-1].res_field
        assert big is FiniteField.of(2, 11) and big.log is None

    def test_no_field_is_made_at_import(self):
        code = "import maclane.cli, maclane.ffield as f; print(f._field_of.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestFFPoly:
    def test_divmod_any_nonzero(self):
        f = FiniteField.of(5)
        a = FFPoly.from_ints(f, [1, 2, 3, 4])
        b = FFPoly.from_ints(f, [2, 3])  # non-monic divisor is fine here
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    def test_gcd_monic(self):
        f = FiniteField.of(5)
        a = FFPoly.from_ints(f, [1, 1]) * FFPoly.from_ints(f, [2, 2])
        b = FFPoly.from_ints(f, [1, 1]) * FFPoly.from_ints(f, [0, 3])
        g = a.gcd(b)
        assert g == FFPoly.from_ints(f, [1, 1])

    def test_pow_and_eval(self):
        f = FiniteField.of(3)
        y = FFPoly.y(f)
        assert (y + FFPoly.one(f)) ** 3 == y ** 3 + FFPoly.one(f)
        g = y ** 2 + FFPoly.one(f)
        assert g(f.from_int(1)) == f.from_int(2)
        with pytest.raises(ValueError):
            g ** -1


class TestIrreducibility:
    def test_known_cases(self):
        f3 = FiniteField.of(3)
        assert is_irreducible(FFPoly.from_ints(f3, [1, 0, 1]))        # y^2+1 over F_3
        f5 = FiniteField.of(5)
        assert not is_irreducible(FFPoly.from_ints(f5, [1, 0, 1]))    # (y+2)(y+3) over F_5
        f2 = FiniteField.of(2)
        assert is_irreducible(FFPoly.from_ints(f2, [1, 1, 1]))
        assert not is_irreducible(FFPoly.from_ints(f2, [1, 0, 1]))    # (y+1)^2

    def test_over_extension(self):
        f4 = FiniteField.of(2, 2)
        w = f4.gen()
        y = FFPoly.y(f4)
        # y^2 + y + w is irreducible over GF(4) (trace of w over F_2 is 1)
        assert is_irreducible(y ** 2 + y + FFPoly(f4, (w,)))


def _monic(field, n):
    """Every monic polynomial of degree n over field."""
    for cs in itertools.product(list(field.elements()), repeat=n):
        yield FFPoly(field, cs + (field.one(),))


def _by_trial_division(f):
    """Irreducible: no monic divisor of degree 1 .. deg f / 2."""
    n = f.degree()
    return n >= 1 and not any((f % g).is_zero()
                              for d in range(1, n // 2 + 1) for g in _monic(f.field, d))


class TestIrreducibilityOracle:
    """``is_irreducible`` against trial division, an algorithm that shares none
    of its steps."""

    @pytest.mark.parametrize("p, k, top", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)])
    def test_every_monic_polynomial(self, p, k, top):
        F = FiniteField.of(p, k)
        unit = list(F.elements())[-1]
        for n in range(top + 1):
            for f in _monic(F, n):
                assert is_irreducible(f) == _by_trial_division(f), f
                assert is_irreducible(f.scale(unit)) == is_irreducible(f)

    @pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_repeated_factors_are_reducible(self, p, k):
        F = FiniteField.of(p, k)
        irreducibles = [g for n in (1, 2) for g in _monic(F, n) if _by_trial_division(g)]
        for g in irreducibles:
            assert not is_irreducible(g * g) and not is_irreducible(g * g * g)
            for h in irreducibles[:4]:
                assert not is_irreducible(g * g * h), (g, h)


class TestFactorization:
    def assert_refactors(self, f):
        unit, factors = ff_factor(f)
        prod = FFPoly(f.field, (unit,))
        for h, m in factors:
            assert h.is_monic()
            assert is_irreducible(h)
            prod = prod * h ** m
        assert prod == f

    def test_split_quadratic(self):
        f5 = FiniteField.of(5)
        _, factors = ff_factor(FFPoly.from_ints(f5, [1, 0, 1]))
        assert [str(h) for h, _ in factors] == ["y+2", "y+3"]

    def test_pth_power(self):
        f3 = FiniteField.of(3)
        g = FFPoly.from_ints(f3, [1, 1]) ** 9
        unit, factors = ff_factor(g)
        assert factors == [(FFPoly.from_ints(f3, [1, 1]), 9)]

    def test_artin_schreier_split(self):
        f3 = FiniteField.of(3)
        y = FFPoly.y(f3)
        _, factors = ff_factor(y ** 3 - y)
        assert len(factors) == 3 and all(m == 1 for _, m in factors)

    def test_deterministic(self):
        f7 = FiniteField.of(7)
        g = FFPoly.from_ints(f7, [3, 0, 1, 2, 0, 0, 1])
        assert ff_factor(g) == ff_factor(g)

    def test_random_refactor(self):
        rng = random.Random(3)
        for _ in range(120):
            p, k = rng.choice([(2, 1), (2, 2), (3, 1), (5, 1), (3, 2)])
            field = FiniteField.of(p, k)
            els = list(field.elements())
            deg = rng.randrange(1, 7)
            coeffs = [rng.choice(els) for _ in range(deg)] + [field.one()]
            f = FFPoly(field, tuple(coeffs))
            self.assert_refactors(f)

    def test_roots(self):
        f5 = FiniteField.of(5)
        y = FFPoly.y(f5)
        g = (y - FFPoly.from_ints(f5, [2])) ** 2 * (y ** 2 + FFPoly.from_ints(f5, [2]))
        roots = ff_roots(g)
        assert (f5.from_int(2), 2) in roots


class TestTowers:
    def test_embedding_is_homomorphism(self):
        sub = FiniteField.of(2, 2)
        big = FiniteField.of(2, 4)
        emb = embed_into(sub, big)
        els = list(sub.elements())
        for a in els:
            for b in els:
                assert emb(a) + emb(b) == emb(a + b)
                assert emb(a) * emb(b) == emb(a * b)
        assert emb(sub.one()) == big.one()

    def test_embedding_identity(self):
        f = FiniteField.of(3, 2)
        emb = embed_into(f, f)
        w = f.gen()
        assert emb(w) == w

    def test_embedding_found_once_per_pair(self, monkeypatch):
        monkeypatch.setattr(ffield, "_embedding", functools.lru_cache(ffield._embedding.__wrapped__))
        calls = []
        roots = ffield.ff_roots
        monkeypatch.setattr(ffield, "ff_roots", lambda f: calls.append(f) or roots(f))
        sub, big = FiniteField.of(3, 1), FiniteField.of(3, 2)
        assert embed_into(sub, big) is embed_into(sub, big)
        assert len(calls) == 1

    def test_incompatible_tower_rejected(self):
        with pytest.raises(ValueError):
            embed_into(FiniteField.of(2, 2), FiniteField.of(2, 3))

    def test_linear_solver_round_trip(self):
        big = FiniteField.of(2, 4)
        sub = FiniteField.of(2, 2)
        emb = embed_into(sub, big)
        # pick z with big = sub[z]: a root of an irreducible quadratic over sub
        w = sub.gen()
        y = FFPoly.y(big)
        q = y ** 2 + y + FFPoly(big, (emb(w),))
        z = ff_roots(q)[0][0]
        basis = []
        for j in range(2):
            for i in range(sub.k):
                basis.append(emb(w ** i) * z ** j)
        solve = linear_solver(big, basis)
        rng = random.Random(9)
        els = list(big.elements())
        for _ in range(20):
            a = rng.choice(els)
            coords = solve(a)
            acc = big.zero()
            for c, b in zip(coords, basis):
                acc = acc + b * big.from_int(c)
            assert acc == a
