"""Finite fields, factorization over them, and tower embeddings."""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from maclane import BaseField, FFPoly, FiniteField, InvariantError, enumerate_extensions, ff_factor
from maclane import ffield, fppoly, parse_polynomial
from maclane.ffield import FFElem, ZechElem, adjoin_root, embed_into, is_irreducible, pth_root

_SRC = Path(__file__).resolve().parent.parent / "src"


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
    def test_divmod_needs_a_monic_divisor(self):
        f = FiniteField.of(5)
        a = FFPoly.from_ints(f, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="monic"):
            divmod(a, FFPoly.from_ints(f, [2, 3]))
        q, r = divmod(a, FFPoly.from_ints(f, [2, 1]))
        assert q * FFPoly.from_ints(f, [2, 1]) + r == a and r.degree() < 1

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
        root = ffield._smallest_root
        monkeypatch.setattr(ffield, "_smallest_root", lambda f: calls.append(f) or root(f))
        sub, big = FiniteField.of(3, 1), FiniteField.of(3, 2)
        assert embed_into(sub, big) is embed_into(sub, big)
        assert len(calls) == 1

    def test_incompatible_tower_rejected(self):
        with pytest.raises(ValueError):
            embed_into(FiniteField.of(2, 2), FiniteField.of(2, 3))


class TestAdjoinRoot:
    """``adjoin_root`` against a scan of the big field's elements."""

    @pytest.mark.parametrize("p, k, top", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 2)])
    def test_against_a_scan(self, p, k, top):
        sub = FiniteField.of(p, k)
        for n in range(1, top + 1):
            for R in filter(_by_trial_division, _monic(sub, n)):
                big, embed, z, to_sub = adjoin_root(sub, R)
                assert big is FiniteField.of(p, k * n)
                Rbig = FFPoly(big, tuple(embed(c) for c in R.coeffs))
                assert z == min((a for a in big.elements() if Rbig(a).is_zero()), key=FFElem.key), R
                for w in big.elements():
                    cs = to_sub(w)
                    assert len(cs) == n and all(c.field is sub for c in cs)
                    acc = big.zero()
                    for j, c in enumerate(cs):
                        acc = acc + embed(c) * z ** j
                    assert acc == w, (R, w)

    def test_a_polynomial_that_does_not_split_is_refused(self):
        # y^3+y+2 = (y+1)(y^2+4y+2) over GF(5), and GF(125) holds no root of
        # the quadratic: splitting alone would never return
        code = (
            "from maclane import FFPoly, FiniteField, InvariantError, ffield\n"
            "F = FiniteField.of(5, 3)\n"
            "try:\n"
            "    ffield._smallest_root(FFPoly.from_ints(F, [2, 1, 0, 1]))\n"
            "except InvariantError as e:\n"
            "    print('refused', e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(_SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("refused no root")

    def test_a_repeated_root_is_refused(self):
        F = FiniteField.of(3)
        with pytest.raises(InvariantError, match="no root"):
            ffield._smallest_root(FFPoly.from_ints(F, [1, 1]) ** 2)


_MEMOS = ("_adjoin_root", "_factor", "_is_irreducible")


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos for this test only, each counting the runs of its body by name."""
    runs = []
    for name in _MEMOS:
        body = getattr(ffield, name).__wrapped__

        def counted(*args, _body=body, _name=name):
            runs.append(_name)
            return _body(*args)

        monkeypatch.setattr(ffield, name, functools.lru_cache(maxsize=ffield.MEMO_SIZE)(counted))
    return runs


class TestMemo:
    """The memos of ``adjoin_root``, ``ff_factor`` and ``is_irreducible``."""

    def test_a_warm_survey_runs_no_body(self, fresh_memos):
        base = BaseField.rationals(2)
        f = parse_polynomial(base, "((x^2+x+1)^2+2)^2+4*x")
        cold = enumerate_extensions(base, f)
        assert set(fresh_memos) == set(_MEMOS)
        fresh_memos.clear()
        warm = enumerate_extensions(base, f)
        assert fresh_memos == []
        assert warm.to_json() == cold.to_json()
        assert warm.tree.to_dot() == cold.tree.to_dot()

    def test_the_returned_list_is_the_callers(self, fresh_memos):
        g = FFPoly.from_ints(FiniteField.of(5), [1, 0, 1])
        unit, factors = ff_factor(g)
        expected = list(factors)
        factors.append(factors[0])
        factors.reverse()
        assert ff_factor(g) == (unit, expected)
        assert fresh_memos == ["_factor"]

    def test_the_field_is_part_of_the_key(self, fresh_memos):
        # y^2+y+1 is irreducible over GF(2) and splits over GF(4): the two have
        # the same coefficient payloads, and the constants compare like ints
        f2, f4 = FiniteField.of(2), FiniteField.of(2, 2)
        over2, over4 = FFPoly.from_ints(f2, [1, 1, 1]), FFPoly.from_ints(f4, [1, 1, 1])
        for _ in range(2):
            assert is_irreducible(over2) and not is_irreducible(over4)
            assert len(ff_factor(over2)[1]) == 1 and len(ff_factor(over4)[1]) == 2
        assert ffield._is_irreducible.cache_info().currsize == 2
        assert ffield._factor.cache_info().currsize == 2
        assert adjoin_root(f2, over2)[0] is f4

    def test_a_failed_check_raises_on_every_call(self, fresh_memos):
        R = FFPoly.from_ints(FiniteField.of(3), [1, 1]) ** 2
        for _ in range(3):
            with pytest.raises(InvariantError, match="no root"):
                adjoin_root(R.field, R)
        assert fresh_memos.count("_adjoin_root") == 3
        assert ffield._adjoin_root.cache_info().currsize == 0

    def test_each_memo_is_bounded(self):
        for name in _MEMOS:
            assert getattr(ffield, name).cache_info().maxsize == ffield.MEMO_SIZE
