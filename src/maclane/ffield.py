"""Finite fields GF(p^k) and exact polynomial factorization over them.

Fields are represented as F_p[w]/(modulus) with a deterministic modulus:
the lexicographically first monic irreducible of degree k (ordered by the
tuple of non-leading coefficients), found once per (p, k) by the Rabin test
over GF(p) and cached with the field.  ``FiniteField.of`` builds one field
per (p, k), so fields compare by identity.  Elements are ``FFElem``, a
``base.FieldElem`` whose payload is a little-endian ``fppoly`` coefficient
tuple.  Polynomials over a field are ``FFPoly``, a subclass of
``poly.Polynomial`` printed in y.  Equal-degree splitting uses an explicit
seeded random source, so every factorization is reproducible; with no source
given a fresh ``random.Random(0)`` is used.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from . import fppoly
from .base import FieldElem
from .poly import Polynomial


@lru_cache(maxsize=None)
def _field_of(p, k):
    return FiniteField(p, k, first_irreducible(p, k), _token=_TOKEN)


_TOKEN = object()


class FiniteField:
    def __init__(self, p: int, k: int = 1, modulus=None, _token=None):
        if _token is not _TOKEN:
            raise RuntimeError("use FiniteField.of(p, k)")
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = modulus

    @classmethod
    def of(cls, p: int, k: int = 1) -> "FiniteField":
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if _prime_divisors(p) != [p]:
            raise ValueError(f"p must be prime, got {p}")
        return _field_of(p, k)

    # -- elements ------------------------------------------------------------

    def elem(self, coeffs) -> "FFElem":
        cs = fppoly.trim(tuple(coeffs), self.p)
        if len(cs) > self.k:
            cs = fppoly.div_mod(cs, self.modulus, self.p)[1]
        return FFElem(self, cs)

    def zero(self) -> "FFElem":
        return FFElem(self, ())

    def one(self) -> "FFElem":
        return FFElem(self, (1,))

    def from_int(self, n: int) -> "FFElem":
        return self.elem((n,))

    def gen(self) -> "FFElem":
        """The class w of the modulus variable (equals 1 when k = 1)."""
        if self.k == 1:
            return self.one()
        return self.elem((0, 1))

    def elements(self):
        for cs in _digit_vectors(self.p, self.k):
            yield FFElem(self, fppoly.trim(cs, self.p))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}, modulus={fppoly.to_str(self.modulus, 'w')})"


def _digit_vectors(p, k):
    """Every (c_0, ..., c_{k-1}) over F_p, ordered by the integer sum c_i p^i."""
    return (cs[::-1] for cs in itertools.product(range(p), repeat=k))


class FFElem(FieldElem):
    """An element of GF(p^k); the payload, also named ``coeffs``, is its
    residue modulo the field's modulus as an ``fppoly`` tuple in w."""

    __slots__ = ()
    coeffs = FieldElem.payload

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElem(self.field, fppoly.add(self.coeffs, o.coeffs, self.field.p))

    def __neg__(self):
        return FFElem(self.field, fppoly.neg(self.coeffs, self.field.p))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        prod = fppoly.mul(self.coeffs, o.coeffs, self.field.p)
        return FFElem(self.field, fppoly.div_mod(prod, self.field.modulus, self.field.p)[1])

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[w]
        p, m = self.field.p, self.field.modulus
        a, b = self.coeffs, m
        sa, sb = (1,), ()
        while b:
            q, r = fppoly.div_mod(a, b, p)
            a, b = b, r
            sa, sb = sb, fppoly.sub(sa, fppoly.mul(q, sb, p), p)
        inv_lead = pow(a[-1], -1, p)
        return FFElem(self.field, fppoly.div_mod(fppoly.scal(inv_lead, sa, p), m, p)[1])

    def key(self):
        """Deterministic sort key: coefficient vector padded to field degree."""
        return tuple(self.coeffs[i] if i < len(self.coeffs) else 0 for i in range(self.field.k))

    def __str__(self):
        return fppoly.to_str(self.coeffs, "g")


def pth_root(a: FFElem) -> FFElem:
    """The unique p-th root in a perfect field: a^(p^(k-1))."""
    k = a.field.k
    return a ** (a.field.p ** (k - 1))


def absolute_trace(a: FFElem) -> int:
    """Trace to the prime field, returned as an integer in [0, p)."""
    t = a.field.zero()
    b = a
    for _ in range(a.field.k):
        t = t + b
        b = b ** a.field.p
    if len(t.coeffs) > 1:
        raise RuntimeError("trace landed outside the prime field")  # pragma: no cover
    return t.coeffs[0] if t.coeffs else 0


class FFPoly(Polynomial):
    """Polynomial over a FiniteField, printed in the variable y.

    The arithmetic is Polynomial's; this class adds division by a non-monic
    divisor, its own printing of coefficients, and a deterministic sort key.
    """

    __slots__ = ()
    var = "y"

    @classmethod
    def y(cls, field):
        return cls.x(field)

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero() or other.is_monic():
            return super().__divmod__(other)
        inv = other.leading().inverse()
        quo, rem = super().__divmod__(other.scale(inv))
        return quo.scale(inv), rem

    @staticmethod
    def _needs_parens(cs: str) -> bool:
        return "+" in cs or "*" in cs or "^" in cs

    def sort_key(self):
        return (self.degree(), tuple(c.key() for c in self.coeffs))


# -- factorization ---------------------------------------------------------------


def is_irreducible(f: FFPoly) -> bool:
    """Rabin test over the coefficient field GF(q)."""
    n = f.degree()
    if n <= 0:
        return False
    if n == 1:
        return True
    f = f.monic()   # reductions mod a monic f need no rescaling
    q = f.field.order
    y = FFPoly.y(f.field)
    if y.pow_mod(q ** n, f) != y % f:
        return False
    for r in _prime_divisors(n):
        h = y.pow_mod(q ** (n // r), f)
        if (h - y).gcd(f).degree() != 0:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def first_irreducible(p, k):
    """Lexicographically first monic irreducible of degree k over F_p, as an
    integer coefficient tuple.

    Ordering is by the tuple (c_0, ..., c_{k-1}) of non-leading coefficients.
    """
    if k == 1:
        return (0, 1)
    prime = FiniteField.of(p, 1)
    for cs in _digit_vectors(p, k):
        f = cs + (1,)
        if is_irreducible(FFPoly.from_ints(prime, f)):
            return f
    raise RuntimeError("no irreducible found; p is not prime?")  # pragma: no cover


def _poly_pth_root(f: FFPoly) -> FFPoly:
    """Inverse of Frobenius on polynomials: g with g(y)^p = f(y); f must have
    support only on exponents divisible by p."""
    p = f.field.p
    out = {}
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        if i % p:
            raise ValueError("not a p-th power")
        out[i // p] = pth_root(c)
    return FFPoly.from_dict(f.field, out)


def _squarefree_decomposition(f: FFPoly):
    """[(g, m)] with f = prod g^m up to a constant, g monic squarefree, pairwise coprime."""
    p = f.field.p
    f = f.monic()
    out = []
    fp = f.derivative()
    if fp.is_zero():
        for g, m in _squarefree_decomposition(_poly_pth_root(f)):
            out.append((g, m * p))
        return out
    c = f.gcd(fp)
    w = f // c
    m = 1
    while w.degree() > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree() > 0:
            out.append((z.monic(), m))
        w = y
        c = c // y
        m += 1
    if c.degree() > 0:
        for g, mm in _squarefree_decomposition(_poly_pth_root(c)):
            out.append((g, mm * p))
    return out


def _distinct_degree(f: FFPoly):
    """f monic squarefree -> [(product of its irreducible factors of degree d, d)]."""
    q = f.field.order
    out = []
    y = FFPoly.y(f.field)
    h = y % f
    g = f
    d = 0
    while g.degree() > 0:
        d += 1
        if 2 * d > g.degree():
            out.append((g, g.degree()))
            break
        h = h.pow_mod(q, g)
        u = (h - y).gcd(g)
        if u.degree() > 0:
            out.append((u, d))
            g = g // u
            h = h % g
    return out


def _random_poly(field, deg_lt, rng):
    return FFPoly(
        field,
        tuple(field.elem([rng.randrange(field.p) for _ in range(field.k)]) for _ in range(deg_lt)),
    )


def _equal_degree(f: FFPoly, d: int, rng) -> list:
    """Split a monic squarefree product of degree-d irreducibles into factors."""
    if f.degree() == d:
        return [f]
    q = f.field.order
    n = f.degree()
    while True:
        h = _random_poly(f.field, n, rng)
        if h.degree() < 1:
            continue
        g = h.gcd(f)
        if 0 < g.degree() < n:
            break
        if f.field.p == 2:
            # trace map over GF(2); q = 2^k
            bits = f.field.k * d
            tr = FFPoly.zero(f.field)
            cur = h % f
            for _ in range(bits):
                tr = (tr + cur) % f
                cur = cur.pow_mod(2, f)
            g = tr.gcd(f)
        else:
            e = (q ** d - 1) // 2
            g = (h.pow_mod(e, f) - FFPoly.one(f.field)).gcd(f)
        if 0 < g.degree() < n:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def ff_factor(f: FFPoly, rng=None):
    """Full factorization into monic irreducibles.

    Returns (unit, [(g, multiplicity)]) with the factor list sorted by
    (degree, coefficient vectors).  Deterministic for a fixed rng seed; the
    default source is random.Random(0).
    """
    if f.is_zero():
        raise ValueError("factor of zero polynomial")
    rng = rng if rng is not None else random.Random(0)
    unit = f.leading()
    f = f.monic()
    factors = []
    if f.degree() == 0:
        return unit, []
    for g, m in _squarefree_decomposition(f):
        for prod, d in _distinct_degree(g):
            for irr in _equal_degree(prod, d, rng):
                factors.append((irr.monic(), m))
    factors.sort(key=lambda t: t[0].sort_key())
    return unit, factors


def ff_roots(f: FFPoly, rng=None):
    """Roots in the coefficient field with multiplicities, sorted."""
    _, factors = ff_factor(f, rng)
    out = []
    for g, m in factors:
        if g.degree() == 1:
            out.append((-g.coeff(0), m))
    out.sort(key=lambda t: t[0].key())
    return out


# -- embeddings and linear representation over subfields ------------------------


def embed_into(sub: FiniteField, big: FiniteField):
    """Canonical embedding GF(p^a) -> GF(p^b) for a | b.

    The image of the subfield generator is the root of the subfield modulus
    in the big field that is smallest in coefficient lex order; this makes
    the embedding deterministic.
    """
    if sub.p != big.p or big.k % sub.k:
        raise ValueError("no embedding")
    if sub is big:
        return lambda a: a
    mod_poly = FFPoly.from_ints(big, sub.modulus)
    roots = ff_roots(mod_poly)
    if not roots:
        raise RuntimeError("modulus has no root in extension")  # pragma: no cover
    rho = roots[0][0]

    def emb(a: FFElem) -> FFElem:
        r = big.zero()
        for c in reversed(a.coeffs):
            r = r * rho + big.from_int(c)
        return r

    return emb


def linear_solver(big: FiniteField, basis):
    """Given an F_p-basis of GF(p^b) (as FFElems), return a solver mapping an
    element to its integer coordinate vector in that basis."""
    p, n = big.p, big.k
    if len(basis) != n:
        raise ValueError("basis size mismatch")
    cols = [list(b.coeffs) + [0] * (n - len(b.coeffs)) for b in basis]
    # invert the n x n matrix whose columns are the basis vectors, mod p
    mat = [[cols[j][i] % p for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] % p), None)
        if piv is None:
            raise ValueError("basis is singular")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = pow(mat[col][col], -1, p)
        mat[col] = [(v * scale) % p for v in mat[col]]
        inv[col] = [(v * scale) % p for v in inv[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[col])]
                inv[r] = [(a - c * b) % p for a, b in zip(inv[r], inv[col])]

    def solve(a: FFElem):
        vec = list(a.coeffs) + [0] * (n - len(a.coeffs))
        return [sum(inv[i][j] * vec[j] for j in range(n)) % p for i in range(n)]

    return solve
