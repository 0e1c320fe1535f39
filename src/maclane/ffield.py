"""Finite fields GF(p^k) and exact polynomial factorization over them.

Fields are represented as F_p[w]/(modulus) with a deterministic modulus:
the lexicographically first monic irreducible of degree k (ordered by the
tuple of non-leading coefficients), found once per (p, k) and cached with
the field.  ``FiniteField.of`` builds one field per (p, k), so fields
compare by identity.  Elements are ``FFElem``, a ``base.FieldElem`` whose
payload is a little-endian ``fppoly`` coefficient tuple.  Polynomials over a
field are ``FFPoly``, a subclass of ``poly.Polynomial`` printed in y, which
like it divides by monic divisors only.  Irreducibility is read off the
distinct-degree factorization that ``ff_factor`` runs.  Equal-degree
splitting draws from a fresh ``random.Random(0)`` per factorization, and the
factor list is sorted, so every factorization is reproducible.

``adjoin_root`` flattens sub[y]/(R), for R irreducible over sub, to one
field.  Its root of R, like the image of the subfield generator in
``embed_into``, is the root with the smallest ``key()``, found by degree-one
splitting once the distinct-degree factorization shows that R splits.

A field of order q <= ``TABLE_BOUND`` does its arithmetic by table lookup
(Zech logarithms, as in GAP; Huber, IEEE Trans. IT 1990).  When the field is
made, never at import, it fixes a primitive element g (the first element in
``elements()`` order that passes the order test g^((q-1)/r) != 1 for every
prime r | q-1) and walks its q-1 powers once, giving three tables:

  antilog  i -> the element g^i, for 0 <= i < 2(q-1), so that a sum of two
           logs needs no reduction mod q-1
  log      payload tuple -> i
  zech     n -> log(1 + g^n), None where 1 + g^n = 0

Its elements are ``ZechElem``: a product, an inverse (g^-i is antilog[-i]),
a negation (log(-1) is (q-1)/2 for odd p and 0 for p = 2) and a power are
lookups, and a sum is a * (1 + b/a).  The payload stays the ``fppoly``
tuple, so printing, ``key()``, equality and hashing do not depend on the
path.  A larger field keeps ``FFElem``'s polynomial arithmetic modulo the
modulus; it is also the arithmetic the tables are built with.  Building
costs about 10-13 us per element (Python 3.11, 2-core x86 host): 1.3 ms
for GF(125), 13 ms for GF(2^10), 76 ms for GF(2^12) and 1.5 s for GF(2^16).
The bound 2^10 keeps that one-off cost small beside one CLI call (about
70 ms), and every residue field the benchmark meets (at most GF(125)) is far
below it.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from . import fppoly
from .base import FieldElem, InvariantError, _as_int, _check_prime, _is_prime
from .poly import Polynomial

# The largest field order that gets log/Zech tables; see the module docstring.
TABLE_BOUND = 2 ** 10


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
        self._elem = FFElem
        self.antilog = self.log = self.zech = self.neg_log = None
        if self.order <= TABLE_BOUND:
            self._build_tables()

    @classmethod
    def of(cls, p: int, k: int = 1) -> "FiniteField":
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        _check_prime(p)
        return _field_of(p, k)

    # -- elements ------------------------------------------------------------

    def elem(self, coeffs) -> "FFElem":
        cs = fppoly.trim(tuple(coeffs), self.p)
        if len(cs) > self.k:
            cs = fppoly.div_mod(cs, self.modulus, self.p)[1]
        return self._elem(self, cs)

    def zero(self) -> "FFElem":
        return self._elem(self, ())

    def one(self) -> "FFElem":
        return self._elem(self, (1,))

    def from_int(self, n: int) -> "FFElem":
        return self.elem((_as_int(n),))

    def gen(self) -> "FFElem":
        """The class w of the modulus variable (equals 1 when k = 1)."""
        if self.k == 1:
            return self.one()
        return self.elem((0, 1))

    def elements(self):
        for cs in _digit_vectors(self.p, self.k):
            yield self._elem(self, fppoly.trim(cs, self.p))

    def _build_tables(self):
        """Fix a primitive element g, walk its powers with ``FFElem``'s
        arithmetic, and switch the field to ``ZechElem``."""
        n = self.order - 1
        one = self.one()
        primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        g = next(g for g in self.elements()
                 if g and all(g ** (n // r) != one for r in primes))
        powers = []
        cur = one
        for _ in range(n):
            powers.append(cur.payload)
            cur = cur * g
        self.log = {cs: i for i, cs in enumerate(powers)}
        self.zech = [self.log.get(fppoly.add((1,), cs, self.p)) for cs in powers]
        self.neg_log = n // 2 if self.p > 2 else 0
        self._elem = ZechElem
        self.antilog = [ZechElem(self, cs) for cs in powers] * 2

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
    _ONE = (1,)

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

    def __hash__(self):
        # a constant hashes like the int c in range(p) that it equals
        return hash(sum(self.coeffs) if len(self.coeffs) < 2 else self.coeffs)

    def key(self):
        """Deterministic sort key: coefficient vector padded to field degree."""
        return tuple(self.coeffs[i] if i < len(self.coeffs) else 0 for i in range(self.field.k))

    def __str__(self):
        return fppoly.to_str(self.coeffs, "g")


class ZechElem(FFElem):
    """An element of a field with log/Zech tables (see the module docstring);
    only the arithmetic differs from ``FFElem``."""

    __slots__ = ()

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.payload, o.payload
        if not a:
            return o
        if not b:
            return self
        F = self.field
        la = F.log[a]
        z = F.zech[F.log[b] - la]     # a negative index wraps mod q-1
        return F.zero() if z is None else F.antilog[la + z]

    def __neg__(self):
        if not self.payload:
            return self
        F = self.field
        return F.antilog[F.log[self.payload] + F.neg_log]

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.payload, o.payload
        if not a:
            return self
        if not b:
            return o
        F = self.field
        return F.antilog[F.log[a] + F.log[b]]

    def inverse(self):
        if not self.payload:
            raise ZeroDivisionError("inverse of zero")
        F = self.field
        return F.antilog[-F.log[self.payload]]

    def __pow__(self, e: int):
        if not self.payload:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return self if e else self.field.one()
        F = self.field
        return F.antilog[F.log[self.payload] * e % (F.order - 1)]


def pth_root(a: FFElem) -> FFElem:
    """The unique p-th root in a perfect field: a^(p^(k-1))."""
    k = a.field.k
    return a ** (a.field.p ** (k - 1))


class FFPoly(Polynomial):
    """Polynomial over a FiniteField, printed in the variable y.

    The arithmetic is Polynomial's, so it too divides by monic divisors only;
    this class adds its own printing of coefficients and a deterministic sort
    key.
    """

    __slots__ = ()
    var = "y"

    @classmethod
    def y(cls, field):
        return cls.x(field)

    @staticmethod
    def _needs_parens(cs: str) -> bool:
        return "+" in cs or "*" in cs or "^" in cs

    def sort_key(self):
        return (self.degree(), tuple(c.key() for c in self.coeffs))


# -- factorization ---------------------------------------------------------------


def is_irreducible(f: FFPoly) -> bool:
    """Whether deg f >= 1 and the distinct-degree factorization of monic f is
    [(f, deg f)].  A non-squarefree f comes out reducible too: the first factor
    split off divides y^(q^d) - y, so it is squarefree and is not f."""
    if f.degree() < 1:
        return False
    f = f.monic()
    return _distinct_degree(f) == [(f, f.degree())]


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


def ff_factor(f: FFPoly):
    """Full factorization into monic irreducibles.

    Returns (unit, [(g, multiplicity)]) with the factor list sorted by
    (degree, coefficient vectors).
    """
    if f.is_zero():
        raise ValueError("factor of zero polynomial")
    rng = random.Random(0)
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


# -- roots, embeddings and towers of residue fields ------------------------------


def _smallest_root(f: FFPoly) -> FFElem:
    """The root of monic f with the smallest ``key()``.  The split check comes
    first: ``_equal_degree`` never returns on a polynomial that does not split."""
    if _distinct_degree(f) != [(f, 1)]:
        raise InvariantError(f"no root: {f} is not a product of distinct linear factors")
    return min((-g.coeff(0) for g in _equal_degree(f, 1, random.Random(0))), key=FFElem.key)


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
    return _embedding(sub, big)


@lru_cache(maxsize=None)
def _embedding(sub, big):
    """The embedding of ``embed_into``, found once per interned pair of fields."""
    rho = _smallest_root(FFPoly.from_ints(big, sub.modulus))

    def emb(a: FFElem) -> FFElem:
        r = big.zero()
        for c in reversed(a.coeffs):
            r = r * rho + big.from_int(c)
        return r

    return emb


def adjoin_root(sub: FiniteField, residual: FFPoly):
    """sub[y]/(residual) for a monic irreducible residual of degree n, as
    (big, embed, z, to_sub): big = GF(p^(k n)), the embedding of sub, the root
    z of residual with the smallest ``key()``, and the map from w in big to
    [c_0, ..., c_{n-1}] over sub with w = sum embed(c_j) z^j.  For n = 1, big
    is sub (fields are interned), embed the identity and to_sub(w) = [w]."""
    n = residual.degree()
    big = FiniteField.of(sub.p, sub.k * n)
    embed = embed_into(sub, big)
    z = _smallest_root(FFPoly(big, tuple(embed(c) for c in residual.coeffs)))
    basis = [embed(sub.gen() ** i) * z ** j for j in range(n) for i in range(sub.k)]
    solve = _linear_solver(big, basis)

    def to_sub(w: FFElem):
        cs = solve(w)
        return [sub.elem(cs[j * sub.k:(j + 1) * sub.k]) for j in range(n)]

    return big, embed, z, to_sub


def _linear_solver(big: FiniteField, basis):
    """Given an F_p-basis of GF(p^b) (as FFElems), return a solver mapping an
    element to its integer coordinate vector in that basis."""
    p, n = big.p, big.k
    # invert the n x n matrix whose columns are the basis vectors, mod p
    mat = [list(row) for row in zip(*(b.key() for b in basis))]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            raise InvariantError("basis is singular")
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
        vec = a.key()
        return [sum(inv[i][j] * vec[j] for j in range(n)) % p for i in range(n)]

    return solve
