"""Base fields (Q, v_p) and (F_p(t), v_t) with exact arithmetic, and the
operator protocol shared by every field element.

Values live in Q ∪ {inf}: exact ``fractions.Fraction`` plus the single
sentinel ``INF``.  There are no floats anywhere in the valuation layer.
``INF`` absorbs addition and dominates every comparison, so ``min`` and
sorting work on mixed lists out of the box.

Fields are interned: ``BaseField.of(kind, p)`` builds one field per
(kind, p), as ``ffield.FiniteField.of(p, k)`` does per (p, k), so every
field check is an identity test.  The kind is decided there, once: Q is a
``QField`` with ``QElem`` elements, F_p(t) an ``FptField`` with ``FptElem``
elements.  ``FieldElem`` holds the operators that the Q, F_p(t) and
GF(p^k) elements share; each element class adds only ``is_zero``,
``__add__``, ``__neg__``, ``__mul__``, ``inverse`` and ``__str__``, and
``QElem`` also a one-step ``__sub__``.

A Q element's payload is a Python ``int`` when the element is integral and a
``Fraction`` only otherwise; every operation normalizes its result, so the
integral coefficients of the common case (a monic integral key divides an
integral polynomial with integral quotients) cost native int arithmetic.
Values stay ``Fraction``.  One trap: with int operands ``1 / n``, ``n / m``
and ``n ** -k`` are floats, so ``QElem.inverse`` builds ``Fraction(1, n)``.
The constructors are exact: every field's ``from_int`` takes only ints, and
``QField.from_fraction`` only ints and Fractions; anything else, a float
above all, raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import fppoly


class InvariantError(RuntimeError):
    """An internal invariant was violated; callers map this to exit code 3."""


class _Infinity:
    """The single infinite value; compares above every Fraction."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("maclane-INF")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ValueError("negating inf is undefined")

    def __repr__(self):
        return "inf"


INF = _Infinity()

# Value = Fraction | INF
Value = object


def vmul(n: int, v):
    """n * v for an integer n >= 0 and a Value; 0 * inf is rejected."""
    if v is INF:
        if n == 0:
            raise ValueError("0 * inf is undefined")
        return INF
    return n * v


def parse_value(s: str):
    s = s.strip()
    if s == "inf":
        return INF
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in value {s!r}") from None


def format_value(v) -> str:
    if v is INF:
        return "inf"
    return str(Fraction(v))


def _as_int(n) -> int:
    """n as an int; anything that is not an int (a float, a Fraction) raises
    ValueError, so that no inexact number enters a field."""
    if type(n) is not int:
        if not isinstance(n, int):
            raise ValueError(f"expected an int, got {n!r}")
        n = int(n)
    return n


def _rational(q):
    """The Q payload of the int or Fraction q: an int exactly when q is integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    """Reject p unless it is a prime below 2^32, where trial division takes
    about 10 ms."""
    if p >= 2 ** 32:
        raise ValueError(f"p must be a prime below 2^32, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True, eq=False)
class BaseField:
    """One of the two supported coefficient fields with its normalized valuation.

    kind "Q"   : rational numbers with the p-adic valuation v_p, v_p(p) = 1.
    kind "Fpt" : rational functions F_p(t) with the t-adic valuation v_t,
                 v_t(t) = 1.  Only the place t is supported.

    Build fields with ``BaseField.of``; there is one field per (kind, p), so
    fields compare and hash by identity.  ``kind`` is a read-only label.
    """

    p: int

    @classmethod
    def of(cls, kind: str, p: int) -> "BaseField":
        if kind not in _KINDS:
            raise ValueError(f"unknown base field kind {kind!r}")
        _check_prime(p)
        return _base_field_of(kind, p)

    @classmethod
    def rationals(cls, p: int) -> "BaseField":
        return cls.of("Q", p)

    @classmethod
    def rational_functions(cls, p: int) -> "BaseField":
        return cls.of("Fpt", p)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "BaseElem":
        return self.from_int(0)

    def one(self) -> "BaseElem":
        return self.from_int(1)

    # -- valuation and residue ------------------------------------------------

    def valuation(self, a: "BaseElem"):
        """v_p or v_t of a, as a Fraction with denominator 1; inf at zero."""
        if self._own(a).is_zero():
            return INF
        return Fraction(self._order(a.payload))

    def residue(self, a: "BaseElem") -> int:
        """Image of a in the residue field F_p; requires valuation exactly 0."""
        if self.valuation(a) != 0:
            raise ValueError("residue of an element with nonzero valuation")
        return self._residue(a.payload)

    def lift_residue(self, r: int) -> "BaseElem":
        return self.from_int(int(r) % self.p)

    def _own(self, a: "BaseElem") -> "BaseElem":
        if not isinstance(a, BaseElem) or a.field is not self:
            raise ValueError("element/field mismatch")
        return a


@dataclass(frozen=True, eq=False)
class QField(BaseField):
    """Q with v_p; elements are ``QElem``."""

    kind = "Q"

    def from_int(self, n: int) -> "QElem":
        return QElem(self, _as_int(n))

    def from_fraction(self, q) -> "QElem":
        """The element q, an int or a Fraction; anything else raises ValueError."""
        if not isinstance(q, (int, Fraction)):
            raise ValueError(f"expected an int or a Fraction, got {q!r}")
        return QElem(self, _rational(q))

    def uniformizer(self) -> "QElem":
        return self.from_int(self.p)

    def derivation(self, a: "QElem") -> "QElem":
        """The zero derivation: Q has no other."""
        return self._own(a).field.zero()

    def _order(self, q) -> int:
        return _padic(q.numerator, self.p) - _padic(q.denominator, self.p)

    def _residue(self, q) -> int:
        return (q.numerator % self.p) * pow(q.denominator, -1, self.p) % self.p

    def __str__(self):
        return f"Q(v_{self.p})"


@dataclass(frozen=True, eq=False)
class FptField(BaseField):
    """F_p(t) with v_t; elements are ``FptElem``."""

    kind = "Fpt"

    def from_int(self, n: int) -> "FptElem":
        return FptElem(self, (fppoly.trim([_as_int(n)], self.p), (1,)))

    def t(self) -> "FptElem":
        return FptElem(self, ((0, 1), (1,)))

    def uniformizer(self) -> "FptElem":
        return self.t()

    def derivation(self, a: "FptElem") -> "FptElem":
        """d/dt of a, by the quotient rule (n/d)' = (n'd - nd')/d^2."""
        (n, d), p = self._own(a).payload, self.p
        dn, dd = [i * c for i, c in enumerate(n)][1:], [i * c for i, c in enumerate(d)][1:]
        num = fppoly.sub(fppoly.mul(dn, d, p), fppoly.mul(n, dd, p), p)
        return FptElem(self, _reduce_fpt(num, fppoly.mul(d, d, p), p))

    def _order(self, payload) -> int:
        num, den = payload
        return fppoly.order(num) - fppoly.order(den)

    def _residue(self, payload) -> int:
        num, den = payload
        return num[0] * pow(den[0], -1, self.p) % self.p

    def __str__(self):
        return f"F_{self.p}(t)"


_KINDS = {"Q": QField, "Fpt": FptField}


@lru_cache(maxsize=None)
def _base_field_of(kind, p):
    return _KINDS[kind](p)


def _padic(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("p-adic order of 0")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _reduce_fpt(num, den, p):
    """The normal form of num/den in F_p(t): coprime, with a monic denominator.

    The common power of t is sliced off first, with no division.  What is left
    is coprime already when the denominator is c * t^m (t no longer divides
    both parts), so the gcd and its two divisions run only when the
    denominator has a nonzero coefficient below its leading one.
    """
    num = fppoly.trim(num, p)
    den = fppoly.trim(den, p)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ((), (1,))
    j = min(fppoly.order(num), fppoly.order(den))
    if j:
        num, den = num[j:], den[j:]
    if any(den[:-1]):
        g = fppoly.gcd(num, den, p)
        num = fppoly.div_mod(num, g, p)[0]
        den = fppoly.div_mod(den, g, p)[0]
    if den[-1] != 1:
        c = pow(den[-1], -1, p)
        num = fppoly.scal(c, num, p)
        den = fppoly.scal(c, den, p)
    return (num, den)


class FieldElem:
    """An element of an interned field, with the operators every kind shares.

    ``payload`` is the element's unique normal form in its field, so equality
    and hashing compare payloads.  A subclass supplies ``is_zero``,
    ``__add__``, ``__neg__``, ``__mul__``, ``inverse``, ``__str__`` and
    ``_ONE``, the payload of 1; its field supplies ``from_int`` and ``one``.
    Ints coerce into the field; an element of another field raises ValueError.
    """

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def __bool__(self):
        return not self.is_zero()

    def is_one(self) -> bool:
        return self.payload == self._ONE

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise ValueError("element/field mismatch")
            return other
        return NotImplemented

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r = self.field.one()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other):
        if isinstance(other, int):
            # where p = 0, only the ints 0, ..., p-1 equal elements, and hash like them
            if other not in range(self.field.p) and self.field.from_int(self.field.p).is_zero():
                return False
            other = self.field.from_int(other)
        if not isinstance(other, FieldElem) or other.field is not self.field:
            return NotImplemented
        return self.payload == other.payload

    def __hash__(self):
        return hash(self.payload)

    def __repr__(self):
        return f"<{self} in {self.field}>"


class BaseElem(FieldElem):
    """An element of a BaseField: a ``QElem`` or an ``FptElem``."""

    __slots__ = ()


class QElem(BaseElem):
    """An element of Q; the payload is an int when the element is integral
    and a Fraction otherwise (never a float; see the module docstring)."""

    __slots__ = ()
    _ONE = 1

    def is_zero(self) -> bool:
        return not self.payload

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QElem(self.field, _rational(self.payload + o.payload))

    def __sub__(self, other):
        # one native subtraction in place of FieldElem's negate-then-add
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QElem(self.field, _rational(self.payload - o.payload))

    def __neg__(self):
        return QElem(self.field, -self.payload)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QElem(self.field, _rational(self.payload * o.payload))

    def inverse(self) -> "QElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # Fraction(1, n), not 1 / n, which is a float when n is an int
        return QElem(self.field, _rational(Fraction(1, self.payload)))

    def __str__(self):
        return str(self.payload)


class FptElem(BaseElem):
    """An element of F_p(t); the payload is a reduced (numerator, monic
    denominator) pair of F_p[t] tuples.

    ``_reduce_fpt`` builds the pair; when the denominator is a power of t
    times a constant, as for Laurent polynomials, that takes no gcd."""

    __slots__ = ()
    _ONE = ((1,), (1,))

    def is_zero(self) -> bool:
        return not self.payload[0]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        (an, ad), (bn, bd) = self.payload, o.payload
        num = fppoly.add(fppoly.mul(an, bd, p), fppoly.mul(bn, ad, p), p)
        return FptElem(self.field, _reduce_fpt(num, fppoly.mul(ad, bd, p), p))

    def __neg__(self):
        (n, d) = self.payload
        return FptElem(self.field, (fppoly.neg(n, self.field.p), d))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        (an, ad), (bn, bd) = self.payload, o.payload
        return FptElem(self.field, _reduce_fpt(fppoly.mul(an, bn, p), fppoly.mul(ad, bd, p), p))

    def inverse(self) -> "FptElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        (n, d) = self.payload
        return FptElem(self.field, _reduce_fpt(d, n, self.field.p))

    def __hash__(self):
        # a constant hashes like the int c in range(p) that it equals
        num, den = self.payload
        return hash(sum(num) if len(num) < 2 and den == (1,) else self.payload)

    def __str__(self):
        num, den = self.payload
        ns = fppoly.to_str(num, "t")
        if den == (1,):
            return ns
        ds = fppoly.to_str(den, "t")
        if len([c for c in num if c]) > 1:
            ns = f"({ns})"
        if len([c for c in den if c]) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"
