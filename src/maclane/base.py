"""Base fields (Q, v_p) and (F_p(t), v_t) with exact arithmetic.

Values live in Q ∪ {inf}: exact ``fractions.Fraction`` plus the single
sentinel ``INF``.  There are no floats anywhere in the valuation layer.
``INF`` absorbs addition and dominates every comparison, so ``min`` and
sorting work on mixed lists out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BaseField:
    """One of the two supported coefficient fields with its normalized valuation.

    kind "Q"   : rational numbers with the p-adic valuation v_p, v_p(p) = 1.
    kind "Fpt" : rational functions F_p(t) with the t-adic valuation v_t,
                 v_t(t) = 1.  Only the place t is supported.
    """

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in ("Q", "Fpt"):
            raise ValueError(f"unknown base field kind {self.kind!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    @classmethod
    def rationals(cls, p: int) -> "BaseField":
        return cls("Q", p)

    @classmethod
    def rational_functions(cls, p: int) -> "BaseField":
        return cls("Fpt", p)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "BaseElem":
        return self.from_int(0)

    def one(self) -> "BaseElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "BaseElem":
        if self.kind == "Q":
            return BaseElem(self, Fraction(n))
        return BaseElem(self, (fppoly.trim([n], self.p), (1,)))

    def from_fraction(self, q: Fraction) -> "BaseElem":
        if self.kind != "Q":
            raise ValueError("from_fraction on a function field")
        return BaseElem(self, Fraction(q))

    def t(self) -> "BaseElem":
        if self.kind != "Fpt":
            raise ValueError("t only exists in F_p(t)")
        return BaseElem(self, ((0, 1), (1,)))

    def uniformizer(self) -> "BaseElem":
        return self.from_int(self.p) if self.kind == "Q" else self.t()

    # -- valuation and residue ------------------------------------------------

    def valuation(self, a: "BaseElem"):
        """v_p or v_t of a, as a Fraction with denominator 1; inf at zero."""
        self._own(a)
        if a.is_zero():
            return INF
        if self.kind == "Q":
            q: Fraction = a.payload
            return Fraction(_padic(q.numerator, self.p) - _padic(q.denominator, self.p))
        num, den = a.payload
        return Fraction(fppoly.order(num) - fppoly.order(den))

    def residue(self, a: "BaseElem") -> int:
        """Image of a in the residue field F_p; requires valuation exactly 0."""
        self._own(a)
        if self.valuation(a) != 0:
            raise ValueError("residue of an element with nonzero valuation")
        if self.kind == "Q":
            q: Fraction = a.payload
            return (q.numerator % self.p) * pow(q.denominator, -1, self.p) % self.p
        num, den = a.payload
        return num[0] * pow(den[0], -1, self.p) % self.p

    def lift_residue(self, r: int) -> "BaseElem":
        return self.from_int(int(r) % self.p)

    def _own(self, a: "BaseElem") -> "BaseElem":
        if not isinstance(a, BaseElem) or a.field != self:
            raise ValueError("element/field mismatch")
        return a

    def __str__(self):
        if self.kind == "Q":
            return f"Q(v_{self.p})"
        return f"F_{self.p}(t)"


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


class BaseElem:
    """An element of a BaseField.  Payload is a Fraction for Q, a reduced
    (numerator, monic denominator) pair of F_p[t] tuples for F_p(t).

    The F_p(t) pair is unique per element, so equality and hashing compare
    payloads.  ``_reduce_fpt`` builds it; when the denominator is a power of
    t times a constant, as for Laurent polynomials, that takes no gcd."""

    __slots__ = ("field", "payload")

    def __init__(self, field: BaseField, payload):
        self.field = field
        self.payload = payload

    def is_zero(self) -> bool:
        if self.field.kind == "Q":
            return self.payload == 0
        return not self.payload[0]

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, BaseElem):
            if other.field != self.field:
                raise ValueError("element/field mismatch")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.field.kind == "Q":
            return BaseElem(self.field, self.payload + o.payload)
        p = self.field.p
        (an, ad), (bn, bd) = self.payload, o.payload
        num = fppoly.add(fppoly.mul(an, bd, p), fppoly.mul(bn, ad, p), p)
        return BaseElem(self.field, _reduce_fpt(num, fppoly.mul(ad, bd, p), p))

    __radd__ = __add__

    def __neg__(self):
        if self.field.kind == "Q":
            return BaseElem(self.field, -self.payload)
        (n, d) = self.payload
        return BaseElem(self.field, (fppoly.neg(n, self.field.p), d))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.field.kind == "Q":
            return BaseElem(self.field, self.payload * o.payload)
        p = self.field.p
        (an, ad), (bn, bd) = self.payload, o.payload
        return BaseElem(self.field, _reduce_fpt(fppoly.mul(an, bn, p), fppoly.mul(ad, bd, p), p))

    __rmul__ = __mul__

    def inverse(self) -> "BaseElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.kind == "Q":
            return BaseElem(self.field, 1 / self.payload)
        (n, d) = self.payload
        return BaseElem(self.field, _reduce_fpt(d, n, self.field.p))

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
            other = self.field.from_int(other)
        if not isinstance(other, BaseElem) or other.field != self.field:
            return NotImplemented
        return self.payload == other.payload

    def __hash__(self):
        return hash((self.field, self.payload))

    def __str__(self):
        if self.field.kind == "Q":
            return str(self.payload)
        num, den = self.payload
        ns = _tpoly_str(num, self.field.p)
        if den == (1,):
            return ns
        ds = _tpoly_str(den, self.field.p)
        if len([c for c in num if c]) > 1:
            ns = f"({ns})"
        if len([c for c in den if c]) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"<{self} in {self.field}>"


def _tpoly_str(cs, p) -> str:
    if not cs:
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
    return "+".join(parts)
