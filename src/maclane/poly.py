"""Univariate polynomials K[x] over a base field, with q-expansions.

``Polynomial`` is the one dense polynomial class: its arithmetic, division,
gcd, evaluation and printing also serve the residual polynomials over a
finite field (``ffield.FFPoly``, a subclass).

The q-expansion f = sum_i f_i q^i (deg f_i < deg q) by repeated Euclidean
division is the workhorse of every valuation computation here; it is exact
and round-trips by construction.

The text grammar accepted by ``parse_polynomial`` covers signed integers,
``t`` (function field only), ``x``, the operators ``+ - * / ^`` and
parentheses.  Division is only defined when the divisor is constant in x.
An exponent may not exceed ``MAX_EXPONENT`` in absolute value, nor raise the
degree in x above it; over F_p(t) it may not raise the t-degree of a
numerator or denominator above it either, and over Q it may not raise the
bit length of a numerator or denominator above ``MAX_BITS``.  A product may
not have degree in x above ``MAX_EXPONENT``, and the parsed polynomial as a
whole is held to the same t-degree and bit-length bounds, checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import BaseElem, BaseField, FieldElem

# Bounds on |e| in ``a^e``, on the degree in x of a power or a product, and
# on the t-degree (bit length over Q) of a power, checked before the result
# is computed, and of the parsed result, so that a huge input is a parse error.
MAX_EXPONENT = 1000
MAX_BITS = 10_000


class Polynomial:
    """Immutable dense polynomial, index = degree.

    Coefficients are the elements of ``field``: BaseElem over a BaseField,
    or FFElem over a FiniteField for the residual polynomials of ``FFPoly``.
    Every operation builds its result with ``type(self)``, so subclasses
    share this arithmetic; operands of two different classes never mix.
    """

    __slots__ = ("field", "coeffs")
    var = "x"

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not _is_elem_of(c, field):
                raise ValueError("element/field mismatch in coefficients")
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls(c.field, (c,))

    @classmethod
    def from_ints(cls, field, ints) -> "Polynomial":
        return cls(field, tuple(field.from_int(n) for n in ints))

    @classmethod
    def from_dict(cls, field, d) -> "Polynomial":
        """The polynomial sum d[i] x^i; absent degrees are zero."""
        if not d:
            return cls.zero(field)
        return cls(field, tuple(d.get(i, field.zero()) for i in range(max(d) + 1)))

    # -- structure ------------------------------------------------------------

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self):
        if self.is_zero():
            raise ValueError("leading coefficient of zero")
        return self.coeffs[-1]

    def constant_coeff(self):
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    # -- ring operations --------------------------------------------------------

    def _check(self, other):
        """other as a polynomial of this class and field: ints and field
        elements become constants, anything else raises ValueError."""
        if isinstance(other, Polynomial):
            if type(other) is type(self) and other.field is self.field:
                return other
        elif isinstance(other, int):
            return type(self).from_ints(self.field, (other,))
        elif _is_elem_of(other, self.field):
            return type(self).constant(other)
        raise ValueError("element/field mismatch")

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.field, (self.coeff(i) + other.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.field, (-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return type(self).zero(self.field)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return type(self)(self.field, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        return type(self)(self.field, (a * c for a in self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        r = type(self).one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not other.is_monic():
            raise ValueError("divmod requires a monic divisor")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        if len(rem) <= dq:
            return type(self).zero(self.field), self
        quo = [self.field.zero()] * (len(rem) - dq)
        # the leading term cancels by construction, and only rem[:dq] is returned
        low = other.coeffs[:-1]
        for i in range(len(rem) - dq - 1, -1, -1):
            c = rem[i + dq]
            if c.is_zero():
                continue
            quo[i] = c
            for j, b in enumerate(low):
                rem[i + j] = rem[i + j] - c * b
        return type(self)(self.field, quo), type(self)(self.field, rem[:dq])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def pow_mod(self, e: int, m: "Polynomial") -> "Polynomial":
        """self^e mod m by repeated squaring."""
        r = type(self).one(self.field) % m
        b = self % m
        while e:
            if e & 1:
                r = (r * b) % m
            b = (b * b) % m
            e >>= 1
        return r

    def derivative(self) -> "Polynomial":
        return type(self)(self.field, (self.coeffs[i] * i for i in range(1, len(self.coeffs))))

    def __call__(self, a):
        r = self.field.zero()
        for c in reversed(self.coeffs):
            r = r * a + c
        return r

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, self._check(other)
        while not b.is_zero():
            a, b = b, divmod(a, b.monic())[1]
        return a.monic()

    def __eq__(self, other):
        if isinstance(other, int):
            return len(self.coeffs) <= 1 and self.constant_coeff() == other
        if _is_elem_of(other, self.field):
            other = self._check(other)
        if type(other) is not type(self) or other.field is not self.field:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient, and so hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.field, self.coeffs))

    # -- printing ---------------------------------------------------------------

    @staticmethod
    def _needs_parens(cs: str) -> bool:
        """Whether the printed coefficient cs needs parentheses before ``*x``."""
        return any(op in cs[1:] for op in "+-/") or "*" in cs

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            if i == 0:
                term = cs
            else:
                xs = self.var if i == 1 else f"{self.var}^{i}"
                if cs == "1":
                    term = xs
                elif cs == "-1":
                    term = f"-{xs}"
                else:
                    if self._needs_parens(cs):
                        cs = f"({cs})"
                    term = f"{cs}*{xs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def __repr__(self):
        return f"<{self} over {self.field}>"


def _is_elem_of(c, field) -> bool:
    """Whether c is an element (not a polynomial) of field."""
    return isinstance(c, FieldElem) and c.field is field


@dataclass(frozen=True)
class QExpansion:
    key: Polynomial
    digits: tuple

    def reassemble(self) -> Polynomial:
        r = Polynomial.zero(self.key.field)
        for d in reversed(self.digits):
            r = r * self.key + d
        return r


def q_expansion(f: Polynomial, q: Polynomial) -> QExpansion:
    """Digits of f in base q: f = sum digits[i] * q^i with deg digits[i] < deg q."""
    if f.is_zero():
        raise ValueError("q-expansion of the zero polynomial")
    if q.is_constant() or not q.is_monic():
        raise ValueError("expansion base must be monic and nonconstant")
    digits = []
    rest = f
    while not rest.is_zero():
        rest, r = divmod(rest, q)
        digits.append(r)
    return QExpansion(q, tuple(digits))


# -- parsing -------------------------------------------------------------------


class _Parser:
    def __init__(self, field: BaseField, text: str):
        self.field = field
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ValueError(f"parse error at position {self.pos}: {msg} (in {self.text!r})")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Polynomial:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = node + self.term()
            elif ch == "-":
                self.pos += 1
                node = node - self.term()
            else:
                return node

    def term(self) -> Polynomial:
        node = self.unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                rhs = self.unary()
                if node.degree() + rhs.degree() > MAX_EXPONENT:
                    self.error(f"product degree in x is over the bound {MAX_EXPONENT}")
                node = node * rhs
            elif ch == "/":
                self.pos += 1
                den = self.unary()
                if den.degree() > 0:
                    self.error("cannot divide by a polynomial in x")
                if den.is_zero():
                    self.error("division by zero")
                node = node.scale(den.constant_coeff().inverse())
            else:
                return node

    def unary(self) -> Polynomial:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.unary()
        if ch == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> Polynomial:
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            e = self.integer()
            if abs(e) > MAX_EXPONENT or node.degree() * e > MAX_EXPONENT:
                self.error(f"exponent {e} is over the bound {MAX_EXPONENT}"
                           " on exponents and degrees")
            self.check_size(node, abs(e), f"exponent {e}")
            if e < 0:
                if node.degree() > 0:
                    self.error("negative power of x")
                if node.is_zero():
                    self.error("negative power of zero")
                return Polynomial.constant(node.constant_coeff() ** e)
            return node ** e
        return node

    def check_size(self, node, e, what):
        """Reject node^e if its t-degree over F_p(t) would pass MAX_EXPONENT, or
        its bit length over Q would pass MAX_BITS; what names the culprit."""
        if self.field.kind == "Fpt" and _t_degree(node) * e > MAX_EXPONENT:
            self.error(f"{what} takes the degree in t over the bound {MAX_EXPONENT}")
        if self.field.kind == "Q" and _bit_length(node) * e > MAX_BITS:
            self.error(f"{what} takes the bit length over the bound {MAX_BITS}")

    def atom(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected )")
            self.pos += 1
            return node
        if ch == "x":
            self.pos += 1
            return Polynomial.x(self.field)
        if ch == "t":
            if self.field.kind != "Fpt":
                self.error("t is only valid over F_p(t)")
            self.pos += 1
            return Polynomial.constant(self.field.t())
        if ch.isdigit():
            return Polynomial.from_ints(self.field, (self.integer(),))
        self.error(f"unexpected character {ch!r}")

    def integer(self) -> int:
        ch = self.peek()
        sign = 1
        if ch == "-":
            sign = -1
            self.pos += 1
            self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return sign * int(self.text[start:self.pos])


def _t_degree(f: Polynomial) -> int:
    """The largest t-degree of a numerator or denominator among f's coefficients."""
    return max((len(part) - 1 for c in f.coeffs for part in c.payload), default=0)


def _bit_length(f: Polynomial) -> int:
    """The largest bit length of a numerator or denominator among f's coefficients."""
    return max((n.bit_length() for c in f.coeffs
                for n in (c.payload.numerator, c.payload.denominator)), default=0)


def parse_polynomial(field: BaseField, text: str) -> Polynomial:
    p = _Parser(field, text)
    try:
        node = p.expr()
    except RecursionError:
        p.error("nested too deeply")
    if p.peek():
        p.error("trailing input")
    p.check_size(node, 1, "the polynomial")
    return node


def parse_element(field: BaseField, text: str) -> BaseElem:
    f = parse_polynomial(field, text)
    if f.degree() > 0:
        raise ValueError(f"expected a base field element, got a polynomial: {text!r}")
    return f.constant_coeff()
