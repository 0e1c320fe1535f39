"""Inductive valuation chains on K[x].

A chain is a finite list of stages (phi_1, lambda_1), ..., (phi_t, lambda_t)
with monic keys phi_i of nondecreasing degree and values lambda_i in
Q ∪ {inf}; only the last value may be inf, in which case the chain is the
valuation with support (phi_t) pulled back from K[x]/(phi_t).  A chain is
its last stage: ``MacLaneChain(base, below, key, value)`` is the augmented
valuation [below; (key, value)], and every prefix of a chain is the chain
object it was built on.  Evaluation is recursive: expand f in phi_t, value
each digit by the chain below, and take min(value(f_i) + i*lambda_t).

Every value, argmin set, Newton polygon and residual polynomial is read off
one memoized object per (f, q), the ``TruncationData`` of ``_expansion``,
kept on the chain whose values it records.  So are ``keys``, the one key
test per (chain, q) that both ``is_key_polynomial`` and the construction of
the next stage read, and ``reductions``, the one graded reduction per
(chain, f) that ``reduce``, the key test and the reduction of a digit one
stage up read.

Each chain carries the combinatorial data of its graded ring: the value
group denominator D_s, the relative ramification d_s = D_s/D_{s-1}, the
scaled value n_s = lambda_s * D_s with a Bezout pair a*n + b*d = 1, and the
residue field k_s = k_{s-1}[z]/(R_s) flattened to GF(p^f), where R_s is the
residual polynomial of phi_s over the chain below, from
``ffield.adjoin_root``.  ``reduce`` computes residual polynomials (the
degree-zero content of an initial form in the graded ring),
``lift_residual`` inverts it, producing a monic key with a prescribed
residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .base import INF, BaseField, InvariantError, format_value, parse_value, vmul
from .poly import Polynomial, q_expansion, parse_polynomial
from . import ffield
from .ffield import FFPoly, FiniteField


def _bezout(n: int, d: int):
    """a, b with a*n + b*d = 1 and 0 <= a < d; requires gcd(n, d) = 1."""
    a = pow(n % d, -1, d)
    b = (1 - a * n) // d
    return a, b


@dataclass(frozen=True)
class TruncationData:
    """The q-expansion of f valued by a chain: digits f_i, their values v(f_i),
    term values v(f_i) + i*v(q), their minimum and its argmin set."""

    value: object
    s_set: frozenset
    term_values: tuple
    digits: tuple
    digit_values: tuple


class MacLaneChain:
    """The valuation [below; (key, value)], or the first stage (key, value)
    when below is None, with the data of its graded ring."""

    __slots__ = (
        "base", "below", "key", "value", "denom", "rel_denom", "numer", "bez_a", "bez_b",
        "res_field", "residual", "embed", "z_root", "to_prev", "expansions", "keys", "reductions",
    )

    def __init__(self, base: BaseField, below, key: Polynomial, value):
        if key.field is not base or (below is not None and below.base is not base):
            raise ValueError("element/field mismatch")
        if below is None:
            if key.degree() != 1 or not key.is_monic():
                raise ValueError("the first key must be monic of degree 1")
            residual = embed = z_root = to_prev = None
            denom0 = 1
            res_field = FiniteField.of(base.p, 1)
        else:
            if below.value is INF:
                raise ValueError("cannot augment a support chain")
            if not (value is INF or value > below.valuate(key)):
                raise InvariantError("stage value does not exceed the prefix value of its key")
            residual = below._key_residual(key)
            if residual is None:
                raise InvariantError("stage key has a divisible or reducible residual over the prefix")
            if key.degree() != residual.degree() * below.rel_denom * below.key.degree():
                raise InvariantError("stage key degree mismatch with residual data")
            denom0 = below.denom
            res_field, embed, z_root, to_prev = ffield.adjoin_root(below.res_field, residual)
        if value is INF:
            denom, rel, numer = denom0, 1, 0
        else:
            value = Fraction(value)
            denom = lcm(denom0, value.denominator)
            rel = denom // denom0
            numer = int(value * denom)
        self.base, self.below, self.key, self.value = base, below, key, value
        self.denom, self.rel_denom, self.numer = denom, rel, numer
        self.bez_a, self.bez_b = _bezout(numer, rel)
        self.res_field = res_field
        self.residual = residual       # FFPoly over below's residue field, None at stage 1
        self.embed = embed             # k_{s-1} -> k_s
        self.z_root = z_root           # image of the key in k_s (root of residual)
        self.to_prev = to_prev         # k_s -> list of k_{s-1} coefficients in powers of z_root
        # (f, q) -> TruncationData, q -> key residual or None, f -> reduction
        self.expansions = {}
        self.keys = {}
        self.reductions = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def stage_one(cls, base: BaseField, key: Polynomial, value) -> "MacLaneChain":
        """The one-stage chain (key, value); key must be monic of degree 1."""
        return cls(base, None, key, value)

    @classmethod
    def gauss(cls, base: BaseField) -> "MacLaneChain":
        return cls.stage_one(base, Polynomial.x(base), Fraction(0))

    @classmethod
    def from_pairs(cls, base: BaseField, pairs) -> "MacLaneChain":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty chain")
        chain = cls.stage_one(base, pairs[0][0], pairs[0][1])
        for key, value in pairs[1:]:
            chain = chain.augment(key, value)
        return chain

    @classmethod
    def parse(cls, base: BaseField, text: str) -> "MacLaneChain":
        pairs = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                raise ValueError(f"empty chain segment in {text!r}")
            if ":" not in part:
                raise ValueError(f"chain segment {part!r} lacks a value")
            poly_s, _, val_s = part.rpartition(":")
            pairs.append((parse_polynomial(base, poly_s), parse_value(val_s)))
        return cls.from_pairs(base, pairs)

    # -- basic structure --------------------------------------------------------

    @property
    def stages(self) -> tuple:
        """The prefixes of the chain, first to last; the last is the chain."""
        return (() if self.below is None else self.below.stages) + (self,)

    def minimal_key(self) -> Polynomial:
        """The minimal-degree key polynomial of the chain: its last key."""
        return self.key

    def last_value(self):
        return self.value

    def is_support(self) -> bool:
        return self.value is INF

    def support_generator(self):
        return self.key if self.is_support() else None

    def ramification_index(self) -> int:
        """Index of the base value group Z inside the chain's value group."""
        return self.denom

    def inertia_degree(self) -> int:
        if self.below is None:
            return 1
        return self.below.inertia_degree() * self.residual.degree()

    def residue_constant_field(self) -> FiniteField:
        return self.res_field

    def __eq__(self, other):
        if not isinstance(other, MacLaneChain):
            return NotImplemented
        return self.base is other.base and [
            (st.key, st.value) for st in self.stages
        ] == [(st.key, st.value) for st in other.stages]

    def __hash__(self):
        return hash((self.base, tuple((st.key, st.value) for st in self.stages)))

    def __str__(self):
        return "; ".join(f"{st.key}:{format_value(st.value)}" for st in self.stages)

    def __repr__(self):
        return f"<chain {self} over {self.base}>"

    # -- evaluation ---------------------------------------------------------------

    def valuate(self, f: Polynomial):
        if not isinstance(f, Polynomial) or f.field is not self.base:
            raise ValueError("element/field mismatch")
        return self._value(f)

    def _value(self, f):
        if f.is_zero():
            return INF
        return self._expansion(f, self.key).value

    def _below_value(self, f):
        """Value of f, of lower degree than the key, under the chain below."""
        if self.below is not None:
            return self.below._value(f)
        if f.is_zero():
            return INF
        if f.degree() > 0:
            raise InvariantError("nonconstant digit at stage 0")
        return self.base.valuation(f.constant_coeff())

    def _expansion(self, f, q) -> TruncationData:
        """The q-expansion of f valued by the chain, memoized on it.  A digit of
        lower degree than the key has the same value under the chain below."""
        data = self.expansions.get((f, q))
        if data is None:
            digits = q_expansion(f, q).digits
            vq = self.value if q == self.key else self._value(q)
            m = self.key.degree()
            dvs = tuple(self._below_value(d) if d.degree() < m else self._value(d) for d in digits)
            tvs = tuple(dv if i == 0 else dv + vmul(i, vq) for i, dv in enumerate(dvs))
            best = min(tvs)
            s_set = frozenset(i for i, tv in enumerate(tvs) if tv == best)
            data = self.expansions[(f, q)] = TruncationData(best, s_set, tvs, digits, dvs)
        return data

    def truncate(self, q: Polynomial, f: Polynomial) -> TruncationData:
        """The q-expansion of f with its digits and terms valued by the chain."""
        if f.is_zero():
            raise ValueError("truncation of the zero polynomial")
        if q.field is not self.base:
            raise ValueError("element/field mismatch")
        return self._expansion(f, q)

    # -- graded ring tests ----------------------------------------------------------

    def is_unit_in_graded(self, f: Polynomial) -> bool:
        """Whether the initial form of f is a unit of the graded ring."""
        if f.is_zero():
            raise ValueError("zero has no initial form")
        if self.valuate(f) is INF:
            raise ValueError("f lies in the support")
        if self.is_support():
            # the graded ring of a valuation on the residue field K[x]/(phi) is
            # that of a valued field: every nonzero initial form is invertible
            return True
        return self.truncate(self.minimal_key(), f).s_set == frozenset({0})

    def divides_in_graded(self, q: Polynomial, f: Polynomial) -> bool:
        """Whether in(q) divides in(f); q must be a key polynomial."""
        if not self.is_key_polynomial(q):
            raise ValueError("q is not a key polynomial of this chain")
        if f.is_zero() or self.valuate(f) is INF:
            raise ValueError("f lies in the support")
        return 0 not in self.truncate(q, f).s_set

    def is_key_polynomial(self, q: Polynomial) -> bool:
        if not isinstance(q, Polynomial) or q.field is not self.base:
            raise ValueError("element/field mismatch")
        if q.is_zero():
            raise ValueError("the zero polynomial is not a candidate key")
        if self.is_support():
            raise ValueError("a support chain has no key polynomials")
        key = self.minimal_key()
        m = key.degree()
        if not q.is_monic() or q.degree() < 1 or q.degree() % m:
            return False
        ex = self.truncate(key, q)
        top = len(ex.digits) - 1
        if ex.digits[top] != Polynomial.one(self.base) or ex.value != vmul(top, self.last_value()):
            return False
        return q.degree() == m or (0 in ex.s_set and self._key_residual(q) is not None)

    def _key_residual(self, q):
        """The monic residual of q if it is irreducible with nonzero constant term
        and i0 = 0, else None."""
        keys = self.keys
        if q not in keys:
            fbar, i0, _, _ = self.reduce(q)
            is_key = i0 == 0 and not fbar.coeff(0).is_zero() and ffield.is_irreducible(fbar)
            keys[q] = fbar.monic() if is_key else None
        return keys[q]

    # -- augmentation -----------------------------------------------------------------

    def augment(self, q: Polynomial, alpha) -> "MacLaneChain":
        """The chain extended by (q, alpha); same-degree keys replace the last stage."""
        if self.is_support():
            raise ValueError("cannot augment a support chain")
        if not self.is_key_polynomial(q):
            raise ValueError(f"not a key polynomial for this chain: {q}")
        if alpha is not INF:
            alpha = Fraction(alpha)
        vq = self.valuate(q)
        if not alpha > vq:
            raise ValueError(
                f"augmentation value {format_value(alpha)} must exceed current value {format_value(vq)}"
            )
        below = self.below if q.degree() == self.key.degree() else self
        return MacLaneChain(self.base, below, q, alpha)

    # -- graded reduction and lifting ----------------------------------------------------

    def reduce(self, f: Polynomial):
        """Residual data of f: (fbar, i0, j0, v) where v = valuate(f), fbar is a
        polynomial over the residue constant field whose coefficients are read at
        the argmin lattice i0 + rel_denom * m, and j0 is the uniformizer exponent
        of the monomial normalizer in(key)^i0 * in(u)^j0."""
        if f.is_zero():
            raise ValueError("reduction of the zero polynomial")
        return self._reduce(f)

    def _reduce(self, f):
        """The reduction of f, memoized on the chain."""
        memo = self.reductions
        if f not in memo:
            memo[f] = self._reduction(f)
        return memo[f]

    def _reduction(self, f):
        if self.value is INF:
            raise ValueError("reduction at a support stage")
        n, d = self.numer, self.rel_denom
        ex = self._expansion(f, self.key)
        scaled = ex.value * self.denom
        if scaled.denominator != 1:
            raise InvariantError("digit value outside the stage value group")
        vmin = int(scaled)
        i0 = (self.bez_a * vmin) % d if d > 1 else 0
        j0 = (vmin - i0 * n) // d
        coeffs = {}
        for i in sorted(ex.s_set):
            if (i - i0) % d:
                raise InvariantError("argmin index off the residual lattice")
            digit = ex.digits[i]
            if self.below is None:
                c = digit.constant_coeff() * self.base.uniformizer() ** -int(ex.digit_values[i])
                cbar = self.res_field.from_int(self.base.residue(c))
            else:
                cbar = self._graded_map(*self.below._reduce(digit)[:3])
            if cbar.is_zero():
                raise InvariantError("graded reduction produced zero")
            coeffs[(i - i0) // d] = cbar
        return FFPoly.from_dict(self.res_field, coeffs), i0, j0, ex.value

    def _graded_map(self, fprev, i1, j1):
        """Push a residual element in(key')^i1 in(u')^j1 fprev(y') of the chain
        below into a constant of this one."""
        prev = self.below
        z = self.z_root
        c = self.res_field.zero()
        for coef in reversed(fprev.coeffs):
            c = c * z + self.embed(coef)
        return c * z ** (i1 * prev.bez_b - j1 * prev.bez_a)

    def lift_residual(self, h: FFPoly, i: int = None, j: int = None) -> Polynomial:
        """A polynomial whose initial form is in(key)^i * in(u)^j * h(y); with the
        default exponents the result is the monic key lift of h (h irreducible with
        nonzero constant term gives a new key polynomial).  Digits are lifted by
        the chain below."""
        if self.value is INF:
            raise ValueError("lift at a support stage")
        if h.is_zero():
            raise ValueError("lift of zero")
        if h.field is not self.res_field:
            raise ValueError("residual lives in the wrong residue field")
        if i is None:
            i, j = 0, self.numer * h.degree()
        F = Polynomial.zero(self.base)
        for k2, c in enumerate(h.coeffs):
            if c.is_zero():
                continue
            ii = i + k2 * self.rel_denom
            jj = j - k2 * self.numer
            if self.below is None:
                cint = c.coeffs[0]
                C = Polynomial.constant(self.base.lift_residue(cint) * self.base.uniformizer() ** jj)
            else:
                f0, i0, j0 = self._graded_map_lift(c, jj)
                C = self.below.lift_residual(f0, i0, j0)
            F = F + C * self.key ** ii
        return F

    def _graded_map_lift(self, c, m):
        prev = self.below
        i = prev.bez_a * m
        if 0 <= i < prev.rel_denom:
            j = prev.bez_b * m
            w = c
        else:
            v, i = divmod(i, prev.rel_denom)
            j = prev.numer * v + prev.bez_b * m
            w = c * self.z_root ** v
        coeffs = self.to_prev(w)
        return FFPoly(prev.res_field, coeffs), i, j

    # -- comparison -----------------------------------------------------------------------

    def compare(self, other: "MacLaneChain") -> str:
        """The order of the two valuations: "le", "ge", "equal" or "incomparable".

        mu <= nu exactly when nu(phi_i) >= lambda_i at every stage (phi_i,
        lambda_i) of mu.  Necessity holds because lambda_i = mu(phi_i).  For
        sufficiency, induct on the stages: a digit f_i of the phi_t-expansion
        of f has lower degree than phi_t, so mu(f_i) is its value under the
        first t - 1 stages, which nu bounds by induction, and then
        nu(f) >= min nu(f_i) + i nu(phi_t) >= min mu(f_i) + i lambda_t = mu(f).
        """
        if not isinstance(other, MacLaneChain) or other.base is not self.base:
            raise ValueError("chains over different base fields")
        le = all(other.valuate(st.key) >= st.value for st in self.stages)
        ge = all(self.valuate(st.key) >= st.value for st in other.stages)
        if le and ge:
            return "equal"
        if le:
            return "le"
        if ge:
            return "ge"
        return "incomparable"

