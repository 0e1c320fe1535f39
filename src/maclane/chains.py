"""Inductive valuation chains on K[x].

A chain is a finite list of stages (phi_1, lambda_1), ..., (phi_t, lambda_t)
with monic keys phi_i of nondecreasing degree and values lambda_i in
Q ∪ {inf}; only the last value may be inf, in which case the chain is the
valuation with support (phi_t) pulled back from K[x]/(phi_t).  Evaluation is
recursive: expand f in phi_t, value each digit by the previous stages, and
take min(value(f_i) + i*lambda_t).

Every value, argmin set, Newton polygon and residual polynomial is read off
one memoized object per (f, q), the ``TruncationData`` of ``_expansion``,
kept on the stage whose prefix values its digits: sound because a stage only
ever sits on the prefix it was built on, which the chain constructor checks.
So are ``Stage.keys``, the one key test per (stage, q) that both
``is_key_polynomial`` and the construction of the next stage read, and
``Stage.reductions``, the one graded reduction per (stage, f) that
``reduce``, the key test and the reduction of a digit one stage up read.

Each stage carries the combinatorial data of its graded ring: the value
group denominator D_s, the relative ramification d_s = D_s/D_{s-1}, the
scaled value n_s = lambda_s * D_s with a Bezout pair a*n + b*d = 1, and the
residue field k_s = k_{s-1}[z]/(R_s) flattened to GF(p^f), where R_s is the
residual polynomial of phi_s over the previous stages.  ``reduce`` computes
residual polynomials (the degree-zero content of an initial form in the
graded ring), ``lift_residual`` inverts it, producing a monic key with a
prescribed residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .base import INF, BaseField, InvariantError, format_value, parse_value, vmul
from .poly import Polynomial, q_expansion, parse_polynomial
from . import ffield
from .ffield import FFPoly, FiniteField


class Stage:
    __slots__ = (
        "key", "value", "denom", "rel_denom", "numer",
        "bez_a", "bez_b", "res_field", "residual", "embed", "z_root", "to_prev",
        "expansions", "keys", "reductions", "below",
    )

    def __init__(self, key, value, denom, rel_denom, numer, bez_a, bez_b,
                 res_field, residual, embed, z_root, to_prev, below=None):
        self.key = key
        self.value = value
        self.denom = denom
        self.rel_denom = rel_denom
        self.numer = numer
        self.bez_a = bez_a
        self.bez_b = bez_b
        self.res_field = res_field
        self.residual = residual       # FFPoly over the previous residue field, None at stage 1
        self.embed = embed             # k_{s-1} -> k_s
        self.z_root = z_root           # image of the key in k_s (root of residual)
        self.to_prev = to_prev         # k_s -> list of k_{s-1} coefficients in powers of z_root
        self.below = below             # the stage this one was built on, None at stage 1
        # (f, q) -> TruncationData, q -> key residual or None, f -> reduction, under
        # the stages up to this one; sound because a Stage only ever sits on the
        # prefix it was built on
        self.expansions = {}
        self.keys = {}
        self.reductions = {}


def _bezout(n: int, d: int):
    """a, b with a*n + b*d = 1 and 0 <= a < d; requires gcd(n, d) = 1."""
    if d == 1:
        return 0, 1 - 0 * n
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
    __slots__ = ("base", "stages")

    def __init__(self, base: BaseField, stages):
        self.base = base
        self.stages = tuple(stages)
        if not self.stages:
            raise ValueError("a chain needs at least one stage")
        for below, st in zip((None,) + self.stages, self.stages):
            if below is not None and below.value is INF:
                raise ValueError("inf value before the last stage")
            if st.below is not below:
                raise ValueError("a stage sits on a prefix it was not built on")

    # -- construction ----------------------------------------------------------

    @classmethod
    def stage_one(cls, base: BaseField, key: Polynomial, value) -> "MacLaneChain":
        """Build a one-stage chain (key, value); key must be monic of degree 1."""
        if key.field is not base:
            raise ValueError("element/field mismatch")
        if key.degree() != 1 or not key.is_monic():
            raise ValueError("the first key must be monic of degree 1")
        if value is INF:
            denom, rel, numer = 1, 1, 0
        else:
            value = Fraction(value)
            denom = value.denominator
            rel = denom
            numer = value.numerator
        a, b = _bezout(numer, rel)
        k1 = FiniteField.of(base.p, 1)
        return cls(base, (Stage(key, value, denom, rel, numer, a, b, k1, None, None, None, None),))

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

    def minimal_key(self) -> Polynomial:
        """The minimal-degree key polynomial of the chain: its last key."""
        return self.stages[-1].key

    def last_value(self):
        return self.stages[-1].value

    def is_support(self) -> bool:
        return self.stages[-1].value is INF

    def support_generator(self):
        return self.stages[-1].key if self.is_support() else None

    def ramification_index(self) -> int:
        """Index of the base value group Z inside the chain's value group."""
        return self.stages[-1].denom

    def inertia_degree(self) -> int:
        f = 1
        for st in self.stages:
            if st.residual is not None:
                f *= st.residual.degree()
        return f

    def residue_constant_field(self) -> FiniteField:
        return self.stages[-1].res_field

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
        return self._value(f, len(self.stages))

    def _value(self, f, s):
        """Value of f under the first s stages."""
        if f.is_zero():
            return INF
        if s == 0:
            if f.degree() > 0:
                raise InvariantError("nonconstant digit at stage 0")
            return self.base.valuation(f.constant_coeff())
        return self._expansion(f, self.stages[s - 1].key, s).value

    def _expansion(self, f, q, s) -> TruncationData:
        """The q-expansion of f valued by the first s stages, memoized on stage s.
        A digit of lower degree than key s has the same value under s - 1 stages."""
        st = self.stages[s - 1]
        data = st.expansions.get((f, q))
        if data is None:
            digits = q_expansion(f, q).digits
            vq = st.value if q == st.key else self._value(q, s)
            m = st.key.degree()
            dvs = tuple(self._value(d, s - 1 if d.degree() < m else s) for d in digits)
            tvs = tuple(dv if i == 0 else dv + vmul(i, vq) for i, dv in enumerate(dvs))
            best = min(tvs)
            s_set = frozenset(i for i, tv in enumerate(tvs) if tv == best)
            data = st.expansions[(f, q)] = TruncationData(best, s_set, tvs, digits, dvs)
        return data

    def truncate(self, q: Polynomial, f: Polynomial) -> TruncationData:
        """The q-expansion of f with its digits and terms valued by the chain."""
        if f.is_zero():
            raise ValueError("truncation of the zero polynomial")
        if q.field is not self.base:
            raise ValueError("element/field mismatch")
        return self._expansion(f, q, len(self.stages))

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
        keys = self.stages[-1].keys
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
        prefix = self.stages[:-1] if q.degree() == self.minimal_key().degree() else self.stages
        if not prefix:
            return MacLaneChain.stage_one(self.base, q, alpha)
        stage = _build_stage(self.base, prefix, q, alpha)
        return MacLaneChain(self.base, prefix + (stage,))

    # -- graded reduction and lifting ----------------------------------------------------

    def reduce(self, f: Polynomial):
        """Residual data of f: (fbar, i0, j0, v) where v = valuate(f), fbar is a
        polynomial over the residue constant field whose coefficients are read at
        the argmin lattice i0 + rel_denom * m, and j0 is the uniformizer exponent
        of the monomial normalizer in(key)^i0 * in(u)^j0."""
        if f.is_zero():
            raise ValueError("reduction of the zero polynomial")
        return self._reduce(f, len(self.stages))

    def _reduce(self, f, s):
        """The reduction of f under the first s stages, memoized on stage s."""
        memo = self.stages[s - 1].reductions
        if f not in memo:
            memo[f] = self._reduction(f, s)
        return memo[f]

    def _reduction(self, f, s):
        st = self.stages[s - 1]
        if st.value is INF:
            raise ValueError("reduction at a support stage")
        n, d = st.numer, st.rel_denom
        ex = self._expansion(f, st.key, s)
        scaled = ex.value * st.denom
        if scaled.denominator != 1:
            raise InvariantError("digit value outside the stage value group")
        vmin = int(scaled)
        i0 = (st.bez_a * vmin) % d if d > 1 else 0
        j0 = (vmin - i0 * n) // d
        coeffs = {}
        for i in sorted(ex.s_set):
            if (i - i0) % d:
                raise InvariantError("argmin index off the residual lattice")
            digit = ex.digits[i]
            if s == 1:
                c = digit.constant_coeff() * self.base.uniformizer() ** -int(ex.digit_values[i])
                cbar = st.res_field.from_int(self.base.residue(c))
            else:
                cbar = self._graded_map(s, *self._reduce(digit, s - 1)[:3])
            if cbar.is_zero():
                raise InvariantError("graded reduction produced zero")
            coeffs[(i - i0) // d] = cbar
        return FFPoly.from_dict(st.res_field, coeffs), i0, j0, ex.value

    def _graded_map(self, s, fprev, i1, j1):
        """Push a stage-(s-1) residual element in(key')^i1 in(u')^j1 fprev(y') into
        a stage-s constant."""
        prev = self.stages[s - 2]
        st = self.stages[s - 1]
        z = st.z_root
        c = st.res_field.zero()
        for coef in reversed(fprev.coeffs):
            c = c * z + st.embed(coef)
        return c * z ** (i1 * prev.bez_b - j1 * prev.bez_a)

    def lift_residual(self, h: FFPoly, i: int = None, j: int = None, s: int = None) -> Polynomial:
        """A polynomial whose initial form is in(key)^i * in(u)^j * h(y); with the
        default exponents the result is the monic key lift of h (h irreducible with
        nonzero constant term gives a new key polynomial)."""
        s = len(self.stages) if s is None else s
        st = self.stages[s - 1]
        if st.value is INF:
            raise ValueError("lift at a support stage")
        if h.is_zero():
            raise ValueError("lift of zero")
        if h.field is not st.res_field:
            raise ValueError("residual lives in the wrong residue field")
        if i is None:
            i, j = 0, st.numer * h.degree()
        F = Polynomial.zero(self.base)
        for k2, c in enumerate(h.coeffs):
            if c.is_zero():
                continue
            ii = i + k2 * st.rel_denom
            jj = j - k2 * st.numer
            if s == 1:
                cint = c.coeffs[0]
                C = Polynomial.constant(self.base.lift_residue(cint) * self.base.uniformizer() ** jj)
            else:
                f0, i0, j0 = self._graded_map_lift(s, c, jj)
                C = self.lift_residual(f0, i0, j0, s - 1)
            F = F + C * st.key ** ii
        return F

    def _graded_map_lift(self, s, c, m):
        prev = self.stages[s - 2]
        st = self.stages[s - 1]
        i = prev.bez_a * m
        if 0 <= i < prev.rel_denom:
            j = prev.bez_b * m
            w = c
        else:
            v, i = divmod(i, prev.rel_denom)
            j = prev.numer * v + prev.bez_b * m
            w = c * st.z_root ** v
        coeffs = st.to_prev(w)
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


def _build_stage(base, prefix_stages, key, value) -> Stage:
    prev = MacLaneChain(base, prefix_stages)
    prev_st = prefix_stages[-1]
    vprev = prev.valuate(key)
    if not (value is INF or value > vprev):
        raise InvariantError("stage value does not exceed the prefix value of its key")
    if value is INF:
        denom, rel, numer = prev_st.denom, 1, 0
    else:
        denom = lcm(prev_st.denom, value.denominator)
        rel = denom // prev_st.denom
        scaled = value * denom
        numer = int(scaled)
    a, b = _bezout(numer, rel)
    residual = prev._key_residual(key)
    if residual is None:
        raise InvariantError("stage key has a divisible or reducible residual over the prefix")
    fdeg = residual.degree()
    if key.degree() != fdeg * prev_st.rel_denom * prev_st.key.degree():
        raise InvariantError("stage key degree mismatch with residual data")
    sub = prev_st.res_field
    if fdeg == 1:
        big = sub
        embed = lambda a_: a_
        z_root = -residual.coeff(0)
        to_prev = lambda w: [w]
    else:
        big = FiniteField.of(sub.p, sub.k * fdeg)
        embed = ffield.embed_into(sub, big)
        rbig = FFPoly(big, tuple(embed(c) for c in residual.coeffs))
        roots = ffield.ff_roots(rbig)
        if not roots:
            raise InvariantError("irreducible residual has no root in its splitting field")
        z_root = roots[0][0]
        basis = []
        for jj in range(fdeg):
            zj = z_root ** jj
            for ii in range(sub.k):
                basis.append(embed(sub.gen() ** ii) * zj)
        solver = ffield.linear_solver(big, basis)

        def to_prev(w, _solver=solver, _sub=sub, _fdeg=fdeg):
            coords = _solver(w)
            out = []
            for jj in range(_fdeg):
                out.append(_sub.elem(coords[jj * _sub.k:(jj + 1) * _sub.k]))
            return out

    return Stage(key, value, denom, rel, numer, a, b, big, residual, embed, z_root, to_prev, prev_st)
