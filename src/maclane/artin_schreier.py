"""Classification of x^p - x - a over F_p(t) with the t-adic valuation.

The class of the extension is decided by the values w = v(F(b)) as the
witness b ranges over improving approximations:

  w > 0          split: p branches, all unramified and trivial on residues
  w = 0          inert: the residual y^p - y + r is irreducible over F_p
  w < 0, p ∤ w   ramified: e = p, the root has value w/p
  w < 0, p | w   improvable: b' = b + t^(w/p) * eta strictly increases w

The witness starts at b = 0, where w = v(a).  Improvements run only at
negative multiples of p and strictly raise w, so at most floor(-v(a)/p) run
before a case is decided, and no cap is needed.  The complete, discretely
valued F_p((t)) has no defect, so e * f * g = p in each case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .base import INF, BaseField, InvariantError, format_value
from .poly import Polynomial
from . import ffield
from .ffield import FFPoly, FiniteField


class ASCase(enum.Enum):
    SplitP = "split-p"
    InertP = "inert-p"
    RamifiedP = "ramified-p"


@dataclass(frozen=True)
class ASReport:
    case: ASCase
    p: int
    a: object                   # BaseElem
    witness: object             # BaseElem, final b
    w: object                   # final value v(F(b))
    e: int
    f: int
    g: int
    defect: int
    improvements: int
    trace: tuple                # ((b, w), ...) with strictly increasing w
    residual: str | None        # inert case: the irreducible residual
    split_factors: tuple | None # split case: linear residual factors

    def to_json(self):
        ms = None if self.case is ASCase.SplitP else max_of_S(self)
        return {
            "case": self.case.value,
            "p": self.p,
            "a": str(self.a),
            "witness": str(self.witness),
            "w": format_value(self.w),
            "e": self.e,
            "f": self.f,
            "g": self.g,
            "defect": self.defect,
            "improvements": self.improvements,
            "trace": [[str(b), format_value(w)] for b, w in self.trace],
            "residual": self.residual,
            "split_factors": list(self.split_factors) if self.split_factors is not None else None,
            "max_of_s": "unbounded" if ms is None else [format_value(ms[0]), str(ms[1])],
        }


def artin_schreier_polynomial(base: BaseField, a) -> Polynomial:
    if base.kind != "Fpt":
        raise ValueError("Artin-Schreier classification needs a rational function field")
    a = base._own(a)
    middle = (base.zero(),) * (base.p - 2)
    return Polynomial(base, (-a, base.from_int(-1)) + middle + (base.one(),))


def split_residual(p: int):
    """The residual y^p - y at a split witness, and its linear factors.

    By Fermat the factors are y + c for c in F_p, each once; listed by c they
    are already in ``ff_factor``'s order, so no factoring runs.
    """
    gfp = FiniteField.of(p, 1)
    y = FFPoly.y(gfp)
    fbar = y ** p - y
    return fbar, [(y + gfp.from_int(c), 1) for c in range(p)]


def improve_witness(base: BaseField, a, b):
    """One improvement step at w = v(F(b)) < 0 divisible by p.

    Returns b + t^(w/p) * eta with eta^p = -res(F(b) / t^w); the new value of
    F is strictly larger than w.  By Fermat eta^p = eta in F_p, so eta = -res.
    """
    F = artin_schreier_polynomial(base, a)
    b = base._own(b)
    Fb = F(b)
    w = base.valuation(Fb)
    if w is INF or w >= 0:
        raise ValueError("improvement applies only to negative values")
    wi = int(w)
    if wi % base.p:
        raise ValueError("value prime to p admits no improvement (ramified case)")
    return _improved(base, b, Fb, wi)


def _improved(base, b, Fb, wi):
    """The step of ``improve_witness`` from Fb = F(b), of value wi."""
    t = base.uniformizer()
    r = base.residue(Fb * t ** (-wi))
    return b + t ** (wi // base.p) * base.from_int(-r)


def classify(base: BaseField, a) -> ASReport:
    """Classify x^p - x - a; the loop ends within the module docstring's bound."""
    F = artin_schreier_polynomial(base, a)
    p = base.p
    b = base.zero()
    trace = []
    improvements = 0
    while True:
        Fb = F(b)
        w = base.valuation(Fb)
        if trace and w is not INF and not w > trace[-1][1]:
            raise InvariantError("witness improvement did not increase the value")
        trace.append((b, w))
        if w is INF:
            raise ValueError(f"reducible: F({b}) = 0")
        if w > 0:
            fbar, factors = split_residual(p)
            return ASReport(
                ASCase.SplitP, p, a, b, w, 1, 1, p, 1, improvements,
                tuple(trace), None, tuple(str(h) for h, _ in factors))
        if w == 0:
            r = base.residue(Fb)
            if r % p == 0:
                raise InvariantError("zero residue at value zero")
            gfp = FiniteField.of(p, 1)
            residual = FFPoly.y(gfp) ** p - FFPoly.y(gfp) + FFPoly.from_ints(gfp, [r])
            if not ffield.is_irreducible(residual):
                raise InvariantError("inert residual is reducible")
            return ASReport(
                ASCase.InertP, p, a, b, w, 1, p, 1, 1, improvements,
                tuple(trace), str(residual), None)
        wi = int(w)
        if wi % p:
            return ASReport(
                ASCase.RamifiedP, p, a, b, w, p, 1, 1, 1, improvements,
                tuple(trace), None, None)
        b = _improved(base, b, Fb, wi)
        improvements += 1


def max_of_S(report: ASReport):
    """Maximum of S = {v(x - c) : c in K} for a root x, with its witness.

    Ramified and inert cases attain it at (w/p, b); the split case is
    unbounded above.
    """
    if report.case is ASCase.SplitP:
        raise ValueError("S is unbounded above in the split case")
    return Fraction(int(report.w), report.p), report.witness
