"""Approaching an irreducible polynomial F through augmentations.

The approach set of F consists of the chains whose initial form of F is not
yet a unit: those are exactly the valuations that can still be augmented to
increase the value of F.  This module decides membership, computes the
maximal augmentation value for a key (the first slope of the Newton polygon
of F in that key), factors initial forms into key initial forms, and
enumerates the branches of the augmentation tree to at most ``MAX_DEPTH``
augmentations, reporting per-branch ramification and residue degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import INF, InvariantError, format_value
from .poly import Polynomial
from . import ffield
from .chains import MacLaneChain
from .newton import NewtonPolygon, newton_polygon

# Depth cap of the augmentation tree, echoed as "budget" in the survey JSON.
# A branch that reaches it is reported as non-terminal "budget-exhausted".
MAX_DEPTH = 16


# -- cheap reducibility screen ------------------------------------------------


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


_SCREEN_BOUND = 10 ** 6


def screen_irreducible(f: Polynomial) -> None:
    """Raise ValueError when f is provably reducible by cheap tests.

    Passing the screen is not a proof of irreducibility: over Q it runs the
    rational root test (complete for degrees 2 and 3 when coefficients are
    small), over F_p(t) it only tries constant roots.  Callers that need a
    guarantee must supply polynomials known to be irreducible.
    """
    if f.degree() < 1:
        raise ValueError("constant polynomials are not irreducible")
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    if f.degree() == 1:
        return
    base = f.field
    if f.constant_coeff().is_zero():
        raise ValueError("reducible: divisible by x")
    if base.kind == "Q":
        from math import lcm

        den = 1
        for c in f.coeffs:
            den = lcm(den, c.payload.denominator)
        ints = [int(c.payload * den) for c in f.coeffs]
        if abs(ints[0]) > _SCREEN_BOUND or den > _SCREEN_BOUND:
            return
        for a in _divisors(ints[0]):
            for b in _divisors(den):
                for num in (a, -a):
                    r = Fraction(num, b)
                    if f(base.from_fraction(r)).is_zero():
                        raise ValueError(f"reducible: rational root {r}")
    else:
        if base.p <= 100:
            for c in range(base.p):
                if f(base.from_int(c)).is_zero():
                    raise ValueError(f"reducible: constant root {c}")


# -- membership and maximal augmentation ---------------------------------------


def in_VF(chain: MacLaneChain, f: Polynomial) -> bool:
    """Whether the chain still approaches f: in(f) is not a unit.

    A support chain whose generator divides f is the terminal object of the
    approach and counts as a member.
    """
    if f.is_zero():
        raise ValueError("cannot approach the zero polynomial")
    if chain.valuate(f) is INF:
        return True
    return not chain.is_unit_in_graded(f)


def already_maximal(chain: MacLaneChain, f: Polynomial) -> bool:
    """Whether no augmentation of the chain can increase the value of f."""
    if f.is_zero():
        raise ValueError("cannot approach the zero polynomial")
    if chain.valuate(f) is INF:
        return True
    return chain.is_unit_in_graded(f)


def max_augmentation_value(chain: MacLaneChain, q: Polynomial, f: Polynomial):
    """Largest alpha with [chain; (q, alpha)] still approaching f.

    Requires in(q) | in(f).  Returns inf when q literally divides f; otherwise
    the negative of the first slope of the Newton polygon of f in q.
    """
    if not chain.divides_in_graded(q, f):
        raise ValueError("in(q) does not divide in(f)")
    if chain.truncate(q, f).digits[0].is_zero():
        return INF
    alpha = -newton_polygon(chain, q, f).first_slope()
    if not alpha > chain.valuate(q):
        raise InvariantError("polygon slope does not exceed the key value")
    return alpha


def augment_toward(chain: MacLaneChain, f: Polynomial) -> MacLaneChain:
    """One approach step toward f.

    Augments along the first entry of the graded factorization, which is the
    current key while in(key) still divides in(f) and a lifted residual
    factor once the boundary is reached.  When the approach branches this
    follows the entry with the smallest proposed value.
    """
    if already_maximal(chain, f):
        raise ValueError("the chain is already maximal for f")
    entry = graded_factorization(chain, f).entries[0]
    out = chain.augment(entry.key, entry.proposed_value)
    if out.valuate(f) is not INF and not out.valuate(f) > chain.valuate(f):
        raise InvariantError("augmentation failed to increase the value of f")
    return out


# -- graded factorization ---------------------------------------------------------


@dataclass(frozen=True)
class FactorEntry:
    factor: str                 # irreducible residual factor, in y
    key: Polynomial             # key polynomial carrying this factor
    multiplicity: int
    proposed_value: object      # Fraction | INF: max augmentation value for key
    is_current_key: bool        # True for the in(key) part itself

    def to_json(self):
        return {
            "factor": self.factor,
            "key": str(self.key),
            "multiplicity": self.multiplicity,
            "proposed_value": format_value(self.proposed_value),
            "is_current_key": self.is_current_key,
        }


@dataclass(frozen=True)
class GradedFactorSummary:
    value: object               # value of f under the chain
    i0: int
    j0: int
    unit_const: str             # leading residual coefficient
    entries: tuple
    is_unit: bool

    def to_json(self):
        return {
            "value": format_value(self.value),
            "normalizer": {"key_exp": self.i0, "unif_exp": self.j0, "unit": self.unit_const},
            "entries": [e.to_json() for e in self.entries],
            "is_unit": self.is_unit,
        }


def _entry_order(e: FactorEntry):
    if e.proposed_value is INF:
        return (1, Fraction(0), e.factor)
    return (0, e.proposed_value, e.factor)


def graded_factorization(chain: MacLaneChain, f: Polynomial) -> GradedFactorSummary:
    """Factor in(f) into initial forms of key polynomials.

    in(f) = unit * in(key)^m0 * prod in(Q_h)^m_h, where the Q_h lift the
    irreducible residual factors h distinct from y.  Each entry carries its
    maximal augmentation value; entries are sorted by that value, then by
    the factor.  in(f) is a unit exactly when there are no entries.
    """
    if f.is_zero():
        raise ValueError("cannot factor the initial form of zero")
    if chain.is_support():
        raise ValueError("the graded ring of a support chain has no key factors")
    fbar, i0, j0, v = chain.reduce(f)
    unit, factors = ffield.ff_factor(fbar)
    st = chain.stages[-1]
    entries = []
    phi_mult = i0
    for h, m in factors:
        if h.degree() == 1 and h.coeff(0).is_zero():
            phi_mult += st.rel_denom * m
            continue
        key = chain.lift_residual(h)
        entries.append(FactorEntry(str(h), key, m, max_augmentation_value(chain, key, f), False))
    if phi_mult > 0:
        key = chain.minimal_key()
        entries.append(FactorEntry("y", key, phi_mult, max_augmentation_value(chain, key, f), True))
    entries.sort(key=_entry_order)
    return GradedFactorSummary(v, i0, j0, str(unit), tuple(entries), not entries)


# -- augmentation tree ---------------------------------------------------------------


class AugmentationTree:
    """Record of the explored augmentation nodes, exportable to DOT."""

    def __init__(self):
        self.nodes = []          # (id, label, terminal)
        self.edges = []          # (parent, child, label)

    def add_node(self, label: str, terminal: bool = False) -> int:
        ident = len(self.nodes)
        self.nodes.append((ident, label, terminal))
        return ident

    def add_edge(self, parent: int, child: int, label: str = ""):
        self.edges.append((parent, child, label))

    def to_dot(self) -> str:
        def esc(s):
            return s.replace("\\", "\\\\").replace('"', '\\"')

        out = ["digraph augmentations {", '  node [shape=box, fontname="monospace"];']
        for ident, label, terminal in self.nodes:
            extra = ", peripheries=2" if terminal else ""
            out.append(f'  n{ident} [label="{esc(label)}"{extra}];')
        for a, b, label in self.edges:
            attr = f' [label="{esc(label)}"]' if label else ""
            out.append(f"  n{a} -> n{b}{attr};")
        out.append("}")
        return "\n".join(out)


@dataclass(frozen=True)
class BranchReport:
    """One branch of the augmentation tree.

    terminal=True means certified: either a support chain (the branch carries
    the valuation with value inf on f) or a stabilized chain whose argmin
    spread is one, pinning a single extension.  terminal=False means the
    branch reached ``MAX_DEPTH``; e and f are then lower bounds.
    """

    chain: MacLaneChain
    terminal: bool
    reason: str                 # "support" | "stabilized" | "budget-exhausted"
    e: int
    f: int
    rounds: int

    def to_json(self):
        return {
            "chain": str(self.chain),
            "stages": [[str(st.key), format_value(st.value)] for st in self.chain.stages],
            "terminal": self.terminal,
            "reason": self.reason,
            "e": self.e,
            "f": self.f,
            "rounds": self.rounds,
        }


@dataclass(frozen=True)
class ExtensionSurvey:
    base: object
    poly: Polynomial
    reports: tuple
    tree: AugmentationTree

    def to_json(self):
        certified = all(r.terminal for r in self.reports)
        return {
            "base": str(self.base),
            "poly": str(self.poly),
            "budget": MAX_DEPTH,
            "count_lower_bound": len(self.reports),
            "all_terminal": certified,
            "sum_ef": sum(r.e * r.f for r in self.reports),
            "branches": [r.to_json() for r in self.reports],
        }


def count_extensions_lower_bound(survey: ExtensionSurvey) -> int:
    """Distinct branches found; each carries at least one extension of the
    base valuation to K[x]/(f), so this bounds their number from below."""
    return len(survey.reports)


def enumerate_extensions(base, f: Polynomial) -> ExtensionSurvey:
    """Enumerate extension branches for irreducible monic f.

    Branching starts from the sides of the Newton polygon of f in x (one
    branch seed per side, at the negated slope) and recurses through the
    non-key entries of each node's graded factorization: at inf first when
    the entry's key q divides f, then at each side of the polygon of f (or
    f/q) in q whose negated slope exceeds v(q).  The in(key) part is not
    branched on: it lies on steeper sides of the parent's polygon, which are
    the node's siblings.

    A node is terminal when its chain is a support chain, or when the argmin
    spread of f along the minimal key is exactly one (stabilized: the branch
    pins a single extension and its invariants no longer change).  When a
    single multiplicity-one entry remains and f itself is a key polynomial,
    the branch closes immediately with the support chain [chain; (f, inf)].
    """
    screen_irreducible(f)
    tree = AugmentationTree()
    root = tree.add_node(f"{f}  over  {base}")
    reports = []

    if f.degree() == 1:
        chain = MacLaneChain.stage_one(base, f, INF)
        nid = tree.add_node(f"{chain}", terminal=True)
        tree.add_edge(root, nid, "deg 1")
        reports.append(BranchReport(chain, True, "support", 1, 1, 1))
        return ExtensionSurvey(base, f, tuple(reports), tree)

    def explore(chain, depth, parent, edge_label):
        vf = chain.valuate(f)
        nid = tree.add_node(f"{chain}\nvalue(f) = {format_value(vf)}")
        tree.add_edge(parent, nid, edge_label)
        if vf is INF:
            tree.nodes[nid] = (nid, tree.nodes[nid][1], True)
            reports.append(BranchReport(
                chain, True, "support",
                chain.ramification_index(), chain.inertia_degree(), depth))
            return
        tr = chain.truncate(chain.minimal_key(), f)
        spread = max(tr.s_set) - min(tr.s_set)
        if spread == 0:
            raise InvariantError("node left the approach set or is a pure key power")
        if spread == 1:
            tree.nodes[nid] = (nid, tree.nodes[nid][1], True)
            reports.append(BranchReport(
                chain, True, "stabilized",
                chain.ramification_index(), chain.inertia_degree(), depth))
            return
        summary = graded_factorization(chain, f)
        branch_entries = [e for e in summary.entries if not e.is_current_key]
        if len(branch_entries) == 1 and branch_entries[0].multiplicity == 1 \
                and not any(e.is_current_key for e in summary.entries) \
                and chain.is_key_polynomial(f):
            child = chain.augment(f, INF)
            explore(child, depth + 1, nid, "f is key; value inf")
            return
        if depth >= MAX_DEPTH:
            reports.append(BranchReport(
                chain, False, "budget-exhausted",
                chain.ramification_index(), chain.inertia_degree(), depth))
            return
        for entry in branch_entries:
            q = entry.key
            values = chain.truncate(q, f).digit_values
            alphas = [INF] if values[0] is INF else []
            alphas += [-side.slope for side in NewtonPolygon.from_points(enumerate(values)).sides]
            vq = chain.valuate(q)
            for alpha in alphas:
                if alpha > vq:
                    explore(chain.augment(q, alpha), depth + 1, nid,
                            f"{entry.factor} -> {format_value(alpha)}")

    gauss = MacLaneChain.gauss(base)
    poly = newton_polygon(gauss, Polynomial.x(base), f)
    for side in poly.sides:
        alpha = -side.slope
        seed = MacLaneChain.stage_one(base, Polynomial.x(base), alpha)
        explore(seed, 1, root, f"side slope {format_value(side.slope)}")
    return ExtensionSurvey(base, f, tuple(reports), tree)
