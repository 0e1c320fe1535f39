"""Approaching a polynomial F through augmentations.

The approach set of F consists of the chains whose initial form of F is not
yet a unit: those are exactly the valuations that can still be augmented to
increase the value of F.  This module decides membership, computes the
maximal augmentation value for a key (the first slope of the Newton polygon
of F in that key), factors initial forms into key initial forms, and
enumerates the branches of the augmentation tree to at most ``MAX_DEPTH``
augmentations, reporting per-branch ramification and residue degree.

The enumeration takes any monic, squarefree F of degree >= 1, reducible or
not; each branch carries the irreducible factors of F over the completion
that it approaches.  Squarefreeness is not tested up front: a repeated
factor can only end its branch at a support node, and there it is detected
exactly (see ``enumerate_extensions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import INF, InvariantError, format_value
from .poly import Polynomial
from . import ffield
from .chains import MacLaneChain
from .newton import NewtonPolygon

# Depth cap of the augmentation tree, echoed as "budget" in the survey JSON.
# A branch that reaches it is reported as non-terminal "budget-exhausted".
MAX_DEPTH = 16


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
    alpha = _branch_values(chain, q, f)[0]
    if not alpha > chain.valuate(q):
        raise InvariantError("polygon slope does not exceed the key value")
    return alpha


def _branch_values(chain: MacLaneChain, q: Polynomial, f: Polynomial) -> list:
    """The values to augment q at toward f, largest first: inf when q divides
    f, then the negated slopes of the Newton polygon of f in q, whose points
    of infinite value (zero digits) are dropped."""
    values = chain.truncate(q, f).digit_values
    alphas = [INF] if values[0] is INF else []
    return alphas + [-side.slope for side in NewtonPolygon.from_points(enumerate(values)).sides]


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
    """Enumerate extension branches for monic, squarefree f of degree >= 1.

    f may be reducible.  Branching starts from the Gauss valuation's branch
    values on x: at inf first when x divides f, then one branch seed per side
    of the Newton polygon of f in x, at the negated slope.  It recurses
    through the non-key entries of each node's graded factorization: at inf
    first when the entry's key q divides f, then at each side of the polygon
    of f (or f/q) in q whose negated slope exceeds v(q).  The in(key) part is
    not branched on: it lies on steeper sides of the parent's polygon, which
    are the node's siblings.

    A node is terminal when its chain is a support chain, or when the argmin
    spread of f along the minimal key is exactly one (stabilized: the branch
    pins a single extension and its invariants no longer change).  When a
    single multiplicity-one entry remains and f itself is a key polynomial,
    the branch closes immediately with the support chain [chain; (f, inf)].

    Squarefreeness is checked where a certificate is issued: a support node
    whose generator phi has phi^2 | f raises ValueError.  That one division
    is exact.  Let f = g^2 h with g irreducible over the completion.  A
    stabilized node with minimal key phi carries a single simple factor of f,
    of degree deg phi.  g has degree >= deg phi, since a polynomial of lower
    degree than a key has a unit initial form, so the g^2 part of a branch
    through g's roots has degree >= 2 deg phi and that branch never
    stabilizes.  It is certified only at a support node, whose generator is
    irreducible and divides f, so it is g.  Hence a non-squarefree f is
    rejected or reported with a non-terminal branch, never certified.
    """
    if f.degree() < 1:
        raise ValueError("expected a polynomial of degree >= 1")
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
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
        if vf is INF:
            phi = chain.support_generator()
            if ((f // phi) % phi).is_zero():
                raise ValueError(f"f is not squarefree: ({phi})^2 divides it")
            reason = "support"
        else:
            tr = chain.truncate(chain.minimal_key(), f)
            spread = max(tr.s_set) - min(tr.s_set)
            if spread == 0:
                raise InvariantError("node left the approach set or is a pure key power")
            reason = "stabilized" if spread == 1 else None
        nid = tree.add_node(f"{chain}\nvalue(f) = {format_value(vf)}", reason is not None)
        tree.add_edge(parent, nid, edge_label)
        if reason is not None:
            reports.append(BranchReport(
                chain, True, reason,
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
            vq = chain.valuate(q)
            for alpha in _branch_values(chain, q, f):
                if alpha > vq:
                    explore(chain.augment(q, alpha), depth + 1, nid,
                            f"{entry.factor} -> {format_value(alpha)}")

    x = Polynomial.x(base)
    for alpha in _branch_values(MacLaneChain.gauss(base), x, f):
        seed = MacLaneChain.stage_one(base, x, alpha)
        label = "x divides f; value inf" if alpha is INF else f"side slope {format_value(-alpha)}"
        explore(seed, 1, root, label)
    return ExtensionSurvey(base, f, tuple(reports), tree)
