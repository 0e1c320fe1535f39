"""Exact inductive valuations on K[x] over (Q, v_p) and (F_p(t), v_t).

Augmentation chains, graded reduction and key lifting, Newton polygons with
exact rational slopes, extension-branch enumeration and the Artin-Schreier
classification, all in exact arithmetic.
"""

from .base import INF, BaseElem, BaseField, InvariantError, format_value, parse_value
from .poly import Polynomial, QExpansion, parse_element, parse_polynomial, q_expansion
from .ffield import FFElem, FFPoly, FiniteField, ff_factor, ff_roots
from .chains import MacLaneChain, Stage, TruncationData
from .newton import NewtonPolygon, Side, newton_polygon, polygon_svg
from .approach import (
    AugmentationTree,
    BranchReport,
    ExtensionSurvey,
    FactorEntry,
    GradedFactorSummary,
    already_maximal,
    augment_toward,
    count_extensions_lower_bound,
    enumerate_extensions,
    graded_factorization,
    in_VF,
    max_augmentation_value,
)
from .artin_schreier import (
    ASCase,
    ASReport,
    artin_schreier_polynomial,
    classify,
    improve_witness,
    max_of_S,
    split_residual,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BaseElem",
    "BaseField",
    "InvariantError",
    "format_value",
    "parse_value",
    "Polynomial",
    "QExpansion",
    "parse_element",
    "parse_polynomial",
    "q_expansion",
    "FFElem",
    "FFPoly",
    "FiniteField",
    "ff_factor",
    "ff_roots",
    "MacLaneChain",
    "Stage",
    "TruncationData",
    "NewtonPolygon",
    "Side",
    "newton_polygon",
    "polygon_svg",
    "AugmentationTree",
    "BranchReport",
    "ExtensionSurvey",
    "FactorEntry",
    "GradedFactorSummary",
    "already_maximal",
    "augment_toward",
    "count_extensions_lower_bound",
    "enumerate_extensions",
    "graded_factorization",
    "in_VF",
    "max_augmentation_value",
    "ASCase",
    "ASReport",
    "artin_schreier_polynomial",
    "classify",
    "improve_witness",
    "max_of_S",
    "split_residual",
]
