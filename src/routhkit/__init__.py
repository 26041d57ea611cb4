"""Exact Routh-Hurwitz stability analysis.

Counts the right-half-plane roots of a real polynomial through the Routh
array, with all arithmetic performed exactly in the field of rational
functions of a formal positive infinitesimal, so degenerate rows (zero
first elements, all-zero rows) are handled without any floating-point
tolerance.  A Hurwitz-determinant criterion and a simultaneous-iteration
root solver provide two independent cross-checks.
"""

from .errors import (DegreeTooSmall, EmptyPolynomial, EpsContaminatedRow,
                     MultipleParameters, NoParameter, OracleUnavailable,
                     OriginRoot, ParseError, PolicyUnsupported, RouthKitError,
                     UnpairedComplexRoot)
from .exact_arith import (EPSILON, POLE_AT_ZERO, EpsPoly, EpsRat, PoleAtZero,
                          Rational)
from .polynomial import Polynomial
from .routh import (EventKind, OracleSummary, Policy, RouthArray,
                    SpecialEvent, StabilityReport, Verdict,
                    auxiliary_polynomial, build_array, classify,
                    count_sign_changes)
from .hurwitz import (ExactMatrix, HurwitzDecision, hurwitz_matrix,
                      hurwitz_stable, leading_minors)
from .root_oracle import (HalfPlaneCounts, RootSet, find_roots,
                          half_plane_counts)
from .corpus import CorpusSummary, Disagreement, Lcg64, run_corpus
from .sweep import SweepResult, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Rational", "EpsPoly", "EpsRat", "EPSILON", "POLE_AT_ZERO", "PoleAtZero",
    "Polynomial",
    "Policy", "Verdict", "EventKind", "SpecialEvent", "RouthArray",
    "StabilityReport", "OracleSummary",
    "build_array", "count_sign_changes", "auxiliary_polynomial", "classify",
    "ExactMatrix", "HurwitzDecision", "hurwitz_matrix", "leading_minors",
    "hurwitz_stable",
    "RootSet", "HalfPlaneCounts", "find_roots", "half_plane_counts",
    "Lcg64", "CorpusSummary", "Disagreement", "run_corpus",
    "SweepResult", "run_sweep",
    "RouthKitError", "ParseError", "EmptyPolynomial", "UnpairedComplexRoot",
    "DegreeTooSmall", "OriginRoot", "PolicyUnsupported", "EpsContaminatedRow",
    "NoParameter", "MultipleParameters", "OracleUnavailable",
    "__version__",
]
