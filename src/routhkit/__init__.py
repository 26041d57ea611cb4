"""Exact Routh-Hurwitz stability analysis.

Counts the right-half-plane roots of a real polynomial through the Routh
array, with all arithmetic performed exactly in the field of rational
functions of a formal positive infinitesimal, so degenerate rows (zero
first elements, all-zero rows) are handled without any floating-point
tolerance.  A Hurwitz-determinant criterion and a simultaneous-iteration
root solver provide two independent cross-checks.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it.  Names and submodules load
# on first access (PEP 562), so `import routhkit` alone imports none of them
# and a command pays only for the modules it uses.
_EXPORTS = {name: module for module, names in (
    ("exact_arith", "Rational EpsPoly EpsRat EPSILON POLE_AT_ZERO PoleAtZero"),
    ("polynomial", "Polynomial"),
    ("routh", "Policy Verdict EventKind SpecialEvent RouthArray StabilityReport"
              " OracleSummary build_array count_sign_changes"
              " auxiliary_polynomial classify"),
    ("hurwitz", "ExactMatrix HurwitzDecision hurwitz_matrix leading_minors"
                " hurwitz_stable"),
    ("root_oracle", "RootSet HalfPlaneCounts find_roots half_plane_counts"),
    ("corpus", "Lcg64 CorpusSummary Disagreement run_corpus"),
    ("sweep", "SweepResult run_sweep"),
    ("errors", "RouthKitError ParseError EmptyPolynomial UnpairedComplexRoot"
               " DegreeTooSmall OriginRoot PolicyUnsupported EpsContaminatedRow"
               " NoParameter MultipleParameters OracleUnavailable"),
) for name in names.split()}
_SUBMODULES = {*_EXPORTS.values(), "intpoly", "cli"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
