"""The package surface: public names, lazy submodules, record types, and the
modules each command loads in a fresh interpreter."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import routhkit
from routhkit import (CorpusSummary, Disagreement, EventKind, ExactMatrix,
                      HalfPlaneCounts, HurwitzDecision, OracleSummary, Policy,
                      Polynomial, RootSet, RouthArray, SpecialEvent,
                      StabilityReport, SweepResult, Verdict, build_array,
                      run_corpus)

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
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

SUBMODULES = ["cli", "corpus", "errors", "exact_arith", "hurwitz", "intpoly",
              "polynomial", "root_oracle", "routh", "sweep"]


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert routhkit.__all__ == PUBLIC_NAMES

    def test_every_name_resolves(self):
        for name in PUBLIC_NAMES:
            assert getattr(routhkit, name) is not None, name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from routhkit import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(routhkit, name)

    def test_names_are_the_defining_modules_objects(self):
        assert routhkit.classify is routhkit.routh.classify
        assert routhkit.PolicyUnsupported is routhkit.errors.PolicyUnsupported
        assert routhkit.EPSILON is routhkit.exact_arith.EPSILON

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            routhkit.no_such_name
        with pytest.raises(ImportError):
            exec("from routhkit import no_such_name", {})

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_is_a_package_attribute(self, name):
        module = getattr(routhkit, name)
        assert module is sys.modules[f"routhkit.{name}"]

    def test_dir_lists_names_and_submodules(self):
        assert set(PUBLIC_NAMES + SUBMODULES) <= set(dir(routhkit))


_EVENT = SpecialEvent(EventKind.ZERO_ROW, 2, "replaced every entry with e")
_ARRAY = build_array(Polynomial([1, 2, 3, 4]))
_ROOTS = RootSet((complex(-1, 0),), 0.0, True)
_COUNTS = HalfPlaneCounts(1, 0, 0)
_ORACLE = OracleSummary(_ROOTS, _COUNTS, True, None)

# each record with its fields in positional order and one value per field
RECORDS = [
    (SpecialEvent, ["kind", "row_power", "remedy"],
     [EventKind.ZERO_ROW, 2, "replaced every entry with e"]),
    (OracleSummary, ["root_set", "counts", "agreement", "unavailable"],
     [_ROOTS, _COUNTS, True, None]),
    (StabilityReport, ["first_column_signs", "sign_changes", "rhp_count",
                       "verdict", "events", "oracle_check", "array"],
     [(1, 1, 1, 1), 0, 0, Verdict.STABLE, (_EVENT,), _ORACLE, _ARRAY]),
    (RootSet, ["roots", "max_residual", "converged"],
     [(complex(-1, 0),), 0.0, True]),
    (HalfPlaneCounts, ["lhp", "rhp", "axis"], [1, 0, 0]),
    (SweepResult, ["parameter", "lo", "hi", "steps", "intervals", "samples"],
     ["K", Fraction(0), Fraction(1), 2, ((Fraction(0), Fraction(1)),),
      ((Fraction(0), "Stable"), (Fraction(1), "Stable"))]),
    (ExactMatrix, ["n", "entries"], [1, ((Fraction(1),),)]),
    (HurwitzDecision, ["stable", "minors"], [True, (Fraction(1),)]),
    (Disagreement, ["polynomial", "routh_rhp", "oracle_rhp", "expected_rhp",
                    "roots", "events"],
     ["s + 1", 0, 1, 0, (complex(-1, 0),), ("ZeroRow",)]),
    (RouthArray, ["degree", "built", "events", "policy"],
     [3, _ARRAY.built, (), Policy.AUTO]),
    (CorpusSummary, ["count", "max_degree", "seed", "lhp_only", "agreements",
                     "disagreements", "event_counts", "verdict_counts",
                     "polynomials_with_events", "nonpositive_first_columns"],
     [10, 8, 42, False, 0, (), {}, {}, 0, 0]),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, values", RECORDS,
                             ids=[r[0].__name__ for r in RECORDS])
    def test_positional_and_keyword_construction(self, cls, fields, values):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        for field, value in zip(fields, values):
            assert getattr(by_position, field) is value

    @pytest.mark.parametrize("cls, fields, values", RECORDS,
                             ids=[r[0].__name__ for r in RECORDS])
    def test_fields_are_read_only(self, cls, fields, values):
        record = cls(*values)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_oracle_summary_unavailable_defaults_to_none(self):
        assert OracleSummary(None, None, None).unavailable is None

    def test_routh_array_construction_and_rows(self):
        # a record holds only its fields (see RECORDS); the entries are
        # built from `built` on every read
        array = RouthArray(3, _ARRAY.built, (), Policy.AUTO)
        assert array.rows == array.rows == _ARRAY.rows
        assert array.first_column == tuple(row[0] for row in _ARRAY.rows)

    def test_corpus_summary_starts_empty(self):
        # fields as in RECORDS; each run builds its own tallies
        empty = CorpusSummary(10, 8, 42, False, 0, (), {}, {}, 0, 0)
        assert not empty.all_agree
        assert empty._replace(agreements=10).all_agree
        first, second = run_corpus(5, 4, 1), run_corpus(5, 4, 1)
        assert first == second
        assert first.verdict_counts is not second.verdict_counts
        assert type(first.disagreements) is tuple


# Run in a fresh interpreter: runs argv as `python -m routhkit.cli` would
# (or, after `--import-only`, only imports the package or the module named
# next) and prints, after a marker line on stderr, every module that the
# bare interpreter had not already loaded.
_PROBE = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["routhkit", *sys.argv[1:]]
try:
    if sys.argv[1] == "--import-only":
        __import__((sys.argv[2:] or ["routhkit"])[0])
    else:
        runpy.run_module("routhkit.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stderr.write("\\n-- loaded --\\n" + "\\n".join(sorted(set(sys.modules) - before)))
"""


def loaded_modules(*argv: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return set(proc.stderr.rsplit("-- loaded --\n", 1)[1].split())


# command line -> the optional routhkit modules that it needs; the field
# Q(e) is loaded only by a command that reads array entries
COMMAND_MODULES = [
    (["analyze", "--coeffs", "1,2,3,4"], {"exact_arith"}),
    (["analyze", "--coeffs", "1,0,0,0,1", "--policy", "eps-row", "--json"],
     {"exact_arith"}),
    (["analyze", "--coeffs", "1,2,3,4", "--oracle"],
     {"exact_arith", "root_oracle"}),
    (["compare", "--coeffs", "1,2,3,4", "--json"], {"root_oracle"}),
    # a derivative remedy under a row that carries e reads no entry
    (["compare", "--coeffs=-1,0,-1,0,0,0,0,-1,-2,-1,-1", "--json"],
     {"root_oracle"}),
    (["sweep", "--coeffs", "1,3,3,K", "--range", "0:12", "--steps", "13"],
     {"sweep"}),
    (["corpus", "--count", "3", "--max-degree", "4"], {"corpus", "root_oracle"}),
]
OPTIONAL = {"corpus", "sweep", "hurwitz", "root_oracle", "exact_arith"}


class TestImportBudget:
    def test_import_routhkit_loads_no_submodule(self):
        loaded = loaded_modules("--import-only")
        assert {m for m in loaded if m.startswith("routhkit")} == {"routhkit"}
        assert not loaded & {"dataclasses", "inspect"}

    def test_hurwitz_loads_neither_routh_nor_the_field_nor_the_oracle(self):
        # the corpus workload times `hurwitz_stable` beside `classify`; a
        # module-level import here would move their start-up cost
        loaded = loaded_modules("--import-only", "routhkit.hurwitz")
        assert "routhkit.hurwitz" in loaded
        assert not loaded & {"routhkit.routh", "routhkit.exact_arith",
                             "routhkit.root_oracle"}

    @pytest.mark.parametrize("argv, needed", COMMAND_MODULES,
                             ids=["analyze", "analyze-json", "analyze-oracle",
                                  "compare", "compare-e-above", "sweep",
                                  "corpus"])
    def test_command_loads_only_what_it_uses(self, argv, needed):
        loaded = loaded_modules(*argv)
        assert {"routhkit.routh", "routhkit.intpoly"} <= loaded
        assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)
        ours = {m.removeprefix("routhkit.") for m in loaded}
        assert ours & OPTIONAL == needed


def private_relative_imports(path: Path) -> list[str]:
    """`module: name` for each relative import of a name with a leading
    underscore (dunders such as `__version__` excepted)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{path.stem}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not (alias.name.startswith("__")
                               and alias.name.endswith("__"))]
    return found


class TestLayering:
    def test_no_module_imports_another_modules_private_name(self):
        found = [hit for path in sorted((SRC / "routhkit").glob("*.py"))
                 for hit in private_relative_imports(path)]
        assert found == []
