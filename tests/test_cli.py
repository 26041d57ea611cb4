"""Command-line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routhkit import __version__, cli
from routhkit.cli import main, render_json
from routhkit.polynomial import MAX_DEGREE
from routhkit.sweep import MAX_STEPS

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_quartic_eps_row(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,0,0,0,1",
                               "--policy", "eps-row")
        assert code == 1
        assert "sign changes: 2" in out
        assert "verdict: Unstable" in out
        assert "ZeroRow" in out

    def test_json_document_keys(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,0,0,0,1",
                               "--policy", "eps-row", "--json")
        doc = json.loads(out)
        assert list(doc) == ["input", "policy", "array", "events", "signs",
                             "sign_changes", "rhp_count", "verdict", "oracle",
                             "version"]
        assert doc["signs"] == ["+", "+", "-", "+", "+"]
        assert doc["sign_changes"] == 2
        assert doc["rhp_count"] == 2
        assert doc["verdict"] == "Unstable"
        assert doc["oracle"] is None
        assert doc["version"] == __version__
        assert doc["input"] == {"degree": 4,
                                "coefficients": ["1", "0", "0", "0", "1"]}

    def test_exit_code_stable(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,2,1")
        assert code == 0
        assert "verdict: Stable" in out

    def test_exit_code_marginal(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,0,1")
        assert code == 2
        assert "verdict: MarginalOrSymmetric" in out

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,0,-7,-6",
                               "--oracle", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["rhp_count"] == 1
        assert doc["oracle"]["agreement"] is True
        assert doc["oracle"]["rhp"] == 1

    def test_data_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--coeffs", "spam")
        assert code == 65
        assert "error" in err

    def test_crash_is_internal_error_not_unstable(self, capsys, monkeypatch):
        # a defect must not exit 1 (Unstable) or print a traceback
        def crash(*args, **kwargs):
            raise OverflowError("int too large to convert to float")
        monkeypatch.setattr(cli, "classify", crash)
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "1,1,1")
        assert code == 70
        assert out == ""
        assert err.startswith("routhkit: internal error: OverflowError")
        assert err.count("\n") == 1

    def test_oracle_overflow_keeps_exact_verdict(self, capsys):
        # 1e400 has no float: the oracle is unavailable, the verdict stands
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "1,1e400,1",
                                 "--oracle")
        assert (code, err) == (0, "")
        assert "verdict: Stable\n" in out
        assert out.endswith("oracle: unavailable "
                            "(the monic coefficients leave the float range)\n")
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,1e400,1",
                               "--oracle", "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "Stable")
        assert doc["oracle"] == {
            "unavailable": "the monic coefficients leave the float range"}

    def test_oracle_underflow_keeps_exact_verdict(self, capsys):
        # 1e-400 underflows to 0.0, and the monic division would divide by it
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "1e-400,1,1",
                                 "--oracle")
        assert (code, err) == (0, "")
        assert "verdict: Stable\n" in out
        assert "oracle: unavailable" in out

    def test_oracle_middle_underflow_keeps_exact_verdict(self, capsys):
        # 1e-400 s underflows to 0.0 s: the oracle would answer s^2 + 1
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "1,1e-400,1",
                                 "--oracle")
        assert (code, err) == (0, "")
        assert "verdict: Stable\n" in out
        assert out.endswith("oracle: unavailable "
                            "(the monic coefficients leave the float range)\n")
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,1e-400,1",
                               "--oracle", "--json")
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "Stable")
        assert doc["oracle"] == {
            "unavailable": "the monic coefficients leave the float range"}

    def test_oracle_residual_overflow_keeps_exact_verdict(self, capsys):
        # the float coefficients exist, but Horner overflows at a root
        code, out, err = run_cli(capsys, "analyze", "--coeffs",
                                 "1,1e308,1e308,1", "--oracle")
        assert (code, err) == (0, "")
        assert "verdict: Stable\n" in out
        assert out.endswith("oracle: unavailable "
                            "(the root iteration left the float range)\n")

    def test_zero_denominator_in_term_form_is_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "1/0*s + 1")
        assert code == 65
        assert out == ""
        assert err == "routhkit: error: bad coefficient '1/0'\n"

    def test_oversized_input_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "--coeffs", "s^100000 + 1")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (65, "")
        assert err == ("routhkit: error: degree 100000 exceeds the limit of "
                       f"{MAX_DEGREE}\n")
        code, _, err = run_cli(capsys, "compare", "--coeffs", "s^100000 + 1")
        assert (code, err.count("\n")) == (65, 1)

    def test_degree_96_still_runs(self, capsys):
        # (s^2 + 1)^48: all its roots on the axis, one zero row at s^95
        coeffs = ",0,".join(str(comb(48, j)) for j in range(49))
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", coeffs, "--json")
        doc = json.loads(out)
        assert (code, doc["input"]["degree"]) == (2, 96)
        assert doc["verdict"] == "MarginalOrSymmetric"

    def test_policy_unsupported_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--coeffs", "1,0,0,0,1",
                               "--policy", "single-eps")
        assert code == 65
        assert "single-eps" in err

    def test_derivative_refused_under_a_row_that_carries_e(self, capsys):
        # 2s^9 + s^6 - 2s^3 - 1: the row above the zero s^2 row keeps e in
        # its first entry, so it gives no auxiliary polynomial
        code, out, err = run_cli(capsys, "analyze",
                                 "--coeffs=-2,0,0,-1,0,0,2,0,0,1",
                                 "--policy", "derivative")
        assert (code, out) == (65, "")
        assert err == ("routhkit: error: entry (e)/(1) of the s^2 auxiliary "
                       "row is not eps-free\n")

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--nonsense"])
        assert exc.value.code == 64
        capsys.readouterr()

    def test_term_form_input(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "s^4 + 1",
                               "--policy", "eps-row", "--json")
        assert json.loads(out)["sign_changes"] == 2

    def test_negative_leading_coefficient(self, capsys):
        # leading dash needs the = form, then the sign flip is recorded
        code, out, _ = run_cli(capsys, "analyze", "--coeffs=-1,-2,-1",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Stable"
        assert [e["kind"] for e in doc["events"]] == ["LeadingSignFlip"]


class TestCompare:
    def test_quartic_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--coeffs", "1,0,0,0,1",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        by_policy = {row["policy"]: row for row in doc["policies"]}
        assert by_policy["single-eps"]["supported"] is False
        assert by_policy["single-eps"]["verdict"] == "Undetermined"
        assert by_policy["eps-row"]["sign_changes"] == 2
        assert by_policy["derivative"]["sign_changes"] == 2
        assert doc["oracle"]["rhp"] == 2
        assert by_policy["eps-row"]["agrees_with_oracle"] is True

    def test_stable_polynomial_all_policies(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--coeffs", "1,2,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert all(row["sign_changes"] == 0 for row in doc["policies"])
        assert doc["oracle"]["rhp"] == 0

    def test_cubic_all_policies_agree(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--coeffs", "1,0,-7,-6")
        assert code == 0
        assert out.count("Unstable") == 3

    def test_oracle_underflow_leaves_agreement_open(self, capsys):
        # with no oracle nothing can disagree: every row reads "-" and exit 0
        code, out, err = run_cli(capsys, "compare", "--coeffs", "1e-400,1,1")
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [r[:5] for r in rows[:3]] == [
            [policy, "0", "0", "Stable", "-"]
            for policy in ("single-eps", "eps-row", "derivative")]
        assert rows[3][:4] == ["oracle", "-", "-", "unavailable:"]
        code, out, _ = run_cli(capsys, "compare", "--coeffs", "1e-400,1,1",
                               "--json")
        doc = json.loads(out)
        assert code == 0
        assert [r["agrees_with_oracle"] for r in doc["policies"]] == [None] * 3
        assert list(doc["oracle"]) == ["unavailable"]

    def test_oracle_residual_overflow_leaves_agreement_open(self, capsys):
        # the oracle used to count rhp=1 from an unevaluable root set, and
        # every policy row read "agrees NO" with exit 1
        code, out, err = run_cli(capsys, "compare", "--coeffs", "1,1e308,1e308,1")
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [r[:5] for r in rows[:3]] == [
            [policy, "0", "0", "Stable", "-"]
            for policy in ("single-eps", "eps-row", "derivative")]
        assert rows[3][:4] == ["oracle", "-", "-", "unavailable:"]
        assert out.endswith("the root iteration left the float range\n")

    def test_oracle_middle_underflow_leaves_agreement_open(self, capsys):
        # the oracle used to read s^2 + 1 (axis=2) here and agree by chance
        code, out, err = run_cli(capsys, "compare", "--coeffs", "1,1e-400,1")
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [r[:5] for r in rows[:3]] == [
            [policy, "0", "0", "Stable", "-"]
            for policy in ("single-eps", "eps-row", "derivative")]
        assert rows[3][:4] == ["oracle", "-", "-", "unavailable:"]
        code, out, _ = run_cli(capsys, "compare", "--coeffs", "1,1e-400,1",
                               "--json")
        doc = json.loads(out)
        assert code == 0
        assert [r["agrees_with_oracle"] for r in doc["policies"]] == [None] * 3
        assert list(doc["oracle"]) == ["unavailable"]

    def test_json_oracle_block_matches_analyze(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--coeffs", "1,4,6,4,1",
                               "--json")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        _, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,4,6,4,1",
                            "--oracle", "--json")
        analyzed = json.loads(out)["oracle"]
        assert oracle["converged"] is True
        assert oracle["max_residual"] == analyzed["max_residual"]
        assert float(oracle["max_residual"]) < 1e-12

    def test_json_oracle_block_degree_zero(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--coeffs", "5", "--json")
        oracle = json.loads(out)["oracle"]
        _, out, _ = run_cli(capsys, "analyze", "--coeffs", "5", "--oracle",
                            "--json")
        analyzed = json.loads(out)["oracle"]
        assert (oracle["converged"], oracle["max_residual"]) == (True, "0")
        assert oracle["max_residual"] == analyzed["max_residual"]

    def test_axis_pair_after_a_zero_first_entry_is_miscounted(self, capsys):
        # (s^2 + 1)(s^3 + s - 1) has 1 RHP root and the pair +-i.  The e
        # put in for the zero first entry at s^4 moves the pair off the
        # axis, so no zero row forms and every policy counts rhp 3.  This
        # records the miscount as it stands; it does not endorse it.
        code, out, err = run_cli(capsys, "compare", "--coeffs", "1,0,2,-1,1,-1")
        assert (code, err) == (1, "")
        rows = [line.split() for line in out.splitlines()[2:]]
        assert rows[:3] == [
            [policy, "3", "3", "Unstable", "NO", "ZeroFirstElement@s^4"]
            for policy in ("single-eps", "eps-row", "derivative")]
        assert rows[3] == ["oracle", "-", "1", "lhp=2", "axis=2"]

    def test_negative_pivot_above_a_zero_row_is_miscounted_by_eps_row(
            self, capsys):
        # s^3 - s^2 + s - 1 = (s - 1)(s^2 + 1) has 1 RHP root and the pair
        # +-i.  The row above the zero s^1 row has a negative first entry,
        # and the e row's fixed positive sign adds two sign changes that
        # the derivative row does not.  This records the miscount of
        # eps-row as it stands; it does not endorse it.  Repairing or
        # fencing the e row is an open item of the roadmap.
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,-1,1,-1",
                               "--policy", "eps-row")
        assert code == 1
        assert "rhp roots: 3\n" in out
        code, out, err = run_cli(capsys, "compare", "--coeffs", "1,-1,1,-1")
        assert (code, err) == (1, "")
        rows = {line.split()[0]: line.split()
                for line in out.splitlines()[2:]}
        assert rows["eps-row"][2:5] == ["3", "Unstable", "NO"]
        assert rows["derivative"][2:5] == ["1", "Unstable", "yes"]
        assert rows["oracle"][2:] == ["1", "lhp=0", "axis=2"]

    def test_table_mentions_unsupported(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--coeffs", "1,0,0,0,1")
        assert "PolicyUnsupported" in out
        assert "Undetermined" in out


class TestCorpus:
    def test_small_run_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--count", "25",
                               "--max-degree", "6", "--seed", "11", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["agreements"] == 25
        assert doc["disagreements"] == []

    def test_single_minimal_case(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--count", "1",
                               "--max-degree", "2", "--seed", "0")
        assert code == 0
        assert "agreement: 1/1" in out

    def test_lhp_only_all_stable(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--count", "40",
                               "--max-degree", "7", "--seed", "5",
                               "--lhp-only", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"] == {"Stable": 40}
        assert doc["events"] == {}

    def test_lhp_only_high_degree_finishes(self, capsys):
        # above degree 9 the grid holds only 7 left-half-plane real roots
        code, out, _ = run_cli(capsys, "corpus", "--count", "11",
                               "--max-degree", "12", "--seed", "7",
                               "--lhp-only")
        assert code == 0
        assert "agreement: 11/11" in out

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run_cli(capsys, "corpus", "--count", "30",
                              "--max-degree", "8", "--seed", "123", "--json")
        _, second, _ = run_cli(capsys, "corpus", "--count", "30",
                               "--max-degree", "8", "--seed", "123", "--json")
        assert first == second

    def test_different_seeds_differ(self, capsys):
        _, first, _ = run_cli(capsys, "corpus", "--count", "30",
                              "--max-degree", "8", "--seed", "1", "--json")
        _, second, _ = run_cli(capsys, "corpus", "--count", "30",
                               "--max-degree", "8", "--seed", "2", "--json")
        assert first != second


class TestSweep:
    def test_cubic_gain_interval(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--coeffs", "1,3,3,K",
                               "--range", "0:12", "--steps", "1200", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["intervals"]) == 1
        lo = eval_fraction(doc["intervals"][0]["lo"])
        hi = eval_fraction(doc["intervals"][0]["hi"])
        step = 12 / 1199
        assert abs(lo - 0) <= step
        assert abs(hi - 9) <= step

    def test_linear_positive_gain(self, capsys):
        # negative lower bound needs the = form so argparse keeps the value
        _, out, _ = run_cli(capsys, "sweep", "--coeffs", "1,K",
                            "--range=-1:1", "--steps", "200", "--json")
        doc = json.loads(out)
        assert len(doc["intervals"]) == 1
        lo = eval_fraction(doc["intervals"][0]["lo"])
        hi = eval_fraction(doc["intervals"][0]["hi"])
        assert 0 < lo <= 2 / 199
        assert hi == 1

    def test_never_stable(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--coeffs", "1,0,K",
                            "--range", "0:1", "--steps", "10", "--json")
        assert json.loads(out)["intervals"] == []

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--coeffs", "1,2,3",
                               "--range", "0:1", "--steps", "5")
        assert code == 65
        assert "K" in err

    def test_multiple_parameters(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--coeffs", "K,1,K",
                             "--range", "0:1", "--steps", "5")
        assert code == 65

    def test_template_above_the_degree_limit_is_refused_at_once(self, capsys):
        template = ",".join(["1"] * (MAX_DEGREE + 1) + ["K"])
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--coeffs", template,
                                 "--range", "0:1", "--steps", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (65, "")
        assert err == (f"routhkit: error: degree {MAX_DEGREE + 1} exceeds "
                       f"the limit of {MAX_DEGREE}\n")

    def test_steps_above_the_limit_are_refused_at_once(self, capsys):
        steps = MAX_STEPS + 1
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--coeffs", "1,3,3,K",
                                 "--range", "0:12", "--steps", str(steps))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (65, "")
        assert err == (f"routhkit: error: steps {steps} exceeds the limit "
                       f"of {MAX_STEPS}\n")

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--coeffs", "1,K", "--range", "oops",
                  "--steps", "5"])
        assert exc.value.code == 64
        capsys.readouterr()

    def test_samples_on_request(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--coeffs", "1,K",
                            "--range", "0:1", "--steps", "3", "--samples",
                            "--json")
        doc = json.loads(out)
        assert [s["verdict"] for s in doc["samples"]] == \
            ["MarginalOrSymmetric", "Stable", "Stable"]

    def test_text_view_outside_the_double_range(self, capsys):
        # the text view used to go through float: 1e400 raised
        # OverflowError (exit 70) and 1e-400 printed as 0
        code, out, err = run_cli(capsys, "sweep", "--coeffs", "1,K",
                                 "--range", "0:1e400", "--steps", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[2].startswith("  [5e+399, 1e+400]  (exact 5")
        code, out, err = run_cli(capsys, "sweep", "--coeffs", "1,K",
                                 "--range=-1e400:1e400", "--steps", "5",
                                 "--samples")
        assert (code, err) == (0, "")
        assert out.splitlines()[3:] == [
            "  K=-1e+400: Unstable", "  K=-5e+399: Unstable",
            "  K=0: MarginalOrSymmetric", "  K=5e+399: Stable",
            "  K=1e+400: Stable"]
        code, out, err = run_cli(capsys, "sweep", "--coeffs", "1,K",
                                 "--range", "1e-400:2e-400", "--steps", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[2].startswith("  [1e-400, 2e-400]  (exact 1/")


class TestMachineOutput:
    def test_round_trip_is_byte_identical(self, capsys):
        for argv in (["analyze", "--coeffs", "1,0,0,0,1", "--policy",
                      "eps-row", "--json"],
                     ["compare", "--coeffs", "1,2,1", "--json"],
                     ["sweep", "--coeffs", "1,K", "--range", "0:1",
                      "--steps", "5", "--json"],
                     ["corpus", "--count", "5", "--max-degree", "4",
                      "--seed", "9", "--json"]):
            main(argv)
            out = capsys.readouterr().out
            assert render_json(json.loads(out)) == out

    def test_golden_file(self, capsys):
        golden = (GOLDEN_DIR / "analyze_quartic_eps_row.json").read_text()
        for _ in range(2):
            code, out, _ = run_cli(capsys, "analyze", "--coeffs", "1,0,0,0,1",
                                   "--policy", "eps-row", "--json")
            assert code == 1
            assert out == golden


# (golden file, exit code, argv); each file holds stdout followed by stderr
TEXT_VIEWS = [
    *((f"analyze_quartic_{policy}.txt", code,
       ["analyze", "--coeffs", "1,0,0,0,1", "--policy", policy])
      for policy, code in (("single-eps", 65), ("eps-row", 1),
                           ("derivative", 1), ("auto", 1))),
    ("analyze_leading_zeros.txt", 0, ["analyze", "--coeffs", "0,0,1,1"]),
    ("analyze_sign_flip.txt", 0, ["analyze", "--coeffs=-1,-2,-1"]),
    ("compare_quartic.txt", 0, ["compare", "--coeffs", "1,0,0,0,1"]),
    ("compare_cubic.txt", 0, ["compare", "--coeffs", "1,0,-7,-6"]),
    ("corpus_30.txt", 0, ["corpus", "--count", "30", "--max-degree", "8",
                          "--seed", "42"]),
    ("sweep_cubic_samples.txt", 0, ["sweep", "--coeffs", "1,3,3,K",
                                    "--range", "0:12", "--steps", "37",
                                    "--samples"]),
]


class TestTextViews:
    @pytest.mark.parametrize("name, expected_code, argv", TEXT_VIEWS,
                             ids=[name for name, _, _ in TEXT_VIEWS])
    def test_golden_text(self, capsys, name, expected_code, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code
        assert out + err == (GOLDEN_DIR / name).read_text()

    def test_corpus_disagreement(self, capsys, monkeypatch):
        # no corpus draw disagrees today, so force one through the path a
        # policy refusal takes
        import routhkit.corpus
        from routhkit import PolicyUnsupported

        def refuse(*args, **kwargs):
            raise PolicyUnsupported("forced refusal")

        monkeypatch.setattr(routhkit.corpus, "classify", refuse)
        argv = ["corpus", "--count", "1", "--max-degree", "4", "--seed", "42"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1] == (
            "DISAGREEMENT: s^2 - 4*s + 89/16 routh_rhp=-1 oracle_rhp=-1 "
            "expected_rhp=2 roots=['(2+1.25j)', '(2-1.25j)'] "
            "events=['PolicyUnsupported: forced refusal']")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out)["disagreements"] == [{
            "polynomial": "s^2 - 4*s + 89/16",
            "routh_rhp": -1,
            "oracle_rhp": -1,
            "expected_rhp": 2,
            "roots": [{"re": "2", "im": "1.25"}, {"re": "2", "im": "-1.25"}],
            "events": ["PolicyUnsupported: forced refusal"],
        }]


# CLI fuzzing.  The degree stays at or below 8 and `--steps` at or below 30
# only to bound the run time of each example.
POLICY_NAMES = ["single-eps", "eps-row", "derivative", "auto"]

_coefficient = st.one_of(
    st.integers(-9, 9).map(str),
    st.sampled_from(["0", "0", "0", "1"]),       # zeros make degenerate rows
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from(["0.5", "-2.25", "1e-400", "1e400", "1e-320"]),
)

# sampled_from leans to its first element, so this is mostly False
_one_in_eight = st.sampled_from([False] * 7 + [True])


@st.composite
def _coefficient_list(draw, parameters: int = 0) -> str:
    """Descending coefficients, `parameters` of them K; one list in eight
    also carries a malformed token."""
    slots = draw(st.lists(_coefficient, min_size=1, max_size=9 - parameters))
    extra = ["K"] * parameters
    if draw(_one_in_eight):
        extra.append(draw(st.sampled_from(["x", "nan", "1/0", "1.2.3"])))
    for token in extra:
        slots.insert(draw(st.integers(0, len(slots))), token)
    return ",".join(slots)


_term = st.builds("{} {}s^{}".format, st.sampled_from(["+", "-"]),
                  st.sampled_from(["", "2*", "1/3*", "0*", "3/0*", "1.5*"]),
                  st.integers(0, 8))
_term_form = st.lists(_term, min_size=1, max_size=5).map(" ".join)


@st.composite
def _range(draw) -> str:
    """lo:hi with lo < hi; one range in eight is malformed or reversed, and
    about one in eight lies beyond the double range or below its smallest
    normal value."""
    if draw(_one_in_eight):
        return draw(st.sampled_from(["1:", "a:b", "0:1/0", "2:1"]))
    if draw(_one_in_eight):
        exponent = draw(st.sampled_from(["e400", "e309", "e-400", "e-320"]))
        lo = draw(st.integers(-20, 19))
        return f"{lo}{exponent}:{lo + draw(st.integers(1, 20))}{exponent}"
    lo = draw(st.fractions(-20, 20, max_denominator=4))
    return f"{lo}:{lo + draw(st.fractions(1, 20, max_denominator=4))}"


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["analyze", "compare", "sweep"]))
    if command == "sweep":
        parameters = draw(st.sampled_from([1] * 8 + [0, 2]))
        steps = draw(st.integers(-1, 30) if draw(_one_in_eight)
                     else st.integers(2, 30))
        argv = ["sweep", "--coeffs=" + draw(_coefficient_list(parameters)),
                "--range=" + draw(_range()), "--steps", str(steps)]
        if draw(st.booleans()):
            argv.append("--samples")
    else:
        coeffs = draw(st.one_of(_coefficient_list(), _term_form))
        argv = [command, "--coeffs=" + coeffs]
        if command == "analyze" and draw(st.booleans()):
            argv.append("--oracle")
    if command != "compare" and draw(st.booleans()):
        argv += ["--policy", draw(st.sampled_from(POLICY_NAMES))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestFuzz:
    # Hypothesis varies --json and --samples per run, so a run may draw no
    # text view of an extreme range; this one is always tried
    @example(argv=["sweep", "--coeffs=1,K", "--range=-1e400:1e400",
                   "--steps", "5", "--samples"])
    @settings(max_examples=300, deadline=None)
    @given(argv=cli_argv())
    def test_exit_code_is_a_verdict_or_an_input_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse's usage errors
                code = exc.code
        assert code in {0, 1, 2, 64, 65}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code in {64, 65}:
            assert err.getvalue(), argv


def eval_fraction(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return int(num) / int(den)
    return float(text)
