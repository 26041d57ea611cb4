"""The three benchmark workloads: inputs made from the seed, and a referee each.

A workload is a fixed list of analyses (its items) for a given seed.
``run_round(rec, n)`` runs the first ``n`` items in order, handing each
analysis to ``rec.call`` (which times it) and its verdict to ``rec.judge``
(which counts it).  An untraced run makes identical rounds over all
``n_items`` items for ``--seconds``; a traced run repeats the first
``trace_items`` items, so its counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_LADDER = HERE / "expected_ladder.json"
GOLDEN = Path("tests/golden/analyze_quartic_eps_row.json")

CLI_TIMEOUT_S = 120

VERDICT_EXIT = {"Stable": 0, "Unstable": 1, "MarginalOrSymmetric": 2,
                "Undetermined": 2}


def src_env(root: Path) -> dict:
    """This process's environment with the checkout's src/ on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- corpus-mixed ----------------------------------------------------------

class CorpusMixed:
    """Random polynomials from known roots, both cross-checks on each.

    The referee is the count known from the constructed roots; the Hurwitz
    decision must match it too.  An oracle count that differs is tallied as
    ``root_oracle.disagreements`` and is not a failure, because the oracle
    is the floating-point cross-check under test.
    """

    name = "corpus-mixed"
    max_degree = 12
    imports_cli = False
    trace_items = 1000
    # About 2% of inputs take 10-50 ms, among them the ~0.7% that leave the
    # oracle unconverged; the rest take under ~5 ms.  With 4000 items the tail percentile
    # (p99.5, 20 items beyond) lies well inside the slow group, away from
    # the gap between the two, where the seed would move it most.
    n_items = 4000

    def __init__(self, rk, seed: int, root: Path):
        self.rk = rk
        self.seed = seed

    def run_round(self, rec, n: int) -> None:
        rk = self.rk
        rng = rk.corpus.Lcg64(self.seed)
        policy = rk.routh.Policy.AUTO

        def analysis():
            poly, roots = rk.corpus.random_polynomial(rng, self.max_degree)
            report = rk.routh.classify(poly, policy, with_oracle=True)
            return roots, report, rk.hurwitz.hurwitz_stable(poly)

        for _ in range(n):
            result, error = rec.call(analysis)
            rec.judge(lambda: self._referee(rec, result, error))

    @staticmethod
    def _referee(rec, result, error):
        if error is not None:
            return _error_text(error)
        roots, report, hurwitz = result
        expected = sum(1 for r in roots if r.real > 0)
        if report.rhp_count != expected:
            return f"routh rhp {report.rhp_count} != constructed {expected}"
        if hurwitz.stable != (expected == 0):
            return f"hurwitz stable={hurwitz.stable} with {expected} rhp roots"
        if report.oracle_check.counts.rhp != expected:
            rec.tally["root_oracle.disagreements"] += 1
        return None


# -- degenerate-ladder -----------------------------------------------------

# the degenerate-case policies; `compare` runs the same three
POLICIES = ("eps-row", "derivative", "single-eps")
# n % 4 == 0: no zero row; n % 4 == 1: zero rows, no axis roots;
# n % 4 == 3: roots at +-i.
ONES_DEGREES = (4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 24, 32)
SN1_DEGREES = (4, 5, 6, 8, 10, 12, 14, 16, 18, 20)
SYM_COFACTOR_DEGREES = (2, 4, 6, 8, 10, 12, 14)
REPEATED_MULTIPLICITIES = (1, 2, 3, 4, 5)


def _ones_rhp(n: int):
    """RHP roots of 1 + s + ... + s^n (the (n+1)-th roots of unity but 1),
    or None when some lie on the axis."""
    m = n + 1
    if m % 4 == 0:
        return None
    return sum(1 for k in range(1, m) if 4 * k < m or 4 * k > 3 * m)


def _sn1_rhp(n: int):
    """RHP roots of s^n + 1 (angles pi(2k+1)/n), or None when some lie on
    the axis."""
    if n % 4 == 2:
        return None
    return sum(1 for k in range(n) if 2 * (2 * k + 1) < n or 2 * (2 * k + 1) > 3 * n)


def _stable_roots(degree: int) -> list[complex]:
    roots = []
    for k in range(1, degree // 2 + 1):
        roots += [complex(-k, k + 1), complex(-k, -(k + 1))]
    if degree % 2:
        roots.append(-0.5)
    return roots


def ladder_inputs(rk) -> list[tuple[str, object, object]]:
    """(key, polynomial, constructed rhp count or None) for every family."""
    P = rk.polynomial.Polynomial
    items = []
    for n in ONES_DEGREES:
        items.append((f"ones-{n}", P([1] * (n + 1)), _ones_rhp(n)))
    for n in SN1_DEGREES:
        items.append((f"s^{n}+1", P([1] + [0] * (n - 1) + [1]), _sn1_rhp(n)))
    for d in SYM_COFACTOR_DEGREES:
        poly = P.from_roots([2, -2] + _stable_roots(d))
        items.append((f"(s^2-4)*stable{d}", poly, 1))
    for k in REPEATED_MULTIPLICITIES:
        poly = P.from_roots([3j, -3j] * k + _stable_roots(4))
        items.append((f"(s^2+9)^{k}*stable4", poly, None))
    return items


def ladder_digest(report, hurwitz) -> str:
    """Hash of the rendered array, events, signs, verdict and minors."""
    if report is None:
        lines = ["refused"]
    else:
        lines = ["|".join(str(e) for e in row) for row in report.array.rows]
        lines += [f"{ev.kind.value}@{ev.row_power}: {ev.remedy}"
                  for ev in report.events]
        lines.append("".join("+" if s > 0 else "-"
                             for s in report.first_column_signs))
        lines.append(report.verdict.value)
    lines.append(f"hurwitz {hurwitz.stable} "
                 + ",".join(str(m) for m in hurwitz.minors))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class DegenerateLadder:
    """Fixed degenerate families at rising degree under each epsilon policy.

    The inputs do not depend on the seed, so the expected digests can be
    stored; the seed only shuffles the order of the (input, policy) pairs.
    """

    name = "degenerate-ladder"
    imports_cli = False

    def __init__(self, rk, seed: int, root: Path):
        self.rk = rk
        self.expected = json.loads(EXPECTED_LADDER.read_text())
        pairs = [(key, poly, rhp, rk.routh.Policy(name))
                 for key, poly, rhp in ladder_inputs(rk)
                 for name in POLICIES]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.n_items = self.trace_items = len(pairs)

    def run_round(self, rec, n: int) -> None:
        rk = self.rk
        refused = rk.errors.PolicyUnsupported
        for key, poly, rhp, policy in self.pairs[:n]:
            def analysis():
                try:
                    report = rk.routh.classify(poly, policy)
                except refused:
                    report = None
                return report, rk.hurwitz.hurwitz_stable(poly)

            result, error = rec.call(analysis)
            label = f"{key}/{policy.value}"
            rec.judge(lambda: self._referee(label, rhp, result, error))

    def _referee(self, label, rhp, result, error):
        if error is not None:
            return f"{label}: {_error_text(error)}"
        report, hurwitz = result
        if report is not None and rhp is not None and report.rhp_count != rhp:
            return f"{label}: routh rhp {report.rhp_count} != constructed {rhp}"
        if ladder_digest(report, hurwitz) != self.expected.get(label):
            return f"{label}: rendering differs from the stored digest"
        return None


# -- cli-cold --------------------------------------------------------------

@dataclass(frozen=True)
class CliCommand:
    """One command line and how to judge its exit code and stdout."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    known_defect: bool = False


def _rows_by_policy(text: str) -> dict[str, list[str]]:
    rows = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] in POLICIES + ("oracle",):
            rows[tokens[0]] = tokens
    return rows


def _expect_analyze_text(rhp: int):
    def check(code, out):
        if code != (0 if rhp == 0 else 1):
            return f"exit {code} for {rhp} rhp roots"
        if f"rhp roots: {rhp}\n" not in out:
            return "rhp line missing or wrong"
        return None
    return check


def _expect_analyze_json(rhp: int):
    def check(code, out):
        doc = json.loads(out)
        if doc["rhp_count"] != rhp:
            return f"rhp_count {doc['rhp_count']} != constructed {rhp}"
        if code != VERDICT_EXIT[doc["verdict"]] or code != (0 if rhp == 0 else 1):
            return f"exit {code} for verdict {doc['verdict']}"
        return None
    return check


def _expect_compare_text(rhp: int):
    def check(code, out):
        rows = _rows_by_policy(out)
        oracle_rhp = int(rows["oracle"][2])
        agree = True
        for policy in POLICIES:
            count = rows[policy][2]
            if count == "-":
                continue
            if int(count) != rhp:
                return f"{policy} rhp {count} != constructed {rhp}"
            agree &= int(count) == oracle_rhp
        if code != (0 if agree else 1):
            return f"exit {code} with oracle rhp {oracle_rhp}"
        return None
    return check


def _expect_compare_json(rhp: int):
    def check(code, out):
        doc = json.loads(out)
        oracle_rhp = doc["oracle"]["rhp"]
        agree = True
        for row in doc["policies"]:
            if not row["supported"]:
                continue
            if row["rhp_count"] != rhp:
                return f"{row['policy']} rhp {row['rhp_count']} != constructed {rhp}"
            agree &= row["rhp_count"] == oracle_rhp
        if code != (0 if agree else 1):
            return f"exit {code} with oracle rhp {oracle_rhp}"
        return None
    return check


@functools.cache
def _sweep_truth(a: int, b: int, lo: Fraction, hi: Fraction, steps: int):
    """Per-sample stability of s^3 + a s^2 + b s + K, which is stable exactly
    when 0 < K < a*b, and the first and last stable sample."""
    values = [lo + (hi - lo) * Fraction(i, steps - 1) for i in range(steps)]
    stable = [0 < k < a * b for k in values]
    return (stable, values[stable.index(True)],
            values[steps - 1 - stable[::-1].index(True)])


def _expect_sweep(a: int, b: int, lo: Fraction, hi: Fraction, steps: int,
                  as_json: bool, samples: bool):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        stable, first, last = _sweep_truth(a, b, lo, hi, steps)
        if as_json:
            doc = json.loads(out)
            if doc["intervals"] != [{"lo": str(first), "hi": str(last)}]:
                return f"intervals {doc['intervals']}"
            got = [s["verdict"] == "Stable" for s in doc.get("samples", [])]
        else:
            if out.count("(exact ") != 1 or f"(exact {first} .. {last})" not in out:
                return "stable interval line missing or wrong"
            got = [line.endswith(": Stable") for line in out.splitlines()
                   if line.startswith("  K=")]
        if samples and got != stable:
            return "per-sample verdicts wrong"
        return None
    return check


def _expect_bytes(expected: str, exit_code: int):
    def check(code, out):
        if code != exit_code:
            return f"exit {code}, expected {exit_code}"
        if out != expected:
            return "stdout differs from the golden document"
        return None
    return check


def _expect_stable_analyze(code, out):
    if code != 0 or "verdict: Stable\n" not in out:
        return f"exit {code}; exact verdict is Stable"
    return None


def _expect_stable_compare(code, out):
    rows = _rows_by_policy(out)
    if code != 0 or any(rows.get(p, [""] * 4)[3] != "Stable"
                        for p in POLICIES):
        return f"exit {code}; exact verdict is Stable under every policy"
    return None


def cli_commands(rk, rng, golden: str) -> list[CliCommand]:
    """One variant: 10 command lines, 3 of them sweeps, 2 known defects."""
    def drawn():
        poly, roots = rk.corpus.random_polynomial(rng, 8)
        coeffs = ",".join(poly.descending_strings())
        return coeffs, sum(1 for r in roots if r.real > 0)

    def sweep(samples: bool, as_json: bool) -> CliCommand:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        lo, hi, steps = Fraction(-1), Fraction(a * b + 1), 1200
        argv = ["sweep", "--coeffs", f"1,{a},{b},K", f"--range={lo}:{hi}",
                "--steps", str(steps)]
        argv += ["--samples"] * samples + ["--json"] * as_json
        return CliCommand(argv, _expect_sweep(a, b, lo, hi, steps, as_json, samples))

    a_coeffs, a_rhp = drawn()
    b_coeffs, b_rhp = drawn()
    c_coeffs, c_rhp = drawn()
    golden_exit = VERDICT_EXIT[json.loads(golden)["verdict"]]
    return [
        CliCommand(["analyze", "--coeffs", a_coeffs], _expect_analyze_text(a_rhp)),
        CliCommand(["analyze", "--coeffs", b_coeffs, "--oracle", "--json"],
                   _expect_analyze_json(b_rhp)),
        CliCommand(["compare", "--coeffs", c_coeffs], _expect_compare_text(c_rhp)),
        CliCommand(["compare", "--coeffs", c_coeffs, "--json"],
                   _expect_compare_json(c_rhp)),
        sweep(samples=False, as_json=False),
        sweep(samples=False, as_json=True),
        sweep(samples=True, as_json=True),
        CliCommand(["analyze", "--coeffs", "1,0,0,0,1", "--policy", "eps-row",
                    "--json"], _expect_bytes(golden, golden_exit)),
        # Two open defects, scored by their exact verdict (Stable).  Today
        # the first dies with an OverflowError traceback and exits 1, the
        # second exits 65.  They stay in every variant so the failures show.
        CliCommand(["analyze", "--coeffs", "1,1e400,1", "--oracle"],
                   _expect_stable_analyze, known_defect=True),
        CliCommand(["compare", "--coeffs", "1e-400,1,1"],
                   _expect_stable_compare, known_defect=True),
    ]


class CliCold:
    """A closed loop of fresh ``python -m routhkit.cli`` processes, one at a
    time.  A traced run sends the first variant through ``cli.main`` in this
    process instead, since spans cannot cross into the child processes."""

    name = "cli-cold"
    imports_cli = True
    # Sweeps are 3 of every 10 commands, so the tail percentile (p75 of
    # 40 items) falls among them.
    variants = 4

    def __init__(self, rk, seed: int, root: Path):
        self.rk = rk
        self.root = root
        rng = rk.corpus.Lcg64(seed)
        golden = (root / GOLDEN).read_text()
        self.commands = [cmd for _ in range(self.variants)
                         for cmd in cli_commands(rk, rng, golden)]
        self.n_items = len(self.commands)
        self.trace_items = self.n_items // self.variants
        self.in_process = False
        self.first_output: dict[tuple, str] = {}

    def run_round(self, rec, n: int) -> None:
        env = src_env(self.root)
        for cmd in self.commands[:n]:
            if self.in_process:
                result, error = rec.call(lambda: self._main(cmd.argv))
            else:
                result, error = rec.call(lambda: subprocess.run(
                    [sys.executable, "-m", "routhkit.cli", *cmd.argv],
                    cwd=self.root, env=env, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S))
            rec.judge(lambda: self._referee(rec, cmd, result, error),
                      known_defect=cmd.known_defect)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        cli = sys.modules[self.rk.__name__ + ".cli"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return subprocess.CompletedProcess(argv, code, out.getvalue(),
                                           err.getvalue())

    def _referee(self, rec, cmd, result, error):
        if error is not None:
            failure = _error_text(error)
        elif "Traceback" in result.stderr:
            failure = "traceback on stderr"
        else:
            key = (self.in_process, tuple(cmd.argv))
            first = self.first_output.setdefault(key, result.stdout)
            if result.stdout != first:
                failure = "stdout differs between identical launches"
            else:
                try:
                    failure = cmd.check(result.returncode, result.stdout)
                except (ValueError, KeyError, IndexError) as exc:
                    failure = f"unreadable output: {_error_text(exc)}"
        if failure is not None and self.in_process:
            rec.tally["cli.exit_mismatches"] += 1
        return None if failure is None else f"{' '.join(cmd.argv)}: {failure}"


WORKLOADS = {w.name: w for w in (CorpusMixed, DegenerateLadder, CliCold)}
