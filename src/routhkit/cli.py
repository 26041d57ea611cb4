"""Command-line surface: analyze, compare, corpus, and sweep.

Every command takes `--json` for machine output.  The analyze document has
the fixed top-level key order {input, policy, array, events, signs,
sign_changes, rhp_count, verdict, oracle, version}; all exact values render
as fraction strings and all floating-point numbers as decimal strings with
12 significant digits, so emitted documents are byte-stable across runs and
platforms.

Exit codes: 0 Stable, 1 Unstable, 2 Marginal/Undetermined, 64 usage error,
65 data error, 70 internal error (a defect in routhkit, never a verdict).
`corpus` exits 1 when any disagreement is found.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .corpus import CorpusSummary, run_corpus
from .errors import RouthKitError
from .polynomial import Polynomial
from .routh import (OracleSummary, Policy, PolicyUnsupported, StabilityReport,
                    Verdict, classify)
from .root_oracle import find_roots, half_plane_counts
from .sweep import run_sweep

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_MARGINAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

_VERDICT_EXIT = {
    Verdict.STABLE: EXIT_STABLE,
    Verdict.UNSTABLE: EXIT_UNSTABLE,
    Verdict.MARGINAL_OR_SYMMETRIC: EXIT_MARGINAL,
    Verdict.UNDETERMINED: EXIT_MARGINAL,
}

_COMPARE_POLICIES = (Policy.SINGLE_EPSILON, Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code this tool promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def render_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _event_doc(ev) -> dict:
    return {"kind": ev.kind.value, "row_power": ev.row_power, "remedy": ev.remedy}


def _oracle_doc(oracle: OracleSummary | None):
    if oracle is None:
        return None
    rs, counts = oracle.root_set, oracle.counts
    return {
        "roots": [{"re": _fmt(r.real), "im": _fmt(r.imag)} for r in rs.roots],
        "lhp": counts.lhp,
        "rhp": counts.rhp,
        "axis": counts.axis,
        "agreement": oracle.agreement,
        "converged": rs.converged,
        "max_residual": _fmt(rs.max_residual),
    }


def analysis_document(poly: Polynomial, policy_name: str,
                      report: StabilityReport) -> dict:
    return {
        "input": {
            "degree": poly.degree,
            "coefficients": poly.descending_strings(),
        },
        "policy": policy_name,
        "array": [[str(e) for e in row] for row in report.array.rows],
        "events": [_event_doc(ev) for ev in report.events],
        "signs": ["+" if s > 0 else "-" for s in report.first_column_signs],
        "sign_changes": report.sign_changes,
        "rhp_count": report.rhp_count,
        "verdict": report.verdict.value,
        "oracle": _oracle_doc(report.oracle_check),
        "version": __version__,
    }


def _analysis_text(poly: Polynomial, policy_name: str,
                   report: StabilityReport) -> str:
    lines = [f"polynomial: {poly}  (degree {poly.degree})",
             f"policy: {policy_name}"]
    array = report.array
    notes = {ev.row_power: f"{ev.kind.value}: {ev.remedy}"
             for ev in report.events if ev.row_power is not None}
    cells = [[str(e) for e in row] for row in array.rows]
    width = max(len(c) for row in cells for c in row)
    lines.append("routh array:")
    for i, row in enumerate(cells):
        power = array.row_power(i)
        entry = "  ".join(c.ljust(width) for c in row).rstrip()
        note = f"   <- {notes[power]}" if power in notes else ""
        lines.append(f"  s^{power} | {entry}{note}")
    for ev in report.events:
        if ev.row_power is None:
            lines.append(f"note: {ev.kind.value}: {ev.remedy}")
    signs = " ".join("+" if s > 0 else "-" for s in report.first_column_signs)
    lines.append(f"first column signs: {signs}")
    lines.append(f"sign changes: {report.sign_changes}")
    lines.append(f"rhp roots: {report.rhp_count}")
    lines.append(f"verdict: {report.verdict.value}")
    if report.oracle_check is not None:
        oracle = report.oracle_check
        roots = ", ".join(f"{_fmt(r.real)}{r.imag:+.12g}j"
                          for r in oracle.root_set.roots)
        counts = oracle.counts
        lines.append("oracle:")
        lines.append(f"  roots: {roots}")
        lines.append(f"  counts: lhp={counts.lhp} rhp={counts.rhp} axis={counts.axis}")
        lines.append(f"  agreement with routh: {'yes' if oracle.agreement else 'NO'}")
        lines.append(f"  converged: {'yes' if oracle.root_set.converged else 'no'}"
                     f"  max residual: {_fmt(oracle.root_set.max_residual)}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    poly = Polynomial.parse(args.coeffs)
    policy = Policy(args.policy)
    report = classify(poly, policy, with_oracle=args.oracle)
    if args.json:
        sys.stdout.write(render_json(analysis_document(poly, args.policy, report)))
    else:
        sys.stdout.write(_analysis_text(poly, args.policy, report))
    return _VERDICT_EXIT[report.verdict]


def _cmd_compare(args) -> int:
    poly = Polynomial.parse(args.coeffs)
    root_set = find_roots(poly) if poly.degree >= 1 else None
    counts = half_plane_counts(root_set) if root_set else None
    oracle_rhp = counts.rhp if counts else 0

    rows = []
    for policy in _COMPARE_POLICIES:
        try:
            report = classify(poly, policy)
            rows.append({
                "policy": policy.value,
                "supported": True,
                "sign_changes": report.sign_changes,
                "rhp_count": report.rhp_count,
                "verdict": report.verdict.value,
                "events": [_event_doc(ev) for ev in report.events],
                "agrees_with_oracle": report.rhp_count == oracle_rhp,
            })
        except PolicyUnsupported as exc:
            rows.append({
                "policy": policy.value,
                "supported": False,
                "sign_changes": None,
                "rhp_count": None,
                "verdict": Verdict.UNDETERMINED.value,
                "events": [],
                "error": str(exc),
                "agrees_with_oracle": None,
            })

    if args.json:
        doc = {
            "input": {"degree": poly.degree,
                      "coefficients": poly.descending_strings()},
            "policies": rows,
            "oracle": {
                "roots": [{"re": _fmt(r.real), "im": _fmt(r.imag)}
                          for r in (root_set.roots if root_set else ())],
                "lhp": counts.lhp if counts else 0,
                "rhp": oracle_rhp,
                "axis": counts.axis if counts else 0,
            },
            "version": __version__,
        }
        sys.stdout.write(render_json(doc))
    else:
        lines = [f"polynomial: {poly}  (degree {poly.degree})"]
        header = f"{'policy':<12} {'sign_changes':>12} {'rhp':>4}  {'verdict':<20} {'agrees':>7}  events"
        lines.append(header)
        for row in rows:
            if row["supported"]:
                events = ",".join(f"{e['kind']}@s^{e['row_power']}"
                                  if e["row_power"] is not None else e["kind"]
                                  for e in row["events"]) or "-"
                agrees = "yes" if row["agrees_with_oracle"] else "NO"
                lines.append(f"{row['policy']:<12} {row['sign_changes']:>12} "
                             f"{row['rhp_count']:>4}  {row['verdict']:<20} "
                             f"{agrees:>7}  {events}")
            else:
                lines.append(f"{row['policy']:<12} {'-':>12} {'-':>4}  "
                             f"{row['verdict']:<20} {'-':>7}  PolicyUnsupported")
        lines.append(f"{'oracle':<12} {'-':>12} {oracle_rhp:>4}  "
                     f"lhp={counts.lhp if counts else 0} axis={counts.axis if counts else 0}")
        sys.stdout.write("\n".join(lines) + "\n")

    supported = [r for r in rows if r["supported"]]
    return 0 if all(r["agrees_with_oracle"] for r in supported) else 1


def _corpus_doc(summary: CorpusSummary) -> dict:
    return {
        "count": summary.count,
        "max_degree": summary.max_degree,
        "seed": summary.seed,
        "lhp_only": summary.lhp_only,
        "policy": summary.policy.value,
        "agreements": summary.agreements,
        "agreement_rate": f"{summary.agreements}/{summary.count}",
        "verdicts": dict(sorted(summary.verdict_counts.items())),
        "events": dict(sorted(summary.event_counts.items())),
        "polynomials_with_events": summary.polynomials_with_events,
        "disagreements": [
            {
                "polynomial": d.polynomial,
                "routh_rhp": d.routh_rhp,
                "oracle_rhp": d.oracle_rhp,
                "expected_rhp": d.expected_rhp,
                "roots": [{"re": _fmt(r.real), "im": _fmt(r.imag)} for r in d.roots],
                "events": list(d.events),
            }
            for d in summary.disagreements
        ],
        "version": __version__,
    }


def _cmd_corpus(args) -> int:
    summary = run_corpus(args.count, args.max_degree, args.seed,
                         lhp_only=args.lhp_only)
    if args.json:
        sys.stdout.write(render_json(_corpus_doc(summary)))
    else:
        lines = [
            f"corpus: count={summary.count} max_degree={summary.max_degree} "
            f"seed={summary.seed} roots={'lhp-only' if summary.lhp_only else 'mixed'}",
            f"agreement: {summary.agreements}/{summary.count}",
            "verdicts: " + (" ".join(f"{k}={v}" for k, v in
                                     sorted(summary.verdict_counts.items())) or "-"),
            "events: " + (" ".join(f"{k}={v}" for k, v in
                                   sorted(summary.event_counts.items())) or "none"),
        ]
        if summary.disagreements:
            for d in summary.disagreements:
                lines.append(
                    f"DISAGREEMENT: {d.polynomial} routh_rhp={d.routh_rhp} "
                    f"oracle_rhp={d.oracle_rhp} expected_rhp={d.expected_rhp} "
                    f"roots={[str(r) for r in d.roots]} events={list(d.events)}")
        else:
            lines.append("disagreements: none")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if summary.all_agree else 1


def _cmd_sweep(args) -> int:
    lo, hi = args.range
    result = run_sweep(args.coeffs, lo, hi, args.steps,
                       policy=Policy(args.policy))
    if args.json:
        doc = {
            "parameter": result.parameter,
            "range": {"lo": str(result.lo), "hi": str(result.hi)},
            "steps": result.steps,
            "intervals": [{"lo": str(a), "hi": str(b)}
                          for a, b in result.intervals],
            "version": __version__,
        }
        if args.samples:
            doc["samples"] = [{"K": str(v), "verdict": verdict}
                              for v, verdict in result.samples]
        sys.stdout.write(render_json(doc))
    else:
        lines = [f"sweep over {result.parameter}: range {result.lo} to {result.hi} "
                 f"in {result.steps} steps (policy {args.policy})"]
        if result.intervals:
            lines.append(f"stable intervals for {result.parameter}:")
            for a, b in result.intervals:
                lines.append(f"  [{_fmt(float(a))}, {_fmt(float(b))}]"
                             f"  (exact {a} .. {b})")
        else:
            lines.append("stable intervals: none")
        if args.samples:
            for v, verdict in result.samples:
                lines.append(f"  K={_fmt(float(v))}: {verdict}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _range_arg(text: str) -> tuple[Fraction, Fraction]:
    try:
        lo_text, hi_text = text.split(":", 1)
        return Fraction(lo_text), Fraction(hi_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"range must look like lo:hi, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="routhkit",
                     description="Exact Routh-Hurwitz stability analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    policies = [p.value for p in Policy]

    analyze = sub.add_parser("analyze", help="analyze one polynomial")
    analyze.add_argument("--coeffs", required=True,
                         help='descending coefficients ("1,0,0,0,1") or terms ("s^4 + 1")')
    analyze.add_argument("--policy", choices=policies, default=Policy.AUTO.value)
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--oracle", action="store_true",
                         help="attach the numeric root-finding cross-check")
    analyze.set_defaults(func=_cmd_analyze)

    compare = sub.add_parser("compare",
                             help="run every policy side by side with the oracle")
    compare.add_argument("--coeffs", required=True)
    compare.add_argument("--json", action="store_true")
    compare.set_defaults(func=_cmd_compare)

    corpus = sub.add_parser("corpus", help="randomized differential verification")
    corpus.add_argument("--count", type=int, default=1000)
    corpus.add_argument("--max-degree", type=int, default=8)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--lhp-only", action="store_true",
                        help="build polynomials only from left-half-plane roots")
    corpus.add_argument("--json", action="store_true")
    corpus.set_defaults(func=_cmd_corpus)

    sweep = sub.add_parser("sweep", help="scan one K coefficient for stability")
    sweep.add_argument("--coeffs", required=True,
                       help='descending coefficients with one K, e.g. "1,3,3,K"')
    sweep.add_argument("--range", type=_range_arg, required=True, metavar="LO:HI")
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--policy", choices=policies, default=Policy.AUTO.value)
    sweep.add_argument("--samples", action="store_true",
                       help="include the per-sample verdicts")
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RouthKitError, ValueError, ZeroDivisionError) as exc:
        print(f"routhkit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a crash must not read as a verdict
        print(f"routhkit: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
