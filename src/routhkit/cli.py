"""Command-line surface: analyze, compare, corpus, and sweep.

Each command builds one document and returns it with a text view, rendered
from the document on demand, and the exit code; `--json` prints the
document and otherwise the text view is printed.  The analyze document has
the fixed top-level key order {input, policy, array, events, signs,
sign_changes, rhp_count, verdict, oracle, version}; all exact values render
as fraction strings and all floating-point numbers as decimal strings with
12 significant digits, so emitted documents are byte-stable across runs and
platforms.

Exit codes: 0 Stable, 1 Unstable, 2 Marginal/Undetermined, 64 usage error,
65 data error, 70 internal error (a defect in routhkit, never a verdict).
`corpus` exits 1 when any disagreement is found.

Each command runs in a fresh process, so start-up is part of every answer.
A module that only some commands need is imported inside those commands,
never at the top of this module: `corpus`, `sweep` and `json` here, and the
root oracle inside `routh.oracle_summary`.  The package itself resolves its
names lazily, so `import routhkit` loads no submodule.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import RouthKitError
from .polynomial import Polynomial
from .routh import (OracleSummary, Policy, PolicyUnsupported, StabilityReport,
                    Verdict, classify, oracle_summary)

if TYPE_CHECKING:
    from .corpus import CorpusSummary

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
    import json
    return json.dumps(doc, indent=2) + "\n"


def _input_doc(poly: Polynomial) -> dict:
    return {"degree": poly.degree, "coefficients": poly.descending_strings()}


def _events_doc(events) -> list[dict]:
    return [{"kind": ev.kind.value, "row_power": ev.row_power, "remedy": ev.remedy}
            for ev in events]


def _roots_doc(roots) -> list[dict]:
    return [{"re": _fmt(r.real), "im": _fmt(r.imag)} for r in roots]


def _root_text(root: dict) -> str:
    """`re+imj` from a root document entry."""
    im = root["im"]
    return f"{root['re']}{im if im.startswith('-') else '+' + im}j"


def _oracle_doc(oracle: OracleSummary | None):
    if oracle is None:
        return None
    if oracle.unavailable is not None:
        return {"unavailable": oracle.unavailable}
    rs, counts = oracle.root_set, oracle.counts
    return {
        "roots": _roots_doc(rs.roots),
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
        "input": _input_doc(poly),
        "policy": policy_name,
        "array": [[str(e) for e in row] for row in report.array.rows],
        "events": _events_doc(report.events),
        "signs": ["+" if s > 0 else "-" for s in report.first_column_signs],
        "sign_changes": report.sign_changes,
        "rhp_count": report.rhp_count,
        "verdict": report.verdict.value,
        "oracle": _oracle_doc(report.oracle_check),
        "version": __version__,
    }


def _analysis_text(doc: dict, poly: Polynomial) -> str:
    lines = [f"polynomial: {poly}  (degree {poly.degree})",
             f"policy: {doc['policy']}"]
    notes = {ev["row_power"]: f"{ev['kind']}: {ev['remedy']}"
             for ev in doc["events"] if ev["row_power"] is not None}
    cells = doc["array"]
    width = max(len(c) for row in cells for c in row)
    lines.append("routh array:")
    for i, row in enumerate(cells):
        power = len(cells) - 1 - i
        entry = "  ".join(c.ljust(width) for c in row).rstrip()
        note = f"   <- {notes[power]}" if power in notes else ""
        lines.append(f"  s^{power} | {entry}{note}")
    for ev in doc["events"]:
        if ev["row_power"] is None:
            lines.append(f"note: {ev['kind']}: {ev['remedy']}")
    lines.append(f"first column signs: {' '.join(doc['signs'])}")
    lines.append(f"sign changes: {doc['sign_changes']}")
    lines.append(f"rhp roots: {doc['rhp_count']}")
    lines.append(f"verdict: {doc['verdict']}")
    oracle = doc["oracle"]
    if oracle is not None and "unavailable" in oracle:
        lines.append(f"oracle: unavailable ({oracle['unavailable']})")
    elif oracle is not None:
        lines.append("oracle:")
        lines.append(f"  roots: {', '.join(_root_text(r) for r in oracle['roots'])}")
        lines.append(f"  counts: lhp={oracle['lhp']} rhp={oracle['rhp']} axis={oracle['axis']}")
        lines.append(f"  agreement with routh: {'yes' if oracle['agreement'] else 'NO'}")
        lines.append(f"  converged: {'yes' if oracle['converged'] else 'no'}"
                     f"  max residual: {oracle['max_residual']}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args):
    poly = Polynomial.parse(args.coeffs)
    report = classify(poly, Policy(args.policy), with_oracle=args.oracle)
    doc = analysis_document(poly, args.policy, report)
    return doc, lambda: _analysis_text(doc, poly), _VERDICT_EXIT[report.verdict]


def _policy_row(poly: Polynomial, policy: Policy, oracle_rhp: int | None) -> dict:
    try:
        report = classify(poly, policy)
    except PolicyUnsupported as exc:
        return {
            "policy": policy.value,
            "supported": False,
            "sign_changes": None,
            "rhp_count": None,
            "verdict": Verdict.UNDETERMINED.value,
            "events": [],
            "error": str(exc),
            "agrees_with_oracle": None,
        }
    return {
        "policy": policy.value,
        "supported": True,
        "sign_changes": report.sign_changes,
        "rhp_count": report.rhp_count,
        "verdict": report.verdict.value,
        "events": _events_doc(report.events),
        "agrees_with_oracle": (None if oracle_rhp is None
                               else report.rhp_count == oracle_rhp),
    }


def _compare_text(doc: dict, poly: Polynomial) -> str:
    lines = [f"polynomial: {poly}  (degree {poly.degree})",
             f"{'policy':<12} {'sign_changes':>12} {'rhp':>4}  {'verdict':<20} "
             f"{'agrees':>7}  events"]
    for row in doc["policies"]:
        if row["supported"]:
            events = ",".join(f"{e['kind']}@s^{e['row_power']}"
                              if e["row_power"] is not None else e["kind"]
                              for e in row["events"]) or "-"
            agrees = {True: "yes", False: "NO", None: "-"}[row["agrees_with_oracle"]]
            lines.append(f"{row['policy']:<12} {row['sign_changes']:>12} "
                         f"{row['rhp_count']:>4}  {row['verdict']:<20} "
                         f"{agrees:>7}  {events}")
        else:
            lines.append(f"{row['policy']:<12} {'-':>12} {'-':>4}  "
                         f"{row['verdict']:<20} {'-':>7}  PolicyUnsupported")
    oracle = doc["oracle"]
    if "unavailable" in oracle:
        lines.append(f"{'oracle':<12} {'-':>12} {'-':>4}  "
                     f"unavailable: {oracle['unavailable']}")
    else:
        lines.append(f"{'oracle':<12} {'-':>12} {oracle['rhp']:>4}  "
                     f"lhp={oracle['lhp']} axis={oracle['axis']}")
    return "\n".join(lines) + "\n"


def _cmd_compare(args):
    poly = Polynomial.parse(args.coeffs)
    oracle = oracle_summary(poly)
    oracle_rhp = None if oracle.unavailable else oracle.counts.rhp
    rows = [_policy_row(poly, policy, oracle_rhp) for policy in _COMPARE_POLICIES]
    oracle_doc = _oracle_doc(oracle)
    oracle_doc.pop("agreement", None)   # each policy row carries its own
    doc = {
        "input": _input_doc(poly),
        "policies": rows,
        "oracle": oracle_doc,
        "version": __version__,
    }
    # an unavailable oracle leaves nothing to disagree with
    code = 1 if any(r["agrees_with_oracle"] is False for r in rows) else 0
    return doc, lambda: _compare_text(doc, poly), code


def _corpus_doc(summary: CorpusSummary) -> dict:
    from .corpus import POLICY as CORPUS_POLICY
    return {
        "count": summary.count,
        "max_degree": summary.max_degree,
        "seed": summary.seed,
        "lhp_only": summary.lhp_only,
        "policy": CORPUS_POLICY.value,
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
                "roots": _roots_doc(d.roots),
                "events": list(d.events),
            }
            for d in summary.disagreements
        ],
        "version": __version__,
    }


def _corpus_text(doc: dict) -> str:
    lines = [
        f"corpus: count={doc['count']} max_degree={doc['max_degree']} "
        f"seed={doc['seed']} roots={'lhp-only' if doc['lhp_only'] else 'mixed'}",
        f"agreement: {doc['agreement_rate']}",
        "verdicts: " + (" ".join(f"{k}={v}" for k, v in doc["verdicts"].items()) or "-"),
        "events: " + (" ".join(f"{k}={v}" for k, v in doc["events"].items()) or "none"),
    ]
    for d in doc["disagreements"]:
        roots = [f"({_root_text(r)})" for r in d["roots"]]
        lines.append(
            f"DISAGREEMENT: {d['polynomial']} routh_rhp={d['routh_rhp']} "
            f"oracle_rhp={d['oracle_rhp']} expected_rhp={d['expected_rhp']} "
            f"roots={roots} events={d['events']}")
    if not doc["disagreements"]:
        lines.append("disagreements: none")
    return "\n".join(lines) + "\n"


def _cmd_corpus(args):
    from .corpus import run_corpus
    summary = run_corpus(args.count, args.max_degree, args.seed,
                         lhp_only=args.lhp_only)
    doc = _corpus_doc(summary)
    return doc, lambda: _corpus_text(doc), 0 if summary.all_agree else 1


def _fmt_exact(x: Fraction) -> str:
    """`_fmt` of x's double; where that overflows, or is 0 or subnormal for
    a nonzero x, the same 12 significant digits read from x itself."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if abs(f) >= sys.float_info.min or not x:
        return _fmt(f)
    from decimal import Context
    return format(Context(prec=12).divide(x.numerator, x.denominator).normalize(), "g")


def _sweep_text(doc: dict, policy_name: str) -> str:
    k = doc["parameter"]
    lines = [f"sweep over {k}: range {doc['range']['lo']} to {doc['range']['hi']} "
             f"in {doc['steps']} steps (policy {policy_name})"]
    if doc["intervals"]:
        lines.append(f"stable intervals for {k}:")
        for iv in doc["intervals"]:
            lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
            lines.append(f"  [{_fmt_exact(lo)}, {_fmt_exact(hi)}]"
                         f"  (exact {lo} .. {hi})")
    else:
        lines.append("stable intervals: none")
    for sample in doc.get("samples", ()):
        lines.append(f"  {k}={_fmt_exact(Fraction(sample[k]))}: {sample['verdict']}")
    return "\n".join(lines) + "\n"


def _cmd_sweep(args):
    from .sweep import run_sweep
    lo, hi = args.range
    result = run_sweep(args.coeffs, lo, hi, args.steps,
                       policy=Policy(args.policy))
    doc = {
        "parameter": result.parameter,
        "range": {"lo": str(result.lo), "hi": str(result.hi)},
        "steps": result.steps,
        "intervals": [{"lo": str(a), "hi": str(b)} for a, b in result.intervals],
        "version": __version__,
    }
    if args.samples:
        doc["samples"] = [{"K": str(v), "verdict": verdict}
                          for v, verdict in result.samples]
    return doc, lambda: _sweep_text(doc, args.policy), 0


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
        doc, text, code = args.func(args)
        sys.stdout.write(render_json(doc) if args.json else text())
        return code
    except (RouthKitError, ValueError) as exc:
        print(f"routhkit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a crash must not read as a verdict
        print(f"routhkit: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
