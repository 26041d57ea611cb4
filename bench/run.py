"""routhkit benchmark: one workload per run, or every workload with no --workload.

    python3 bench/run.py --workload corpus-mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1        # every workload, untraced and traced

A run imports routhkit from ``src/`` of the checkout it sits in, builds its
inputs from ``--seed`` and sizes its work from ``--seconds``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the environment and the details behind the figures.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer, layer_self_ns
from workloads import WORKLOADS, src_env

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 9
MIN_ROUNDS = 2
PROBE_REPEATS = 5
PERCENTILES = ("50", "75", "90", "95", "99", "99.5", "99.8", "99.9")


class Recorder:
    """Latency and referee outcome of every analysis in a run."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failures: list[tuple[str, bool]] = []
        self.tally: dict[str, int] = defaultdict(int)
        self.tracer: Tracer | None = None

    def call(self, fn):
        """Run one analysis; return (result, None) or (None, exception)."""
        span = self.tracer.open("bench.analysis") if self.tracer else None
        start = perf_counter_ns()
        try:
            return fn(), None
        except Exception as exc:  # the workload's referee scores it
            return None, exc
        finally:
            self.latencies_ns.append(perf_counter_ns() - start)
            if span is not None:
                self.tracer.close(span)

    def judge(self, referee, known_defect: bool = False) -> None:
        span = self.tracer.open("bench.referee") if self.tracer else None
        try:
            failure = referee()
        finally:
            if span is not None:
                self.tracer.close(span)
        self.attempted += 1
        if failure is not None:
            self.failures.append((failure, known_defect))


# -- set-up ----------------------------------------------------------------

def import_routhkit(with_cli: bool):
    """Import routhkit afresh from this checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "routhkit" / "__init__.py").is_file():
        sys.exit(f"bench: no routhkit sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "routhkit"]:
        del sys.modules[name]
    rk = importlib.import_module("routhkit")
    if Path(rk.__file__).resolve().parent != (src / "routhkit").resolve():
        sys.exit(f"bench: routhkit was imported from {rk.__file__}")
    if with_cli:
        importlib.import_module("routhkit.cli")
    return rk


def set_up(workload_cls, seed: int):
    """Import plus building the inputs, SETUP_REPEATS times; the last
    instance is used and the median time is reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        rk = import_routhkit(workload_cls.imports_cli)
        workload = workload_cls(rk, seed, ROOT)
        times.append(perf_counter() - start)
    return workload, times


def probe_seconds(code: str, env=None) -> list[float]:
    """Wall time of fresh interpreters running ``code``, or the float each
    prints when ``code`` times itself."""
    out = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        wall = perf_counter() - start
        out.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return out


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "cli.interpreter_s": statistics.median(probe_seconds("pass")),
    }


# -- statistics ------------------------------------------------------------

def nearest_rank(sorted_values, pct: str):
    rank = max(1, math.ceil(Fraction(pct) / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(latencies_ns) -> dict:
    """The highest percentile of the ladder with at least ten samples beyond
    it (the median when there is none)."""
    values = sorted(latencies_ns)
    for p in reversed(PERCENTILES):
        value, beyond = nearest_rank(values, p)
        if beyond >= 10 or p == PERCENTILES[0]:
            return {"percentile": float(p), "value_ms": value / 1e6,
                    "samples_beyond": beyond, "samples": len(values)}
    raise AssertionError("unreachable")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# -- runs ------------------------------------------------------------------

def untraced_run(workload, seconds: float):
    """Identical rounds over every item, as many as fit in ``seconds`` (at
    least MIN_ROUNDS): a round starts only if one of the average length
    would end in time.  Each item's latency is its best round: interference
    from other processes only ever slows an analysis down, and the more
    rounds a run spreads over its time, the likelier each item meets a calm
    moment once."""
    rec = Recorder()
    n = workload.n_items
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or (
            (perf_counter() - start) * (rounds + 1) / rounds <= seconds):
        workload.run_round(rec, n)
        rounds += 1
    elapsed = perf_counter() - start
    per_item = [rec.latencies_ns[i::n] for i in range(n)]
    best = [min(samples) for samples in per_item]
    t = tail(best)
    metrics = {
        "analyses_per_s": n / (sum(best) / 1e9),
        "latency_p50_ms": statistics.median(best) / 1e6,
        "latency_tail_ms": t["value_ms"],
        "success_rate": 1 - len(rec.failures) / rec.attempted,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-cold"),
    }
    details = {"items": n, "rounds": rounds, "elapsed_s": elapsed,
               "wall_analyses_per_s": len(rec.latencies_ns) / elapsed,
               "round_s": [sum(s[r] for s in per_item) / 1e9
                           for r in range(rounds)],
               "tail": t, "error_rate": len(rec.failures) / rec.attempted,
               "tally": dict(rec.tally)}
    return rec, metrics, details


def timed_pass(workload, rec, tracer=None) -> float:
    rec.tracer = tracer
    rec.tally = tracer.tally if tracer is not None else defaultdict(int)
    if tracer is not None:
        tracer.install(workload.rk)
    start = perf_counter_ns()
    try:
        workload.run_round(rec, workload.trace_items)
    finally:
        wall = (perf_counter_ns() - start) / 1e9
        if tracer is not None:
            tracer.uninstall()
        rec.tracer = None
    return wall


def traced_run(workload, seconds: float):
    """Alternate untraced and traced passes over the first ``trace_items``
    items while another pair fits in ``seconds`` (at least one pair).

    Counts come from the first traced pass and must repeat in every later
    one; times are medians over the traced passes.
    """
    if workload.name == "cli-cold":
        workload.in_process = True
    rec = Recorder()
    untraced, traced, tracers = [], [], []
    start = perf_counter()
    # stop before a pair that would end past ``seconds``
    while not traced or (perf_counter() - start
                         + untraced[-1] + traced[-1] < seconds):
        untraced.append(timed_pass(workload, rec))
        tracer = Tracer()
        traced.append(timed_pass(workload, rec, tracer))
        tracers.append(tracer)

    summaries = [t.summary() for t in tracers]
    counts = [_counts(t, s) for t, s in zip(tracers, summaries)]
    repeat = all(c == counts[0] for c in counts)
    overhead = statistics.median(traced) - statistics.median(untraced)
    layers = [layer_self_ns(s) for s in summaries]
    layer_self_s = {name: statistics.median(l.get(name, 0) for l in layers) / 1e9
                    for name in sorted(set().union(*layers))}
    self_sum = sum(layer_self_s.values())
    untraced_wall = statistics.median(untraced)

    def self_s(key):
        return statistics.median(s.get(key, {}).get("self_ns", 0)
                                 for s in summaries) / 1e9

    import_s = statistics.median(probe_seconds(
        "import time; t = time.perf_counter(); import routhkit.cli; "
        "print(time.perf_counter() - t)", env=src_env(ROOT)))
    metrics = dict(counts[0])
    metrics.update({name: self_s(key) for name, key in SELF_TIMES.items()})
    metrics.update({"cli.import_s": import_s,
                    "trace.overhead_s": overhead,
                    "trace.untraced_wall_s": untraced_wall})
    details = {
        "pairs": len(traced),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "layer_self_s": layer_self_s,
        "layer_self_sum_s": self_sum,
        "layer_self_coverage": self_sum / statistics.median(traced),
        # Self times of all layers, the harness's own included, cover the
        # untraced wall time up to the tracing overhead.  The untraced passes'
        # own range widens the tolerance: when tracing costs little (as on
        # degenerate-ladder) the overhead is smaller than pass-to-pass noise.
        "accounted_within_overhead": abs(self_sum - untraced_wall)
                                     <= abs(overhead) + max(untraced) - min(untraced),
        "counts_repeat": repeat,
    }
    return rec, metrics, details, tracers[0], summaries[0]


# per-layer self-time metric -> span name (":note" selects tagged spans)
SELF_TIMES = {
    "exact_arith.eps_ops.self_s": "exact_arith.eps_op",
    "routh.build_array.self_s": "routh.build_array",
    "routh.classify.self_s": "routh.classify",
    "root_oracle.find_roots.self_s": "root_oracle.find_roots",
    "root_oracle.unconverged.self_s": "root_oracle.find_roots:unconverged",
    "hurwitz.leading_minors.self_s": "hurwitz.leading_minors",
    "polynomial.from_roots.self_s": "polynomial.from_roots",
    "corpus.random_polynomial.self_s": "corpus.random_polynomial",
    "polynomial.parse.self_s": "polynomial.parse",
    "sweep.run_sweep.self_s": "sweep.run_sweep",
    "cli.main.self_s": "cli.main",
}


def _counts(tracer: Tracer, summary) -> dict:
    def calls(key):
        return summary.get(key, {}).get("calls", 0)

    st = tracer.stats
    return {
        "exact_arith.eps_ops": calls("exact_arith.eps_op"),
        "exact_arith.scalar_ops": calls("exact_arith.scalar_op"),
        "exact_arith.max_eps_degree": st["max_eps_degree"],
        "exact_arith.max_coeff_bits": st["max_coeff_bits"],
        "routh.build_array.calls": calls("routh.build_array"),
        "routh.events.zero_row": st["events.ZeroRow"],
        "routh.events.zero_first_element": st["events.ZeroFirstElement"],
        "routh.policy_refusals": calls("routh.classify:PolicyUnsupported"),
        "root_oracle.find_roots.calls": calls("root_oracle.find_roots"),
        "root_oracle.unconverged": calls("root_oracle.find_roots:unconverged"),
        "root_oracle.max_residual": tracer.max_residual,
        "root_oracle.disagreements": tracer.tally["root_oracle.disagreements"],
        "hurwitz.leading_minors.calls": calls("hurwitz.leading_minors"),
        "hurwitz.max_minor_bits": st["max_minor_bits"],
        "polynomial.from_roots.calls": calls("polynomial.from_roots"),
        "sweep.samples": st["sweep_samples"],
        "cli.exit_mismatches": tracer.tally["cli.exit_mismatches"],
    }


def write_spans(path: Path, workload_name: str, seed: int, tracer: Tracer,
                summary: dict, details: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload_name,
        "seed": seed,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "note"],
        "summary": summary,
        "details": details,
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# -- entry points ----------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload, setup_times = set_up(WORKLOADS[name], seed)
    env = environment(seed)
    if trace:
        rec, metrics, details, tracer, summary = traced_run(workload, seconds)
        metrics["cli.interpreter_s"] = env["cli.interpreter_s"]
        write_spans(RESULTS / f"trace-{name}-seed{seed}.json", name, seed,
                    tracer, summary, details)
    else:
        rec, metrics, details = untraced_run(workload, seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        details["setup_times_s"] = setup_times
    unexpected = [f for f, known in rec.failures if not known]
    details["failures"] = sorted({f for f, _ in rec.failures})
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    print("env: " + json.dumps(env))
    print("details: " + json.dumps(details))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced; prints every
    metric by name with its unit and writes them to bench/results/."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = json.loads(lines[0].removeprefix("env: "))
            details = json.loads(lines[1].removeprefix("details: "))
            entry = report["workloads"].setdefault(name, {})
            entry["trace" if trace else "end_to_end"] = {
                "result": result, "env": env, "details": details}
            print(f"{name}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<36} {m['value']:>16.6g} {m['unit']}")
            if not trace:
                t = details["tail"]
                print(f"  (latency_tail_ms is p{t['percentile']:g} of "
                      f"{t['samples']} samples, {t['samples_beyond']} beyond; "
                      f"error_rate {details['error_rate']:.6g})")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"all-seed{seed}.json").write_text(json.dumps(report, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
