"""In-memory span recorder that wraps routhkit's public entry points.

A span is ``[name, start_ns, end_ns, parent_index, note]``.  Spans live in
a list while a traced pass runs; ``Tracer.summary`` derives calls and self
time per span name, and ``run.py`` writes the raw spans out at exit.

The program is not edited.  ``Tracer.install`` replaces each entry point at
its module attribute, and also every other routhkit module attribute that
refers to the same object, because modules bind each other's functions with
``from .x import f``.  ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter_ns

# EpsRat dunders that do field arithmetic; __sub__ and __lt__ reach __add__.
EPS_OPS = ("__add__", "__radd__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__")


class Tracer:
    """Records spans and per-report statistics for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.stats = defaultdict(int)
        self.max_residual = 0.0
        # the harness's own tallies for this traced pass
        self.tally = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, perf_counter_ns(), 0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, rk) -> None:
        """Wrap the entry points of the routhkit package object ``rk``."""
        ea = rk.exact_arith
        poly_cls = rk.polynomial.Polynomial
        for attr in EPS_OPS:
            self._set(ea.EpsRat, attr,
                      self._wrap(getattr(ea.EpsRat, attr), _eps_op_name))
        for attr in ("parse", "from_roots"):
            fn = poly_cls.__dict__[attr].__func__
            self._set(poly_cls, attr,
                      classmethod(self._wrap(fn, f"polynomial.{attr}")))
        targets = [
            (rk.routh, "classify", self._on_report),
            (rk.routh, "build_array", None),
            (rk.hurwitz, "hurwitz_stable", None),
            (rk.hurwitz, "leading_minors", self._on_minors),
            (rk.root_oracle, "find_roots", self._on_roots),
            (rk.corpus, "random_polynomial", None),
            (rk.sweep, "run_sweep", self._on_sweep),
        ]
        cli = sys.modules.get(rk.__name__ + ".cli")
        if cli is not None:
            targets.append((cli, "main", None))
        for module, attr, hook in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped = self._wrap(original, name, hook)
            for mod in _package_modules(rk.__name__):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks reading what the entry points returned ----------------------

    def _on_report(self, span, report) -> None:
        stats = self.stats
        for ev in report.events:
            stats["events." + ev.kind.value] += 1
        for row in report.array.rows:
            for entry in row:
                for poly in (entry.num, entry.den):
                    stats["max_eps_degree"] = max(stats["max_eps_degree"],
                                                  poly.degree)
                    for c in poly.coeffs:
                        bits = max(c.numerator.bit_length(),
                                   c.denominator.bit_length())
                        if bits > stats["max_coeff_bits"]:
                            stats["max_coeff_bits"] = bits

    def _on_minors(self, span, minors) -> None:
        for m in minors:
            bits = max(m.numerator.bit_length(), m.denominator.bit_length())
            if bits > self.stats["max_minor_bits"]:
                self.stats["max_minor_bits"] = bits

    def _on_roots(self, span, root_set) -> None:
        if not root_set.converged:
            span[4] = "unconverged"
        if math.isfinite(root_set.max_residual):
            self.max_residual = max(self.max_residual, root_set.max_residual)

    def _on_sweep(self, span, result) -> None:
        self.stats["sweep_samples"] += len(result.samples)

    # -- derived figures ---------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name (and name:note): calls, total and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, note in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for i, (name, start, end, parent, note) in enumerate(self.spans):
            keys = (name,) if note is None else (name, f"{name}:{note}")
            for key in keys:
                agg = out.setdefault(key, {"calls": 0, "total_ns": 0,
                                           "self_ns": 0})
                agg["calls"] += 1
                agg["total_ns"] += end - start
                agg["self_ns"] += end - start - child_ns[i]
        return out


def layer_self_ns(summary: dict[str, dict[str, int]]) -> dict[str, int]:
    """Self time per layer, the layer being the span name's first part."""
    out: dict[str, int] = defaultdict(int)
    for key, agg in summary.items():
        if ":" not in key:
            out[key.split(".", 1)[0]] += agg["self_ns"]
    return dict(out)


def _eps_op_name(args) -> str:
    a, b = args[0], args[1]
    b_free = b.is_eps_free if hasattr(b, "is_eps_free") else True
    if a.is_eps_free and b_free:
        return "exact_arith.scalar_op"
    return "exact_arith.eps_op"


def _package_modules(package: str):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]
