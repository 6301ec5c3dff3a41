"""Per-layer spans recorded from the benchmark's side of the program boundary.

:meth:`Tracer.install` wraps the public functions of each ``qnetagg`` module
and puts the wrapper in place of every module attribute bound to the
original function, so that calls the package makes through those names
(``engine.block_success`` from the planner, ``validate`` imported into the
engine, ...) pass through the wrapper.  A span's self time is its duration
minus the durations of the spans it directly encloses.  Spans stay in
memory as per-function sums; :meth:`Tracer.metrics` turns them into the
per-layer metrics.  Nothing inside the package is changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# Module -> public functions wrapped.  Within a module only the entry points
# are wrapped, so a function's self time includes the helpers it calls.
WRAPPED = {
    "cli": ("main",),
    "model": ("validate", "load_config"),
    "closed_form": ("ps6", "ps15", "ps_single", "ps_single_withheld", "ps_two_channel"),
    "engine": (
        "cluster_decompose",
        "cluster_loss_pmf",
        "loss_distribution",
        "success_probability",
        "block_success",
        "brute_force",
    ),
    "planner": ("solve_p1", "sweep_curve", "allocate", "single_channel_solutions"),
    "montecarlo": ("estimate",),
    "wiring": ("search_shared_photon_wiring", "wiring_configuration"),
    "circuits": ("verification_report",),
}

# Calls that evaluate P_S once for the planner.
EVALUATORS = {"engine.block_success", "closed_form.ps6", "closed_form.ps15"}

# (metric name, unit, better) in the order they are reported.
PER_LAYER = (
    ("cli.main.self_ms", "ms", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.validate.self_ms", "ms", "lower"),
    ("model.load_config.self_ms", "ms", "lower"),
    ("closed_form.calls", "count", "lower"),
    ("closed_form.self_ms", "ms", "lower"),
    ("engine.cluster_decompose.self_ms", "ms", "lower"),
    ("engine.cluster_loss_pmf.calls", "count", "lower"),
    ("engine.cluster_loss_pmf.self_ms", "ms", "lower"),
    ("engine.patterns", "count", "lower"),
    ("engine.patterns_per_s", "1/s", "higher"),
    ("engine.exact_clusters", "count", "lower"),
    ("engine.loss_distribution.self_ms", "ms", "lower"),
    ("engine.block_success.calls", "count", "lower"),
    ("engine.block_success.self_ms", "ms", "lower"),
    ("engine.block_success.us_per_call", "us", "lower"),
    ("engine.brute_force.self_ms", "ms", "lower"),
    ("planner.sweep_curve.self_ms", "ms", "lower"),
    ("planner.solve_p1.calls", "count", "lower"),
    ("planner.evaluations_per_point", "count", "lower"),
    ("planner.allocate.self_ms", "ms", "lower"),
    ("planner.allocate.candidates", "count", "lower"),
    ("montecarlo.estimate.self_ms", "ms", "lower"),
    ("montecarlo.samples", "count", "higher"),
    ("montecarlo.samples_per_s", "1/s", "higher"),
    ("wiring.search.self_ms", "ms", "lower"),
    ("wiring.configurations", "count", "lower"),
    ("circuits.verification_report.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class _Span:
    __slots__ = ("name", "child", "evals")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.evals = 0


class Tracer:
    """Wraps the package's public functions and sums calls, time and self time."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[_Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.enum_seconds = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qnetagg"]
        for short, names in WRAPPED.items():
            module = sys.modules[f"qnetagg.{short}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = _Span(name)
            self._stack.append(span)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child += elapsed
                self._record(span, elapsed, ok, args, kwargs)

        return traced

    # -- counters ----------------------------------------------------------

    def _record(self, span: _Span, elapsed: float, ok: bool, args, kwargs) -> None:
        name = span.name
        own = elapsed - span.child
        self.calls[name] += 1
        self.total[name] += elapsed
        self.own[name] += own
        if name in EVALUATORS:
            for outer in reversed(self._stack):
                if outer.name.startswith("planner."):
                    outer.evals += 1
                    break
        elif name == "planner.solve_p1" and ok:
            self.counts["solved_points"] += 1
            self.counts["solved_evals"] += span.evals
        elif name == "planner.allocate":
            self.counts["allocate_candidates"] += span.evals
        elif name == "engine.cluster_loss_pmf":
            cluster, config = args[0], args[1]
            if len(cluster.qudit_indices) > 1:
                self.counts["patterns"] += 1 << len(cluster.photon_indices)
                self.enum_seconds += own
            if any(isinstance(ch.p, Fraction) for ch in config.channels):
                by_id = {ch.id: ch.p for ch in config.channels}
                if any(
                    isinstance(by_id[config.photons[i].channel_id], Fraction)
                    for i in cluster.photon_indices
                ):
                    self.counts["exact_clusters"] += 1
        elif name == "montecarlo.estimate":
            self.counts["samples"] += args[1] if len(args) > 1 else kwargs["samples"]

    def metrics(self, rounds: int, overhead_pct: float) -> dict:
        """Per-layer metrics per round of the op list."""
        ms = lambda seconds: 1e3 * seconds / rounds  # noqa: E731
        per = lambda count: count / rounds  # noqa: E731
        closed = [n for n in self.calls if n.startswith("closed_form.")]
        wiring = [n for n in self.calls if n.startswith("wiring.")]
        solved = self.counts["solved_points"]
        bs_calls = self.calls["engine.block_success"]
        mc_seconds = self.total["montecarlo.estimate"]
        values = {
            "cli.main.self_ms": ms(self.own["cli.main"]),
            "model.validate.calls": per(self.calls["model.validate"]),
            "model.validate.self_ms": ms(self.own["model.validate"]),
            "model.load_config.self_ms": ms(self.own["model.load_config"]),
            "closed_form.calls": per(sum(self.calls[n] for n in closed)),
            "closed_form.self_ms": ms(sum(self.own[n] for n in closed)),
            "engine.cluster_decompose.self_ms": ms(self.own["engine.cluster_decompose"]),
            "engine.cluster_loss_pmf.calls": per(self.calls["engine.cluster_loss_pmf"]),
            "engine.cluster_loss_pmf.self_ms": ms(self.own["engine.cluster_loss_pmf"]),
            "engine.patterns": per(self.counts["patterns"]),
            "engine.patterns_per_s": (
                self.counts["patterns"] / self.enum_seconds if self.enum_seconds else 0.0
            ),
            "engine.exact_clusters": per(self.counts["exact_clusters"]),
            "engine.loss_distribution.self_ms": ms(self.own["engine.loss_distribution"]),
            "engine.block_success.calls": per(bs_calls),
            "engine.block_success.self_ms": ms(self.own["engine.block_success"]),
            "engine.block_success.us_per_call": (
                1e6 * self.total["engine.block_success"] / bs_calls if bs_calls else 0.0
            ),
            "engine.brute_force.self_ms": ms(self.own["engine.brute_force"]),
            "planner.sweep_curve.self_ms": ms(self.own["planner.sweep_curve"]),
            "planner.solve_p1.calls": per(self.calls["planner.solve_p1"]),
            "planner.evaluations_per_point": (
                self.counts["solved_evals"] / solved if solved else 0.0
            ),
            "planner.allocate.self_ms": ms(self.own["planner.allocate"]),
            "planner.allocate.candidates": per(self.counts["allocate_candidates"]),
            "montecarlo.estimate.self_ms": ms(self.own["montecarlo.estimate"]),
            "montecarlo.samples": per(self.counts["samples"]),
            "montecarlo.samples_per_s": (
                self.counts["samples"] / mc_seconds if mc_seconds else 0.0
            ),
            "wiring.search.self_ms": ms(sum(self.own[n] for n in wiring)),
            "wiring.configurations": per(self.calls["wiring.wiring_configuration"]),
            "circuits.verification_report.self_ms": ms(self.own["circuits.verification_report"]),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
