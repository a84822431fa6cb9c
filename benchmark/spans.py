"""In-process span recorder for the traced run.

The recorder replaces layer entry points by name, in the module namespace
where their callers look them up (``taylorlaw.cli.parse_longitudinal``,
``taylorlaw.pointprocess.simulate_hardcore`` and so on), with wrappers that
record one span per call: name, start, end, parent and command id. Spans
stay in memory until the pass ends. No file under ``src/`` is edited.

A span's self time is its duration minus the durations of its children.
Calls run on one thread and nest, so children never overlap, and the self
times of one command's spans add up to its root ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute) -> span name. A function bound in two namespaces is
# wrapped in both, because callers in each module look it up there.
ENTRY_POINTS = {
    ("taylorlaw.cli", "parse_cross_sectional"): "tables.parse",
    ("taylorlaw.cli", "parse_longitudinal"): "tables.parse",
    ("taylorlaw.cli", "parse_location"): "tables.parse",
    ("taylorlaw.cli", "extract_pairs"): "extraction.extract_pairs",
    ("taylorlaw.extraction", "mean_convert"): "extraction.mean_convert",
    ("taylorlaw.cli", "fit_log_ols"): "fitting.fit_log_ols",
    ("taylorlaw.fitting", "fit_log_ols"): "fitting.fit_log_ols",
    ("taylorlaw.cli", "fit_nls"): "fitting.fit_nls",
    ("taylorlaw.cli", "classify"): "fitting.classify",
    ("taylorlaw.cli", "fit_dispersion"): "dispersion.fit_dispersion",
    ("taylorlaw.cli", "simulate_poisson"): "pointprocess.simulate_poisson",
    ("taylorlaw.pointprocess", "simulate_poisson"): "pointprocess.simulate_poisson",
    ("taylorlaw.cli", "simulate_thomas"): "pointprocess.simulate_thomas",
    ("taylorlaw.pointprocess", "simulate_thomas"): "pointprocess.simulate_thomas",
    ("taylorlaw.cli", "simulate_hardcore"): "pointprocess.simulate_hardcore",
    ("taylorlaw.pointprocess", "simulate_hardcore"): "pointprocess.simulate_hardcore",
    ("taylorlaw.pointprocess", "quadrat_counts"): "pointprocess.quadrat_counts",
    ("taylorlaw.cli", "taylor_experiment"): "pointprocess.taylor_experiment",
    ("taylorlaw.cli", "estimate_pcf"): "pointprocess.estimate_pcf",
    ("taylorlaw.cli", "fit_pcf"): "pointprocess.fit_pcf",
    ("taylorlaw.cli", "build_fit_report"): "cli.build_fit_report",
    ("taylorlaw.cli", "render_report"): "cli.render_report",
    ("taylorlaw.cli", "emit_svg_plot"): "svgplot.emit_svg_plot",
}

ROOT = "cli.main"
_FITS = ("fitting.fit_log_ols", "fitting.fit_nls")


@dataclass
class Span:
    name: str
    command: int
    parent: Span | None
    start: int
    end: int = 0
    child_ns: int = 0
    failed: bool = False
    args: tuple = ()
    result: Any = None

    @property
    def total_s(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_s(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e9


@dataclass
class Recorder:
    """Wraps the entry points while installed and collects their spans."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple[Any, str, Callable]] = field(default_factory=list)
    command: int = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.command, parent, 0, args=args)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        except Exception:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent.child_ns += span.end - span.start
            self.spans.append(span)

    def install(self) -> None:
        for (module_name, attr), name in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def run_main(argv: list[str], recorder: Recorder | None) -> tuple[int, bytes, bytes]:
    """Run ``taylorlaw.cli.main`` in-process; returns exit status, stdout
    and stderr."""
    import taylorlaw.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if recorder is None:
                status = taylorlaw.cli.main(argv)
            else:
                status = recorder.call(ROOT, taylorlaw.cli.main, argv)
        except Exception:
            # The interpreter exits 1 on an uncaught exception.
            traceback.print_exc()
            status = 1
    return status, out.getvalue().encode(), err.getvalue().encode()


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy times and counts of one traced pass."""
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for key in PER_LAYER_KEYS:
        m[key] = 0.0
    proposals = survivors = 0.0
    for s in spans:
        r = s.result
        top_fit = s.name in _FITS and (s.parent is None or s.parent.name not in _FITS)
        if s.name == ROOT:
            add("cli.main_s", s.total_s)
            add("cli.self_s", s.self_s)
        elif s.name == "tables.parse":
            add("tables.parse_s", s.total_s)
            add("tables.parse_calls", 1)
            if r is not None:
                add("tables.cells", r.counts.size)
        elif s.name == "extraction.extract_pairs":
            add("extraction.extract_s", s.self_s)
            add("extraction.calls", 1)
            if r is not None:
                add("extraction.pairs", len(r.pairs))
        elif s.name == "extraction.mean_convert":
            add("extraction.mean_convert_s", s.total_s)
        elif s.name in _FITS:
            short = s.name.split(".")[1]
            add(f"fitting.{short}_s", s.self_s)
            add(f"fitting.{short}_calls", 1)
            if top_fit and r is not None:
                add("fitting.pairs_used", r.n_used)
                add("fitting.pairs_dropped", r.n_dropped)
                add("fitting.pairs_offered", r.n_used + r.n_dropped)
                if r.method == "nls" and not r.converged:
                    add("fitting.nls_unconverged", 1)
            if top_fit and s.failed:
                add("fitting.errors", 1)
        elif s.name == "fitting.classify":
            add("fitting.classify_s", s.total_s)
            if s.failed:
                add("fitting.errors", 1)
        elif s.name == "dispersion.fit_dispersion":
            add("dispersion.fit_s", s.total_s)
            add("dispersion.calls", 1)
            if s.failed:
                add("dispersion.errors", 1)
        elif s.name.startswith("pointprocess.simulate_"):
            add(f"{s.name}_s", s.total_s)
            add("pointprocess.simulations", 1)
            if r is not None:
                add("pointprocess.points", r.n)
                if s.name.endswith("hardcore"):
                    survivors += r.n
                    proposals += float(s.args[0])
        elif s.name == "pointprocess.quadrat_counts":
            add("pointprocess.quadrat_s", s.total_s)
        elif s.name == "pointprocess.taylor_experiment":
            add("pointprocess.experiment_self_s", s.self_s)
        elif s.name == "pointprocess.estimate_pcf":
            add("pointprocess.estimate_pcf_s", s.total_s)
            if r is not None:
                add("pointprocess.pcf_pairs", r.n_points * (r.n_points - 1) / 2)
        elif s.name == "pointprocess.fit_pcf":
            add("pointprocess.fit_pcf_s", s.total_s)
        elif s.name == "cli.build_fit_report":
            add("cli.build_fit_report_self_s", s.self_s)
        elif s.name == "cli.render_report":
            add("cli.render_s", s.total_s)
        elif s.name == "svgplot.emit_svg_plot":
            add("svgplot.emit_s", s.total_s)
            add("svgplot.calls", 1)
        else:
            raise KeyError(f"span {s.name!r} has no metric")
    m["pointprocess.kept_per_proposed"] = survivors / proposals if proposals else 0.0
    return m


def self_time_sum(m: dict[str, float]) -> float:
    """Sum of the self times that partition ``cli.main_s``."""
    return sum(m[k] for k in SELF_TIME_KEYS)


# Metrics whose values partition the root span: every span's self time is
# counted in exactly one of them.
SELF_TIME_KEYS = (
    "cli.self_s",
    "tables.parse_s",
    "extraction.extract_s",
    "extraction.mean_convert_s",
    "fitting.fit_log_ols_s",
    "fitting.fit_nls_s",
    "fitting.classify_s",
    "dispersion.fit_s",
    "pointprocess.simulate_poisson_s",
    "pointprocess.simulate_thomas_s",
    "pointprocess.simulate_hardcore_s",
    "pointprocess.quadrat_s",
    "pointprocess.experiment_self_s",
    "pointprocess.estimate_pcf_s",
    "pointprocess.fit_pcf_s",
    "cli.build_fit_report_self_s",
    "cli.render_s",
    "svgplot.emit_s",
)

PER_LAYER_KEYS = SELF_TIME_KEYS + (
    "cli.main_s",
    "tables.parse_calls",
    "tables.cells",
    "extraction.calls",
    "extraction.pairs",
    "fitting.fit_log_ols_calls",
    "fitting.fit_nls_calls",
    "fitting.nls_unconverged",
    "fitting.pairs_used",
    "fitting.pairs_dropped",
    "fitting.pairs_offered",
    "fitting.errors",
    "dispersion.calls",
    "dispersion.errors",
    "pointprocess.simulations",
    "pointprocess.points",
    "pointprocess.pcf_pairs",
    "svgplot.calls",
)
