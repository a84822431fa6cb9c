"""Command-line front end with deterministic machine-readable reports.

Subcommands cover the whole pipeline: ``fit-taylor`` and ``classify`` run
parse -> optional row normalization -> pair extraction -> power-law fit ->
critical density -> slope-test classification on an abundance CSV;
``pacd`` computes the critical density either from explicit parameters or
from a fitted file; ``fit-dispersion`` fits the distance-decay model per
species of a location table; ``simulate``, ``pcf`` and ``experiment``
drive the point-pattern generators.

Reports are printed to standard output as JSON (default) or as flat
``field,value`` CSV. All floats are rendered at 12 significant digits and
dict order is fixed, so identical configuration and inputs produce
byte-identical bytes. Exit status is 0 on success, 1 on usage or
configuration errors, and 2 on data, domain, or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._fmt import sig12
from .dispersion import fit_dispersion
from .errors import DataError, ParseError, TaylorLawError, UsageError
from .extraction import _PER_SUBJECT, SCHEME_TAGS, MVSeries, Scheme, extract_pairs
from .fitting import (
    Classification,
    PacdResult,
    PowerLawFit,
    classify,
    fit_log_ols,
    fit_nls,
    pacd,
    pacd_from_params,
    split_usable,
)
from .pointprocess import (
    EXPERIMENT_KINDS,
    PCF_FORMS,
    _check_seed,
    estimate_pcf,
    fit_pcf,
    simulate_hardcore,
    simulate_poisson,
    simulate_thomas,
    taylor_experiment,
)
from .svgplot import emit_svg_plot
from .tables import (
    AbundanceTable,
    _is_comment,
    parse_cross_sectional,
    parse_location,
    parse_longitudinal,
)

METHODS = ("log_ols", "nls")
OUTPUT_FORMATS = ("json", "csv")
GENERATOR_KINDS = ("poisson", "thomas", "hardcore")

DEFAULT_LEVELS = {
    "poisson_sweep": (25.0, 50.0, 100.0, 200.0, 400.0, 800.0),
    "thomas_cluster_sweep": (2.0, 4.0, 8.0, 16.0, 32.0),
    "hardcore_sweep": (100.0, 200.0, 400.0, 800.0),
}

_TABLE_COMMANDS = ("fit-taylor", "classify")
_PLOT_COMMANDS = ("fit-taylor", "classify", "experiment")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI invocation."""

    command: str
    input_path: str | None = None
    scheme_tag: str | None = None
    subject: str | None = None
    method: str = "log_ols"
    alpha: float = 0.05
    min_pairs: int = 3
    normalize: bool = False
    seed: int = 0
    output_format: str = "json"
    plot_path: str | None = None
    a: float | None = None
    b: float | None = None
    kind: str | None = None
    levels: tuple[float, ...] | None = None
    reps: int = 10
    q: int = 16
    intensity: float = 100.0
    parent_intensity: float = 20.0
    mean_offspring: float = 10.0
    sigma: float = 0.02
    proposal_intensity: float = 200.0
    hardcore_radius: float = 0.02
    bin_width: float = 0.02
    r_max: float = 0.25
    c_low: float = 0.0
    c_high: float = 5.0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError("alpha must lie in (0, 1)")
        if self.min_pairs < 1:
            raise UsageError("min-pairs must be at least 1")
        _check_seed(self.seed)
        if self.output_format not in OUTPUT_FORMATS:
            raise UsageError(f"unknown output format {self.output_format!r}")
        if self.plot_path is not None:
            if not self.plot_path.endswith(".svg"):
                raise UsageError("plot path must end in .svg")
            if self.command not in _PLOT_COMMANDS:
                raise UsageError(f"{self.command} does not produce a plot")
            if self.subject == "all":
                raise UsageError("plotting is only available for single fits")
        if self.command in _TABLE_COMMANDS:
            if not self.input_path:
                raise UsageError(f"{self.command} requires --input")
            if not self.scheme_tag:
                raise UsageError(f"{self.command} requires --scheme")
        if self.command == "pacd":
            direct = self.a is not None or self.b is not None
            if direct and (self.a is None or self.b is None):
                raise UsageError("pacd needs both --a and --b")
            if not direct and not (self.input_path and self.scheme_tag):
                raise UsageError("pacd needs --a/--b or --input with --scheme")
        if self.command == "fit-dispersion" and not self.input_path:
            raise UsageError("fit-dispersion requires --input")
        if self.command in ("simulate", "pcf"):
            if self.kind not in GENERATOR_KINDS:
                raise UsageError(
                    f"simulation kind must be one of {', '.join(GENERATOR_KINDS)}"
                )
        if self.command == "experiment":
            if self.kind not in EXPERIMENT_KINDS:
                raise UsageError(
                    f"experiment kind must be one of {', '.join(EXPERIMENT_KINDS)}"
                )
            if self.reps < 1:
                raise UsageError("reps must be at least 1")
            if self.q < 1:
                raise UsageError("q must be at least 1")
        if self.scheme_tag is not None and self.scheme_tag not in SCHEME_TAGS:
            raise UsageError(f"unknown scheme {self.scheme_tag!r}")


@dataclass(frozen=True)
class FitReport:
    """Everything one fit produces: parameters, critical density, call.

    ``classification`` is None when the slope test is undefined for this
    fit (for example a zero slope standard error on exact data), with the
    explanation in ``classification_error``.
    """

    scheme: Scheme | None
    fit: PowerLawFit
    pacd: PacdResult
    classification: Classification | None
    classification_error: str
    dropped_pair_labels: tuple[str, ...]


def build_fit_report(
    series: MVSeries,
    scheme: Scheme | None,
    method: str = "log_ols",
    alpha: float = 0.05,
    min_pairs: int = 3,
) -> FitReport:
    """Fit ``series`` and derive critical density and classification."""
    if method == "log_ols":
        fit = fit_log_ols(series, min_pairs=min_pairs)
        dropped = split_usable(series)[1]
    else:
        fit = fit_nls(series)
        dropped = [p for p in series.pairs if not p.mean > 0]
    crossover = pacd(fit)
    try:
        call: Classification | None = classify(fit, alpha)
        call_error = ""
    except TaylorLawError as exc:
        call = None
        call_error = str(exc)
    labels = tuple(p.label for p in dropped)
    return FitReport(scheme, fit, crossover, call, call_error, labels)


def _report_dict(report: FitReport) -> dict:
    value = asdict(report)
    error = value.pop("classification_error")
    if report.classification is None:
        value["classification"] = {"error": error}
    return value


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return sig12(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported report value {value!r}")


def _render_json(value, level: int = 0) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render_json(v, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_render_json(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(value)


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return sig12(value) if math.isfinite(value) else "nan"
    return str(value)


def _flatten(value, prefix: str, rows: list) -> None:
    if isinstance(value, dict):
        if not value:
            rows.append((prefix, ""))
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(value, (list, tuple)):
        if not value:
            rows.append((prefix, ""))
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, _csv_scalar(value)))


def render_report(value, output_format: str) -> str:
    """Render a report structure as JSON or flat field,value CSV."""
    if output_format == "json":
        return _render_json(value) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten(value, "", rows)
    out = ["field,value"]
    for field, cell in rows:
        if any(ch in cell for ch in ',"\n\r'):
            cell = '"' + cell.replace('"', '""') + '"'
        out.append(f"{field},{cell}")
    return "\n".join(out) + "\n"


def _read_text(path: str) -> str:
    """Read a UTF-8 input file; undecodable bytes are a parse error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
            f"at offset {exc.start}"
        ) from None


def _load_table(path: str) -> AbundanceTable:
    """Read an abundance CSV, choosing the layout by its header row."""
    text = _read_text(path)
    header = None
    for line in text.splitlines():
        if line.strip() and not _is_comment(line):
            header = next(csv.reader([line]))
            break
    if header is not None and len(header) > 1 and header[1].strip() == "time":
        return parse_longitudinal(text)
    return parse_cross_sectional(text)


def _normalize_table(table: AbundanceTable) -> AbundanceTable:
    """Divide every observation row by its row sum."""
    sums = table.counts.sum(axis=1)
    for r, total in enumerate(sums):
        if total == 0:
            where = table.subject_ids[r]
            if table.times is not None:
                where = f"{where}@{table.times[r]}"
            raise DataError(f"cannot normalize: row {where!r} sums to zero")
    return AbundanceTable(
        table.subject_ids,
        table.species_ids,
        table.counts / sums[:, None],
        times=table.times,
    )


def _fit_each(what: str, items, fit: Callable, failed: Callable) -> list:
    """Apply ``fit`` to every item, reporting a failure as ``failed(item, error)``.

    One item's error does not stop the rest; only when every item fails is
    the run a data error.
    """
    results, errors = [], []
    for item in items:
        try:
            results.append(fit(item))
        except TaylorLawError as exc:
            errors.append(str(exc))
            results.append(failed(item, str(exc)))
    if errors and len(errors) == len(results):
        raise DataError(f"no {what} could be fitted; first error: {errors[0]}")
    return results


def _run_table_fit(config: RunConfig) -> dict:
    table = _load_table(config.input_path)
    if config.normalize:
        table = _normalize_table(table)
    value = {"command": config.command, "normalize": config.normalize}

    def fit(scheme: Scheme) -> tuple[MVSeries, FitReport]:
        series = extract_pairs(table, scheme)
        return series, build_fit_report(
            series, scheme, config.method, config.alpha, config.min_pairs
        )

    if config.scheme_tag in _PER_SUBJECT and config.subject == "all":
        value["reports"] = _fit_each(
            "subject",
            [Scheme(config.scheme_tag, s) for s in table.subjects()],
            lambda scheme: _report_dict(fit(scheme)[1]),
            lambda scheme, error: {"scheme": asdict(scheme), "error": error},
        )
        return value
    series, report = fit(Scheme(config.scheme_tag, config.subject))
    if config.plot_path:
        emit_svg_plot(series, report.fit, config.plot_path)
    value["report"] = _report_dict(report)
    return value


def _run_pacd(config: RunConfig) -> dict:
    if config.a is not None:
        res = pacd_from_params(config.a, config.b)
        return {"command": "pacd", "a": config.a, "b": config.b, "pacd": asdict(res)}
    value = _run_table_fit(config)
    value["command"] = "pacd"
    return value


def _run_dispersion(config: RunConfig) -> dict:
    table = parse_location(_read_text(config.input_path))
    xs = list(table.distances)
    c_interval = (config.c_low, config.c_high)
    fits = _fit_each(
        "species",
        table.counts,
        lambda ns: asdict(fit_dispersion(xs, ns.tolist(), c_interval)),
        lambda ns, error: {"error": error},
    )
    return {
        "command": "fit-dispersion",
        "locations": list(table.location_labels),
        "distances": xs,
        "fits": dict(zip(table.species_ids, fits)),
    }


def _make_pattern(config: RunConfig):
    if config.kind == "poisson":
        return simulate_poisson(config.intensity, config.seed)
    if config.kind == "thomas":
        return simulate_thomas(
            config.parent_intensity,
            config.mean_offspring,
            config.sigma,
            config.seed,
        )
    return simulate_hardcore(
        config.proposal_intensity, config.hardcore_radius, config.seed
    )


def _run_simulate(config: RunConfig) -> dict:
    pattern = _make_pattern(config)
    return {
        "command": "simulate",
        "generator": pattern.generator,
        "seed": config.seed,
        "n": pattern.n,
        "points": pattern.points.tolist(),
    }


def _run_pcf(config: RunConfig) -> dict:
    pattern = _make_pattern(config)
    est = estimate_pcf(pattern, config.bin_width, config.r_max)
    fits = {}
    for form in PCF_FORMS:
        try:
            fits[form] = asdict(fit_pcf(est, form))
        except TaylorLawError as exc:
            fits[form] = {"error": str(exc)}
    return {
        "command": "pcf",
        "generator": pattern.generator,
        "seed": config.seed,
        "n_points": est.n_points,
        "bin_width": est.bin_width,
        "estimate": {"radii": est.radii.tolist(), "g": est.g.tolist()},
        "fits": fits,
    }


def _run_experiment(config: RunConfig) -> dict:
    levels = config.levels or DEFAULT_LEVELS[config.kind]
    series = taylor_experiment(
        config.kind,
        list(levels),
        config.reps,
        config.q,
        config.seed,
        parent_intensity=config.parent_intensity,
        sigma=config.sigma,
        hardcore_radius=config.hardcore_radius,
    )
    report = build_fit_report(
        series, None, config.method, config.alpha, config.min_pairs
    )
    if config.plot_path:
        emit_svg_plot(series, report.fit, config.plot_path)
    return {
        "command": "experiment",
        "kind": config.kind,
        "levels": [float(x) for x in levels],
        "reps": config.reps,
        "q": config.q,
        "seed": config.seed,
        "pairs": [p._asdict() for p in series.pairs],
        "report": _report_dict(report),
    }


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        value = _COMMANDS[config.command].run(config)
        output = render_report(value, config.output_format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this toolkit reserves 2
    # for data errors, so usage problems must exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _levels_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must be comma-separated numbers, got {text!r}"
        )
    return values


# Every flag, declared once. Each dest is a RunConfig field name, and the
# defaults live in RunConfig: a flag left off the command line stays out of
# the parsed namespace.
_FLAGS = {
    "--input": dict(dest="input_path", metavar="INPUT", help="CSV file to analyze"),
    "--scheme": dict(dest="scheme_tag", choices=SCHEME_TAGS, help="extraction scheme"),
    "--subject": dict(help="subject for per-subject schemes; 'all' fits every subject"),
    "--method": dict(choices=METHODS),
    "--alpha": dict(type=float),
    "--min-pairs": dict(type=int),
    "--normalize": dict(action="store_true"),
    "--a": dict(type=float, help="power-law coefficient"),
    "--b": dict(type=float, help="power-law exponent"),
    "--c-low": dict(type=float),
    "--c-high": dict(type=float),
    "--intensity": dict(type=float),
    "--parent-intensity": dict(type=float),
    "--mean-offspring": dict(type=float),
    "--sigma": dict(type=float),
    "--proposal-intensity": dict(type=float),
    "--hardcore-radius": dict(type=float),
    "--seed": dict(type=int),
    "--bin-width": dict(type=float),
    "--r-max": dict(type=float),
    "--levels": dict(type=_levels_arg, help="comma-separated levels"),
    "--reps": dict(type=int),
    "--q": dict(type=int),
    "--format": dict(dest="output_format", choices=OUTPUT_FORMATS),
    "--plot": dict(dest="plot_path", metavar="PLOT", help="write a log-log SVG here"),
}

_FIT_FLAGS = (
    "--input",
    "--scheme",
    "--subject",
    "--method",
    "--alpha",
    "--min-pairs",
    "--normalize",
    "--format",
)
_GENERATOR_FLAGS = (
    "--intensity",
    "--parent-intensity",
    "--mean-offspring",
    "--sigma",
    "--proposal-intensity",
    "--hardcore-radius",
    "--seed",
    "--format",
)
_EXPERIMENT_FLAGS = (
    "--levels",
    "--reps",
    "--q",
    "--seed",
    "--parent-intensity",
    "--sigma",
    "--hardcore-radius",
    "--method",
    "--alpha",
    "--format",
    "--plot",
)


@dataclass(frozen=True)
class _Command:
    help: str
    run: Callable[[RunConfig], dict]
    flags: tuple[str, ...]
    required: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()  # choices of a required --kind flag


_COMMANDS = {
    "fit-taylor": _Command(
        "fit V = a*M^b to a table",
        _run_table_fit,
        _FIT_FLAGS + ("--plot",),
        required=("--input", "--scheme"),
    ),
    "classify": _Command(
        "fit and run the slope test",
        _run_table_fit,
        _FIT_FLAGS + ("--plot",),
        required=("--input", "--scheme"),
    ),
    "pacd": _Command(
        "aggregation critical density", _run_pacd, ("--a", "--b") + _FIT_FLAGS
    ),
    "fit-dispersion": _Command(
        "distance-decay fits per species",
        _run_dispersion,
        ("--input", "--c-low", "--c-high", "--format"),
        required=("--input",),
    ),
    "simulate": _Command(
        "draw a point pattern",
        _run_simulate,
        _GENERATOR_FLAGS,
        kinds=GENERATOR_KINDS,
    ),
    "pcf": _Command(
        "pair correlation of a simulated pattern",
        _run_pcf,
        _GENERATOR_FLAGS + ("--bin-width", "--r-max"),
        kinds=GENERATOR_KINDS,
    ),
    "experiment": _Command(
        "sweep a generator, pool counts, fit",
        _run_experiment,
        _EXPERIMENT_FLAGS,
        kinds=EXPERIMENT_KINDS,
    ),
}
COMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taylorlaw",
        description="Mean-variance power laws, critical densities, and "
        "point-pattern experiments for abundance tables.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(
            name, help=command.help, argument_default=argparse.SUPPRESS
        )
        if command.kinds:
            sub.add_argument("--kind", required=True, choices=command.kinds)
        for flag in command.flags:
            sub.add_argument(flag, required=flag in command.required, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Console entry point; returns the exit status."""
    ns = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(ns))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)
