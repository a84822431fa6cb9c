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

Parsing argv and checking a ``RunConfig`` load no layer and no numpy: each
runner loads the layers it calls the first time it runs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import _HOMES
from ._choices import _PER_SUBJECT, EXPERIMENT_KINDS, PCF_FORMS, SCHEME_TAGS, _check_seed
from ._fmt import _emit, _is_comment
from ._records import _Checked
from .errors import DataError, ParseError, TaylorLawError, UsageError, fresh_copy

if TYPE_CHECKING:
    from .crossover import Classification, PacdResult
    from .dispersion import DispersionFit
    from .extraction import MVSeries, Scheme
    from .fitting import PowerLawFit
    from .tables import AbundanceTable

# The names each layer (every home module but these three) lends the
# runners: its public names, and fitting's usable_mask. A name is bound
# here when a runner first loads its layer, or when it is first read as an
# attribute (benchmark/spans.py reads the names it wraps that way), and is
# never rebound: the runners look it up in this module, so they call
# whatever wrapper was set here.
_LAYERS = {
    layer: names
    for layer, names in _HOMES.items()
    if layer not in ("_choices", "cli", "errors")
}
_LAYERS["fitting"] += ("usable_mask",)


def _load(*layers: str) -> None:
    """Import each layer and bind the names it lends this module that are
    not bound yet."""
    namespace = globals()
    for layer in layers:
        missing = [name for name in _LAYERS[layer] if name not in namespace]
        if missing:
            # __import__ rather than importlib.import_module, which -X
            # importtime does not see.
            module = __import__(f"{__package__}.{layer}", fromlist=missing)
            for name in missing:
                namespace[name] = getattr(module, name)


def __getattr__(name: str):
    for layer, names in _LAYERS.items():
        if name in names:
            _load(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


METHODS = ("log_ols", "nls")
OUTPUT_FORMATS = ("json", "csv")
GENERATOR_KINDS = ("poisson", "thomas", "hardcore")

DEFAULT_LEVELS = {
    "poisson_sweep": (25.0, 50.0, 100.0, 200.0, 400.0, 800.0),
    "thomas_cluster_sweep": (2.0, 4.0, 8.0, 16.0, 32.0),
    "hardcore_sweep": (100.0, 200.0, 400.0, 800.0),
}


class _RunConfigFields(NamedTuple):
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


class RunConfig(_Checked, _RunConfigFields):
    """Validated configuration for one CLI invocation.

    What each command requires, which ``--kind`` values it takes and whether
    it plots are looked up in ``_COMMANDS``; each flag's choices in ``_FLAGS``.
    """

    __slots__ = ()

    def _check(self) -> None:
        command = _COMMANDS.get(self.command)
        if command is None:
            raise UsageError(f"unknown command {self.command!r}")
        for flag in command.required:
            if getattr(self, _dest(flag)) in (None, ""):
                raise UsageError(f"{self.command} requires {flag}")
        if command.kinds and self.kind not in command.kinds:
            raise UsageError(
                f"{self.command} --kind must be one of {', '.join(command.kinds)}"
            )
        for flag, spec in _FLAGS.items():
            value = getattr(self, _dest(flag))
            if "choices" in spec and value is not None and value not in spec["choices"]:
                raise UsageError(f"unknown {flag[2:]} {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError("alpha must lie in (0, 1)")
        if self.min_pairs < 1:
            raise UsageError("min-pairs must be at least 1")
        if self.reps < 1:
            raise UsageError("reps must be at least 1")
        if self.q < 1:
            raise UsageError("q must be at least 1")
        _check_seed(self.seed)
        if self.plot_path is not None:
            if not self.plot_path.endswith(".svg"):
                raise UsageError("plot path must end in .svg")
            if "--plot" not in command.flags:
                raise UsageError(f"{self.command} does not produce a plot")
            if self.subject == "all":
                raise UsageError("plotting is only available for single fits")
        if self.command == "pacd":
            if self.a is not None or self.b is not None:
                if self.a is None or self.b is None:
                    raise UsageError("pacd needs both --a and --b")
                # A table fit's flags would be ignored, so any that is set
                # to other than its default is an error.
                given = [
                    flag
                    for flag in _FIT_FLAGS
                    if flag != "--format"
                    and getattr(self, _dest(flag)) != self._field_defaults[_dest(flag)]
                ]
                if given:
                    raise UsageError(f"pacd --a/--b excludes {', '.join(given)}")
            elif not (self.input_path and self.scheme_tag):
                raise UsageError("pacd needs --a/--b or --input with --scheme")


class FitReport(NamedTuple):
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
    _load("fitting", "crossover")
    if method == "log_ols":
        fit = fit_log_ols(series, min_pairs=min_pairs)
    else:
        fit = fit_nls(series)
    crossover = pacd(fit)
    try:
        call: Classification | None = classify(fit, alpha)
        call_error = ""
    except TaylorLawError as exc:
        call = None
        call_error = str(exc)
    dropped = ~usable_mask(series.means, series.variances, fit.method)
    labels = tuple(compress(series.labels, dropped.tolist()))
    return FitReport(scheme, fit, crossover, call, call_error, labels)


def _report_dict(report: FitReport) -> dict:
    """A fit report as dicts in field order; a slope test that failed is
    reported as its error."""
    call = report.classification
    return {
        "scheme": None if report.scheme is None else report.scheme._asdict(),
        "fit": report.fit._asdict(),
        "pacd": report.pacd._asdict(),
        "classification": (
            {"error": report.classification_error} if call is None else call._asdict()
        ),
        "dropped_pair_labels": report.dropped_pair_labels,
    }


def _plain_number(value) -> int | float:
    """A leaf whose type is in no leaf table, such as a numpy number that a
    library caller put in a ``RunConfig``: a real number (a type with
    ``__round__``) as a Python int if it has ``__index__``, else a float."""
    if hasattr(value, "__round__"):
        return int(value) if hasattr(value, "__index__") else float(value)
    raise TypeError(f"unsupported report value {value!r}")


def _float_leaf(non_finite: str) -> Callable[[float], str]:
    """A format's float rule: 12 significant digits, or ``non_finite``. For
    a float, ``"%.12g" % x`` is ``sig12(x)`` without its two calls."""
    isfinite = math.isfinite
    return lambda x: "%.12g" % x if isfinite(x) else non_finite


# How each format writes a leaf, looked up by its exact type. A report the
# CLI builds holds no other leaf; any other type goes through _plain_number.
# A str is written by the C encoder that json.dumps calls for one.
_JSON_LEAF: dict[type, Callable[..., str]] = {
    float: _float_leaf("null"),
    int: str,
    bool: lambda x: "true" if x else "false",
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
}
_CSV_LEAF = {
    **_JSON_LEAF,
    float: _float_leaf("nan"),
    str: str,
    type(None): lambda _: "",
}


def _render_json(value, pad: str = "") -> str:
    # A leaf is written where its container lists it, not by a call of its own.
    kind = type(value)
    if kind is dict:
        inner = pad + "  "
        items = [
            f"{inner}{encode_basestring_ascii(str(k))}: "
            + (leaf(v) if (leaf := _JSON_LEAF.get(type(v))) else _render_json(v, inner))
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if kind is list or kind is tuple:
        inner = pad + "  "
        items = [
            inner + (leaf(v) if (leaf := _JSON_LEAF.get(type(v))) else _render_json(v, inner))
            for v in value
        ]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    leaf = _JSON_LEAF.get(kind)
    return leaf(value) if leaf else _render_json(_plain_number(value))


def _flatten(value, prefix: str, rows: list) -> None:
    # A leaf is written where its container lists it, not by a call of its own.
    kind = type(value)
    if kind is dict:
        if not value:
            rows.append((prefix, ""))
        for k, v in value.items():
            path = f"{prefix}.{k}" if prefix else str(k)
            leaf = _CSV_LEAF.get(type(v))
            if leaf:
                rows.append((path, leaf(v)))
            else:
                _flatten(v, path, rows)
    elif kind is list or kind is tuple:
        if not value:
            rows.append((prefix, ""))
        for i, v in enumerate(value):
            path = f"{prefix}[{i}]"
            leaf = _CSV_LEAF.get(type(v))
            if leaf:
                rows.append((path, leaf(v)))
            else:
                _flatten(v, path, rows)
    else:
        leaf = _CSV_LEAF.get(kind)
        if leaf is None:
            return _flatten(_plain_number(value), prefix, rows)
        rows.append((prefix, leaf(value)))


def render_report(value, output_format: str) -> str:
    """Render a report structure as JSON or flat field,value CSV."""
    if output_format == "json":
        return _render_json(value) + "\n"
    rows = [("field", "value")]
    _flatten(value, "", rows)
    return _emit(rows)


def _read_text(path: str) -> str:
    """Read a UTF-8 input file; undecodable bytes are a parse error."""
    from pathlib import Path

    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
            f"at offset {exc.start}"
        ) from None


# A run of characters between the line breaks of ``str.splitlines``: the
# lines that are not empty, found without splitting the whole text.
_LINE = re.compile(r"[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _load_table(path: str) -> AbundanceTable:
    """Read an abundance CSV, choosing the layout by its header row."""
    import csv

    text = _read_text(path)
    _load("tables")
    header = None
    for match in _LINE.finditer(text):
        line = match.group()
        if line.strip() and not _is_comment(line):
            try:
                header = next(csv.reader([line]))
            except csv.Error:
                pass  # the parser reports it with its line number
            break
    if header is not None and len(header) > 1 and header[1].strip() == "time":
        return parse_longitudinal(text)
    return parse_cross_sectional(text)


def _normalize_table(table: AbundanceTable) -> AbundanceTable:
    """Divide every observation row by its row sum."""
    import numpy as np

    from .tables import _Parsed

    with np.errstate(over="ignore"):
        sums = table.counts.sum(axis=1)
    bad = np.flatnonzero((sums == 0) | np.isinf(sums))
    if bad.size:
        r = bad[0]
        where = table.subject_ids[r]
        if table.times is not None:
            where = f"{where}@{table.times[r]}"
        why = "sums to zero" if sums[r] == 0 else "sum overflows"
        raise DataError(f"cannot normalize: row {where!r} {why}")
    # A finite, non-negative count over its positive, finite row sum is
    # finite and non-negative: the quotient needs neither a copy nor a check.
    return AbundanceTable(
        table.subject_ids,
        table.species_ids,
        _Parsed(table.counts / sums[:, None]),
        times=table.times,
    )


def _fit_each(what: str, items, fit: Callable, failed: Callable) -> list:
    """Apply ``fit`` to every item, reporting a failure as ``failed(item, error)``.

    One item's data error does not stop the rest; only when every item fails
    is the run a data error. A usage error fails the whole run at once.
    """
    results, errors = [], []
    for item in items:
        try:
            results.append(fit(item))
        except DataError as exc:
            errors.append(str(exc))
            results.append(failed(item, str(exc)))
    if errors and len(errors) == len(results):
        raise DataError(f"no {what} could be fitted; first error: {errors[0]}")
    return results


def _run_table_fit(config: RunConfig) -> dict:
    _load("extraction")
    table = _load_table(config.input_path)
    if config.normalize:
        table = _normalize_table(table)
    value = {"command": config.command, "normalize": config.normalize}
    if config.scheme_tag in _PER_SUBJECT and config.subject == "all":
        # Each subject is still fitted by its own calls, so a traced run
        # sees one fit per subject; the first fit of a block of subjects
        # with equal row counts fits the whole block.
        def report(item: tuple[str, MVSeries | DataError]) -> dict:
            series = item[1]
            if isinstance(series, DataError):
                raise fresh_copy(series)
            return _report_dict(
                build_fit_report(
                    series, series.scheme, config.method, config.alpha, config.min_pairs
                )
            )

        value["reports"] = _fit_each(
            "subject",
            zip(table.subjects(), extract_subjects(table, config.scheme_tag)),
            report,
            lambda item, error: {
                "scheme": Scheme(config.scheme_tag, item[0])._asdict(),
                "error": error,
            },
        )
        return value
    scheme = Scheme(config.scheme_tag, config.subject)
    series = extract_pairs(table, scheme)
    report = build_fit_report(
        series, scheme, config.method, config.alpha, config.min_pairs
    )
    if config.plot_path:
        _load("svgplot")
        emit_svg_plot(series, report.fit, config.plot_path)
    value["report"] = _report_dict(report)
    return value


def _run_pacd(config: RunConfig) -> dict:
    if config.a is not None:
        _load("crossover")
        res = pacd_from_params(config.a, config.b)
        return {"command": "pacd", "a": config.a, "b": config.b, "pacd": res._asdict()}
    return _run_table_fit(config)


def _run_dispersion(config: RunConfig) -> dict:
    text = _read_text(config.input_path)
    _load("tables", "dispersion")
    table = parse_location(text)
    xs = list(table.distances)
    fits = _fit_each(
        "species",
        fit_dispersion_table(xs, table.counts, (config.c_low, config.c_high)),
        _fit_dict,
        lambda result, error: {"error": error},
    )
    return {
        "command": "fit-dispersion",
        "locations": list(table.location_labels),
        "distances": xs,
        "fits": dict(zip(table.species_ids, fits)),
    }


def _fit_dict(result: DispersionFit | DataError) -> dict:
    """A species' fit as a report dict; a data error in its place is raised."""
    if isinstance(result, DataError):
        raise fresh_copy(result)
    return result._asdict()


def _make_pattern(config: RunConfig):
    _load("pointprocess")
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
            fits[form] = fit_pcf(est, form)._asdict()
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
    _load("pointprocess")
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
        _load("svgplot")
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -2 and -0.2 for negative numbers, so "--b -2e-1"
        # would read -2e-1 as a flag; -2e-1, -1E+3, -inf, -nan and a --levels
        # list such as -1e3,2 are values too.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

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


def _dest(flag: str) -> str:
    """The RunConfig field a flag sets: its ``dest``, else argparse's default."""
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


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


class _Command(NamedTuple):
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


class _CommandParser(_Parser):
    """One command's parser. Its ``--kind`` and flags are added when it first
    parses, so a run adds the arguments of the command it runs and no other:
    each ``add_argument`` builds a help formatter, which asks for the terminal
    size."""

    def __init__(self, *args, command: _Command, **kwargs):
        super().__init__(*args, **kwargs)
        self._command: _Command | None = command

    def parse_known_args(self, args=None, namespace=None):
        command, self._command = self._command, None
        if command is not None:
            if command.kinds:
                self.add_argument("--kind", required=True, choices=command.kinds)
            for flag in command.flags:
                self.add_argument(flag, required=flag in command.required, **_FLAGS[flag])
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser. Every command is registered with its help
    line, so the top-level help, usage and invalid-choice error list them
    all; a command's own arguments are added only when it is the one parsed
    (``_CommandParser``)."""
    parser = _Parser(
        prog="taylorlaw",
        description="Mean-variance power laws, critical densities, and "
        "point-pattern experiments for abundance tables.",
    )
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    for name, command in _COMMANDS.items():
        subs.add_parser(
            name, help=command.help, argument_default=argparse.SUPPRESS, command=command
        )
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
