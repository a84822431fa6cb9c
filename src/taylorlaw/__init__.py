"""Heterogeneity analysis of species-abundance communities.

The package quantifies how unevenly abundance is spread by fitting the
mean-variance power law V = a*M^b across communities, converting the fit
into an aggregation critical density and an aggregated/random/regular
call, and validating the whole chain against simulated spatial point
patterns with known answers. A distance-decay model and a pair correlation
estimator round out the toolkit; the ``taylorlaw`` console script exposes
everything on files.

Importing the package loads none of its modules: each public name loads
its home module the first time it is used (PEP 562).
"""

__version__ = "0.1.0"

# Each public name by the module that defines it.
_HOMES = {
    "_choices": ("EXPERIMENT_KINDS", "SCHEME_TAGS"),
    "cli": ("FitReport", "RunConfig", "build_fit_report", "main", "run"),
    "crossover": (
        "Classification",
        "PacdResult",
        "classify",
        "classify_from_params",
        "pacd",
        "pacd_from_params",
        "t_tail_probability",
    ),
    "dispersion": ("DispersionFit", "fit_dispersion", "fit_dispersion_table"),
    "errors": (
        "DataError",
        "DegenerateDesignError",
        "DomainError",
        "InsufficientDataError",
        "ParseError",
        "TaylorLawError",
        "UsageError",
    ),
    "extraction": (
        "MVPair",
        "MVSeries",
        "Scheme",
        "extract_pairs",
        "extract_subjects",
        "mean_convert",
        "sample_variance",
    ),
    "fitting": ("PowerLawFit", "fit_log_ols", "fit_nls"),
    "pointprocess": (
        "PcfEstimate",
        "PcfFit",
        "PointPattern",
        "derive_seed",
        "estimate_pcf",
        "fit_pcf",
        "quadrat_counts",
        "simulate_hardcore",
        "simulate_poisson",
        "simulate_thomas",
        "taylor_experiment",
    ),
    "svgplot": ("emit_svg_plot",),
    "tables": (
        "AbundanceTable",
        "LocationTable",
        "parse_cross_sectional",
        "parse_location",
        "parse_longitudinal",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime
    # does not see.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
