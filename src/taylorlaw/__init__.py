"""Heterogeneity analysis of species-abundance communities.

The package quantifies how unevenly abundance is spread by fitting the
mean-variance power law V = a*M^b across communities, converting the fit
into an aggregation critical density and an aggregated/random/regular
call, and validating the whole chain against simulated spatial point
patterns with known answers. Distance-decay models and a pair correlation
estimator round out the toolkit; the ``taylorlaw`` console script exposes
everything on files.
"""

from .dispersion import (
    DeltaParams,
    DispersionFit,
    delta_displacement,
    delta_equilibrium,
    fit_dispersion,
    predict_dispersion,
)
from .errors import (
    DataError,
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    ParseError,
    TaylorLawError,
    UsageError,
)
from .extraction import (
    SCHEME_TAGS,
    MVPair,
    MVSeries,
    Scheme,
    extract_pairs,
    mean_convert,
    sample_variance,
)
from .fitting import (
    Classification,
    PacdResult,
    PowerLawFit,
    classify,
    classify_at_density,
    classify_from_params,
    fit_log_ols,
    fit_nls,
    pacd,
    pacd_from_params,
    t_tail_probability,
)
from .pointprocess import (
    EXPERIMENT_KINDS,
    PcfEstimate,
    PcfFit,
    PointPattern,
    QuadratCounts,
    derive_seed,
    estimate_pcf,
    fit_pcf,
    pairwise_torus_distances,
    quadrat_counts,
    simulate_hardcore,
    simulate_poisson,
    simulate_thomas,
    taylor_experiment,
)
from .svgplot import emit_svg_plot
from .tables import (
    AbundanceTable,
    LocationTable,
    format_cross_sectional,
    format_location,
    format_longitudinal,
    parse_cross_sectional,
    parse_location,
    parse_longitudinal,
)
from .cli import FitReport, RunConfig, build_fit_report, main, run

__version__ = "0.1.0"

__all__ = [
    "AbundanceTable",
    "Classification",
    "DataError",
    "DegenerateDesignError",
    "DeltaParams",
    "DispersionFit",
    "DomainError",
    "EXPERIMENT_KINDS",
    "FitReport",
    "InsufficientDataError",
    "LocationTable",
    "MVPair",
    "MVSeries",
    "PacdResult",
    "ParseError",
    "PcfEstimate",
    "PcfFit",
    "PointPattern",
    "PowerLawFit",
    "QuadratCounts",
    "RunConfig",
    "SCHEME_TAGS",
    "Scheme",
    "TaylorLawError",
    "UsageError",
    "build_fit_report",
    "classify",
    "classify_at_density",
    "classify_from_params",
    "delta_displacement",
    "delta_equilibrium",
    "derive_seed",
    "emit_svg_plot",
    "estimate_pcf",
    "extract_pairs",
    "fit_dispersion",
    "fit_log_ols",
    "fit_nls",
    "fit_pcf",
    "format_cross_sectional",
    "format_location",
    "format_longitudinal",
    "main",
    "mean_convert",
    "pacd",
    "pacd_from_params",
    "pairwise_torus_distances",
    "parse_cross_sectional",
    "parse_location",
    "parse_longitudinal",
    "predict_dispersion",
    "quadrat_counts",
    "run",
    "sample_variance",
    "simulate_hardcore",
    "simulate_poisson",
    "simulate_thomas",
    "t_tail_probability",
    "taylor_experiment",
]
