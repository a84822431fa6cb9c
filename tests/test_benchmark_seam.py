"""The benchmark's traced run still finds every layer entry point, and the
CLI calls the names it wraps.

``benchmark/spans.py`` wraps functions by (module, attribute) name, so a
renamed or removed binding would break ``benchmark/run.py --trace 1``
without failing any other test. The CLI loads its layers on first use; a
runner that imported a layer function into its own scope would skip the
wrapper set on ``taylorlaw.cli``, and the traced run would count nothing
for that layer. ``spans.py`` imports only the standard library and is
loaded here from its file.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from conftest import EXACT_TABLE_CSV, LOCATION_CSV, synthetic_longitudinal
from taylorlaw import PowerLawFit, cli

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses resolves the module by name
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return sorted(spans.ENTRY_POINTS)


@pytest.mark.parametrize("module_name, attr", _entry_points())
def test_entry_point_is_a_callable_attribute(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


_EXACT = ["--input", "{root}/exact.csv", "--scheme", "subjects_across_species"]
_CLASSIFY = ["classify", *_EXACT]
_SIMULATE = ["simulate", "--kind"]

# A command that reaches each name the traced run wraps on taylorlaw.cli.
_REACHED_BY = {
    "parse_cross_sectional": _CLASSIFY,
    "parse_longitudinal": ["fit-taylor", "--input", "{root}/longi.csv"]
    + ["--scheme", "per_subject_time", "--subject", "subj0"],
    "parse_location": ["fit-dispersion", "--input", "{root}/loc.csv"],
    "extract_pairs": _CLASSIFY,
    "fit_log_ols": _CLASSIFY,
    "fit_nls": ["fit-taylor", *_EXACT, "--method", "nls"],
    "classify": _CLASSIFY,
    "simulate_poisson": [*_SIMULATE, "poisson"],
    "simulate_thomas": [*_SIMULATE, "thomas"],
    "simulate_hardcore": [*_SIMULATE, "hardcore"],
    "taylor_experiment": ["experiment", "--kind", "poisson_sweep", "--reps", "2"]
    + ["--levels", "50,100,200"],
    "estimate_pcf": ["pcf", "--kind", "poisson"],
    "fit_pcf": ["pcf", "--kind", "poisson"],
    "build_fit_report": _CLASSIFY,
    "render_report": _CLASSIFY,
    "emit_svg_plot": [*_CLASSIFY, "--plot", "{root}/fit.svg"],
}
# Wrapped names that no command calls, with the reason.
_NOT_CALLED = {
    "fit_dispersion": "fit-dispersion fits the whole table with fit_dispersion_table",
}


def test_every_cli_entry_point_has_a_command():
    wrapped = {attr for module, attr in _entry_points() if module == "taylorlaw.cli"}
    assert wrapped == set(_REACHED_BY) | set(_NOT_CALLED)


@pytest.mark.parametrize("attr", sorted(_REACHED_BY))
def test_cli_calls_the_name_the_trace_wraps(attr, tmp_path, monkeypatch):
    (tmp_path / "exact.csv").write_text(EXACT_TABLE_CSV)
    (tmp_path / "longi.csv").write_text(synthetic_longitudinal(2, 5, 4))
    (tmp_path / "loc.csv").write_text(LOCATION_CSV)
    original = getattr(cli, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, attr, counting)
    argv = [arg.format(root=tmp_path) for arg in _REACHED_BY[attr]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls, f"{' '.join(argv)} did not call taylorlaw.cli.{attr}"


@pytest.mark.parametrize("method", ["log_ols", "nls"])
def test_subject_all_fits_each_subject_through_the_wrapped_names(
    method, tmp_path, monkeypatch
):
    # The traced run counts one fit and one report per subject: --subject
    # all fits a block of subjects at its first call, but still calls the
    # names it wraps once per subject, and each call returns that
    # subject's fit.
    subjects = 7
    (tmp_path / "longi.csv").write_text(synthetic_longitudinal(subjects, 5, 4))
    name = f"fit_{method}"
    calls = {name: [], "build_fit_report": []}
    for attr, seen in calls.items():
        original = getattr(cli, attr)

        def counting(*args, _original=original, _seen=seen, **kwargs):
            result = _original(*args, **kwargs)
            _seen.append(result)
            return result

        monkeypatch.setattr(cli, attr, counting)
    argv = ["fit-taylor", "--input", str(tmp_path / "longi.csv")]
    argv += ["--scheme", "per_subject_species", "--subject", "all", "--method", method]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(calls[name]) == len(calls["build_fit_report"]) == subjects
    assert all(isinstance(fit, PowerLawFit) for fit in calls[name])
    assert [report.fit for report in calls["build_fit_report"]] == calls[name]
