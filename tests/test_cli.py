"""Command-line behavior: validation, report schemas, exit codes, determinism."""

import contextlib
import csv
import gc
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXACT_TABLE_CSV, LOCATION_CSV, synthetic_longitudinal
from taylorlaw import (
    MVPair,
    MVSeries,
    UsageError,
    classify_from_params,
    pacd_from_params,
)
from taylorlaw.cli import (
    _COMMANDS,
    _FLAGS,
    RunConfig,
    _dest,
    build_fit_report,
    main,
    render_report,
    run,
)
from taylorlaw.extraction import SCHEME_TAGS

THREE_DISTANCE_CSV = "species,s1,s2,s3\ndistance,0.5,1,2\ndecayer,4,2,1\n"
ZERO_COUNT_CSV = "species,s1,s2,s3,s4,s5\ndistance,0.5,1,2,4,8\nvanisher,4,2,0,1,0\n"
SUB_UNIT_LOCATION_CSV = (
    "species,s1,s2,s3,s4,s5\n"
    "distance,0.1,0.2,0.4,0.6,0.9\n"
    "decayer,120,60,25,9,2\n"
)


@pytest.fixture
def exact_csv(tmp_path):
    path = tmp_path / "exact.csv"
    path.write_text(EXACT_TABLE_CSV)
    return str(path)


@pytest.fixture
def longi_csv(tmp_path):
    path = tmp_path / "longi.csv"
    path.write_text(
        "subject_id,time,sp1,sp2,sp3\n"
        "A,0,1,5,9\n"
        "A,1,2,8,20\n"
        "A,2,4,20,40\n"
        "B,0,3,6,9\n"
        "B,1,4,7,12\n"
    )
    return str(path)


@pytest.fixture
def rich_csv(tmp_path):
    path = tmp_path / "rich.csv"
    path.write_text(synthetic_longitudinal(n_subjects=4, n_species=8, n_times=6))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


class TestRunConfigValidation:
    def test_minimal_experiment_config(self):
        RunConfig(command="experiment", kind="poisson_sweep")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(command="transmute"),
            dict(command="fit-taylor", input_path="x.csv", scheme_tag="sideways"),
            dict(command="fit-taylor", scheme_tag="subjects_across_species"),
            dict(command="fit-taylor", input_path="x.csv"),
            dict(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="subjects_across_species",
                method="bayes",
            ),
            dict(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="subjects_across_species",
                alpha=1.0,
            ),
            dict(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="subjects_across_species",
                min_pairs=0,
            ),
            dict(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="subjects_across_species",
                seed=-1,
            ),
            dict(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="subjects_across_species",
                output_format="yaml",
            ),
            dict(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="subjects_across_species",
                plot_path="plot.png",
            ),
            dict(command="pacd", a=2.0),
            dict(command="pacd"),
            dict(
                command="pacd",
                a=1.0,
                b=1.0,
                input_path="t.csv",
                scheme_tag="subjects_across_species",
            ),
            dict(command="pacd", a=1.0, b=1.0, input_path="t.csv"),
            dict(command="fit-dispersion"),
            dict(command="simulate", kind="poisson_sweep"),
            dict(command="experiment", kind="poisson"),
            dict(command="experiment", kind="poisson_sweep", reps=0),
            dict(command="experiment", kind="poisson_sweep", q=0),
            dict(
                command="experiment",
                kind="poisson_sweep",
                plot_path="p.svg",
                subject="all",
            ),
            dict(command="pacd", a=2.0, b=1.5, plot_path="p.svg"),
        ],
    )
    def test_rejected_configurations(self, kwargs):
        with pytest.raises(UsageError):
            RunConfig(**kwargs)

    @staticmethod
    def _required_fields(command) -> dict:
        """A config for ``command`` that sets every flag it requires."""
        return {
            _dest(flag): _FLAGS[flag].get("choices", ("x.csv",))[0]
            for flag in command.required
        } | {"kind": command.kinds[0] if command.kinds else None}

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_each_required_flag_is_enforced(self, name):
        command = _COMMANDS[name]
        fields = self._required_fields(command)
        for flag in command.required:
            for missing in (None, ""):
                kwargs = fields | {_dest(flag): missing}
                with pytest.raises(UsageError, match=f"{name} requires {flag}$"):
                    RunConfig(command=name, **kwargs)

    @pytest.mark.parametrize("name", [n for n, c in _COMMANDS.items() if c.kinds])
    def test_kind_outside_the_command_kinds_is_rejected(self, name):
        command = _COMMANDS[name]
        others = {k for c in _COMMANDS.values() for k in c.kinds} - set(command.kinds)
        for kind in (None, "brownian", *sorted(others)):
            kwargs = self._required_fields(command) | {"kind": kind}
            with pytest.raises(UsageError, match=f"{name} --kind must be one of"):
                RunConfig(command=name, **kwargs)

    @pytest.mark.parametrize(
        "flag", [flag for flag, spec in _FLAGS.items() if "choices" in spec]
    )
    def test_value_outside_flag_choices_is_rejected(self, flag):
        kwargs = {"kind": "poisson_sweep", _dest(flag): "bogus"}
        with pytest.raises(UsageError, match=f"unknown {flag[2:]} 'bogus'"):
            RunConfig(command="experiment", **kwargs)

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_plot_only_where_the_command_takes_it(self, name):
        command = _COMMANDS[name]
        kwargs = self._required_fields(command) | {"plot_path": "p.svg"}
        if name == "pacd":
            kwargs |= {"a": 2.0, "b": 1.5}
        if "--plot" in command.flags:
            RunConfig(command=name, **kwargs)
        else:
            with pytest.raises(UsageError, match="does not produce a plot"):
                RunConfig(command=name, **kwargs)

    def test_plot_requires_single_fit(self):
        with pytest.raises(UsageError, match="single fits"):
            RunConfig(
                command="fit-taylor",
                input_path="x.csv",
                scheme_tag="per_subject_time",
                subject="all",
                plot_path="p.svg",
            )


class TestFitTaylorCommand:
    def test_exact_fixture_report(self, capsys, exact_csv):
        doc = run_json(
            capsys,
            ["fit-taylor", "--input", exact_csv, "--scheme", "subjects_across_species"],
        )
        assert doc["command"] == "fit-taylor"
        assert doc["normalize"] is False
        fit = doc["report"]["fit"]
        assert fit["a"] == 2.0
        assert fit["b"] == 1.5
        assert fit["method"] == "log_ols"
        assert (fit["n_used"], fit["n_dropped"]) == (4, 0)
        assert doc["report"]["pacd"] == {"m0": 0.25, "defined": True, "reason": ""}
        assert doc["report"]["scheme"] == {
            "tag": "subjects_across_species",
            "subject": None,
        }
        assert doc["report"]["dropped_pair_labels"] == []
        # The fit is numerically perfect, so the slope test is wildly
        # significant rather than undefined.
        cls = doc["report"]["classification"]
        assert cls["pattern"] == "aggregated"
        assert cls["p_value"] < 1e-20

    def test_nls_method_flag(self, capsys, exact_csv):
        doc = run_json(
            capsys,
            [
                "fit-taylor",
                "--input",
                exact_csv,
                "--scheme",
                "subjects_across_species",
                "--method",
                "nls",
            ],
        )
        fit = doc["report"]["fit"]
        assert fit["method"] == "nls"
        assert fit["converged"] is True
        assert fit["a"] == pytest.approx(2.0, rel=1e-9)
        assert fit["rss_log"] is None

    def test_longitudinal_sniffed_by_header(self, capsys, longi_csv):
        doc = run_json(
            capsys,
            [
                "fit-taylor",
                "--input",
                longi_csv,
                "--scheme",
                "per_subject_time",
                "--subject",
                "A",
            ],
        )
        assert doc["report"]["fit"]["n_used"] == 3

    def test_per_subject_all_collects_reports_and_errors(self, capsys, longi_csv):
        doc = run_json(
            capsys,
            [
                "fit-taylor",
                "--input",
                longi_csv,
                "--scheme",
                "per_subject_time",
                "--subject",
                "all",
            ],
        )
        reports = doc["reports"]
        assert [r["scheme"]["subject"] for r in reports] == ["A", "B"]
        assert "fit" in reports[0]
        assert reports[1]["error"].startswith("insufficient data")

    def test_all_subjects_failing_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("subject_id,time,sp1,sp2\nA,0,1,2\nB,0,3,4\n")
        rc = main(
            [
                "fit-taylor",
                "--input",
                str(path),
                "--scheme",
                "per_subject_time",
                "--subject",
                "all",
            ]
        )
        assert rc == 2
        assert "no subject could be fitted" in capsys.readouterr().err

    def test_plot_side_effect(self, capsys, exact_csv, tmp_path):
        plot = tmp_path / "fit.svg"
        run_json(
            capsys,
            [
                "fit-taylor",
                "--input",
                exact_csv,
                "--scheme",
                "subjects_across_species",
                "--plot",
                str(plot),
            ],
        )
        content = plot.read_text()
        assert content.startswith('<?xml version="1.0"')
        assert content.count('<circle class="used"') == 4

    def test_csv_output_format(self, capsys, exact_csv):
        rc = main(
            [
                "fit-taylor",
                "--input",
                exact_csv,
                "--scheme",
                "subjects_across_species",
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "field,value"
        assert "report.fit.a,2" in lines
        assert "report.fit.b,1.5" in lines
        assert "report.pacd.m0,0.25" in lines
        assert "report.dropped_pair_labels," in lines
        assert "report.scheme.subject," in lines

    def test_missing_input_file(self, capsys, tmp_path):
        rc = main(
            [
                "fit-taylor",
                "--input",
                str(tmp_path / "absent.csv"),
                "--scheme",
                "subjects_across_species",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_input(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,sp1\nrow,many\n")
        rc = main(
            ["fit-taylor", "--input", str(path), "--scheme", "subjects_across_species"]
        )
        assert rc == 2


class TestNormalization:
    def test_per_row_rescaling_cancels_exactly(self, capsys, tmp_path):
        # Power-of-two row scalings are exact in binary floating point, so
        # the normalized reports must agree to the byte. The column-wise
        # scheme is the interesting one here: row-wise extraction after
        # normalization is always degenerate (every row mean is 1/n).
        base = tmp_path / "base.csv"
        base.write_text(
            "subject_id,sp1,sp2,sp3\nr1,1,2,3\nr2,2,3,5\nr3,8,1,4\nr4,5,5,9\n"
        )
        scaled = tmp_path / "scaled.csv"
        scaled.write_text(
            "subject_id,sp1,sp2,sp3\nr1,4,8,12\nr2,16,24,40\nr3,16,2,8\nr4,40,40,72\n"
        )
        argv = ["fit-taylor", "--scheme", "species_across_subjects", "--normalize"]
        assert main(argv + ["--input", str(base)]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--input", str(scaled)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["normalize"] is True

    def test_row_scheme_after_normalization_is_degenerate(self, capsys, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("subject_id,sp1,sp2,sp3\nr1,1,2,3\nr2,2,3,5\nr3,8,1,4\n")
        rc = main(
            [
                "fit-taylor",
                "--input",
                str(path),
                "--scheme",
                "subjects_across_species",
                "--normalize",
            ]
        )
        assert rc == 2
        assert "all retained means are equal" in capsys.readouterr().err

    def test_zero_sum_row_names_the_row(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("subject_id,sp1,sp2\ngood,1,2\nempty,0,0\n")
        rc = main(
            [
                "fit-taylor",
                "--input",
                str(path),
                "--scheme",
                "subjects_across_species",
                "--normalize",
            ]
        )
        assert rc == 2
        assert "'empty'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("text", "row", "why"),
        [
            (
                "subject_id,sp1,sp2\nfirst,0,0\ngood,1,2\nlast,0,0\n",
                "first",
                "sums to zero",
            ),
            (
                "subject_id,time,sp1,sp2\na,1,1,2\nb,1,0,0\na,2,0,0\n",
                "a@2",
                "sums to zero",
            ),
            (
                "subject_id,sp1,sp2,sp3\ngood,1,2,3\na,1e308,1e308,1\nlast,0,0,0\n",
                "a",
                "sum overflows",
            ),
        ],
    )
    def test_zero_sum_error_names_the_first_such_row(
        self, capsys, tmp_path, text, row, why
    ):
        """Rows of a timed table are regrouped by subject before the check;
        a row whose sum overflows is named, without a numpy warning."""
        path = tmp_path / "zero.csv"
        path.write_text(text)
        argv = ["fit-taylor", "--input", str(path), "--normalize"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--scheme", "subjects_across_species"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot normalize: row {row!r} {why}\n"


class TestPacdCommand:
    def test_direct_parameters(self, capsys):
        doc = run_json(capsys, ["pacd", "--a", "2", "--b", "1.5"])
        assert doc == {
            "command": "pacd",
            "a": 2.0,
            "b": 1.5,
            "pacd": {"m0": 0.25, "defined": True, "reason": ""},
        }

    @pytest.mark.parametrize(
        "flag",
        [
            ["--input", "t.csv"],
            ["--scheme", "subjects_across_species"],
            ["--subject", "x"],
            ["--method", "nls"],
            ["--alpha", "0.1"],
            ["--min-pairs", "4"],
            ["--normalize"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_direct_parameters_exclude_a_table_fit_flag(self, capsys, flag):
        assert main(["pacd", "--a", "2", "--b", "1.5", *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: pacd --a/--b excludes {flag[0]}\n"

    def test_direct_parameters_name_every_table_fit_flag_given(self, capsys):
        argv = ["pacd", "--a", "2", "--b", "1.5", "--normalize", "--method", "nls"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: pacd --a/--b excludes --method, --normalize\n"

    @pytest.mark.parametrize(
        "flag",
        [["--method", "log_ols"], ["--alpha", "0.05"], ["--min-pairs", "3"]],
        ids=lambda flag: flag[0],
    )
    def test_direct_parameters_take_a_table_fit_flag_at_its_default(
        self, capsys, flag
    ):
        direct = ["pacd", "--a", "2", "--b", "1.5"]
        assert run_json(capsys, [*direct, *flag]) == run_json(capsys, direct)

    def test_undefined_at_unit_slope(self, capsys):
        doc = run_json(capsys, ["pacd", "--a", "2", "--b", "1"])
        assert doc["pacd"]["defined"] is False
        assert doc["pacd"]["m0"] is None

    def test_underflowing_crossover_is_undefined(self, capsys):
        doc = run_json(capsys, ["pacd", "--a", "1e308", "--b", "1.0000001"])
        assert doc["pacd"] == {
            "m0": None,
            "defined": False,
            "reason": "crossover density underflows",
        }

    @pytest.mark.parametrize(
        "a,b", [("inf", "2"), ("2", "nan"), ("2", "inf"), ("nan", "2")]
    )
    def test_non_finite_parameters_are_a_data_error(self, capsys, a, b):
        assert main(["pacd", "--a", a, "--b", b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coefficient a")

    def test_fit_pipeline_mode(self, capsys, exact_csv):
        doc = run_json(
            capsys,
            ["pacd", "--input", exact_csv, "--scheme", "subjects_across_species"],
        )
        assert doc["command"] == "pacd"
        assert doc["report"]["pacd"]["m0"] == 0.25


class TestClassifyCommand:
    def test_runs_full_pipeline(self, capsys, rich_csv):
        doc = run_json(
            capsys,
            ["classify", "--input", rich_csv, "--scheme", "subjects_across_species"],
        )
        cls = doc["report"]["classification"]
        assert cls["pattern"] in ("aggregated", "random", "regular")
        assert 0.0 < cls["p_value"] <= 1.0
        assert cls["dof"] == doc["report"]["fit"]["n_used"] - 2

    def test_report_is_internally_consistent(self, capsys, rich_csv):
        # Reported critical density and p-value must be reproducible from
        # the reported fit parameters alone.
        doc = run_json(
            capsys,
            ["classify", "--input", rich_csv, "--scheme", "subjects_across_species"],
        )
        fit = doc["report"]["fit"]
        pacd = doc["report"]["pacd"]
        cls = doc["report"]["classification"]
        again = pacd_from_params(float(fit["a"]), float(fit["b"]))
        assert again.defined == pacd["defined"]
        assert again.m0 == pytest.approx(pacd["m0"], rel=1e-9)
        recls = classify_from_params(
            float(fit["b"]), float(fit["se_b"]), int(fit["n_used"])
        )
        assert recls.pattern == cls["pattern"]
        assert recls.p_value == pytest.approx(cls["p_value"], rel=1e-6)

    def test_alpha_flag_feeds_the_test(self, capsys, rich_csv):
        doc = run_json(
            capsys,
            [
                "classify",
                "--input",
                rich_csv,
                "--scheme",
                "subjects_across_species",
                "--alpha",
                "0.2",
            ],
        )
        assert doc["report"]["classification"]["alpha"] == 0.2


class TestFitReportHelper:
    def test_exactly_collinear_data_reports_classification_error(self):
        # V = M^2 on powers of two is collinear to the last bit in log
        # space, so se_b is exactly zero and the slope test is undefined.
        series = MVSeries(
            None,
            (MVPair("p1", 1.0, 1.0), MVPair("p2", 2.0, 4.0), MVPair("p3", 4.0, 16.0)),
        )
        report = build_fit_report(series)
        assert report.fit.se_b == 0.0
        assert report.classification is None
        assert "zero slope" in report.classification_error

    def test_identity_data_classifies_random(self):
        series = MVSeries(
            None,
            (MVPair("p1", 1.0, 1.0), MVPair("p2", 2.0, 2.0), MVPair("p3", 4.0, 4.0)),
        )
        report = build_fit_report(series)
        assert report.fit.b == 1.0
        assert report.fit.se_b == 0.0
        assert report.classification.pattern == "random"
        assert report.classification.p_value == 1.0

    def test_dropped_labels_depend_on_method(self):
        series = MVSeries(
            None,
            (
                MVPair("p1", 1.0, 2.0),
                MVPair("p2", 4.0, 16.0),
                MVPair("p3", 16.0, 128.0),
                MVPair("zero_mean", 0.0, 5.0),
                MVPair("zero_var", 9.0, 0.0),
            ),
        )
        ols = build_fit_report(series, method="log_ols")
        assert ols.dropped_pair_labels == ("zero_mean", "zero_var")
        nls = build_fit_report(series, method="nls")
        assert nls.dropped_pair_labels == ("zero_mean",)


class TestDispersionCommand:
    def test_mixed_success_and_failure(self, capsys, tmp_path):
        path = tmp_path / "loc.csv"
        path.write_text(LOCATION_CSV)
        doc = run_json(capsys, ["fit-dispersion", "--input", str(path)])
        assert doc["distances"] == [0.5, 1.0, 2.0, 4.0, 8.0]
        assert doc["locations"] == ["near", "mid", "far", "edge", "outer"]
        assert "c" in doc["fits"]["decayer"]
        assert doc["fits"]["decayer"]["n_used"] == 5
        assert "ln undefined" in doc["fits"]["vanisher"]["error"]

    def test_all_species_failing_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "loc.csv"
        path.write_text(
            "species,a,b,c,d\ndistance,1,2,3,4\nghost,0,1,1,1\nwraith,1,0,1,1\n"
        )
        rc = main(["fit-dispersion", "--input", str(path)])
        assert rc == 2
        assert "no species could be fitted" in capsys.readouterr().err

    def test_c_interval_flags(self, capsys, tmp_path):
        path = tmp_path / "loc.csv"
        path.write_text(LOCATION_CSV)
        doc = run_json(
            capsys,
            [
                "fit-dispersion",
                "--input",
                str(path),
                "--c-low",
                "0.5",
                "--c-high",
                "1.5",
            ],
        )
        assert 0.5 <= doc["fits"]["decayer"]["c"] <= 1.5


class TestSimulateAndPcf:
    def test_simulate_reports_every_point(self, capsys):
        doc = run_json(capsys, ["simulate", "--kind", "poisson", "--seed", "4"])
        assert doc["command"] == "simulate"
        assert doc["n"] == len(doc["points"])
        assert doc["generator"] == "poisson(intensity=100)"
        for x, y in doc["points"]:
            assert 0.0 <= x < 1.0
            assert 0.0 <= y < 1.0

    def test_pcf_reports_both_fit_forms(self, capsys):
        doc = run_json(capsys, ["pcf", "--kind", "thomas", "--seed", "1"])
        assert set(doc["fits"]) == {"paper_form", "xi_form"}
        assert len(doc["estimate"]["radii"]) == len(doc["estimate"]["g"])
        assert doc["n_points"] > 0

    def test_pcf_fit_errors_are_objects_not_failures(self, capsys):
        # A sparse pattern can starve one or both regression forms; the
        # command still succeeds and explains per form.
        doc = run_json(
            capsys,
            ["pcf", "--kind", "poisson", "--intensity", "5", "--seed", "1"],
        )
        for form in ("paper_form", "xi_form"):
            entry = doc["fits"][form]
            assert ("error" in entry) or ("r0" in entry)

    @pytest.mark.parametrize(
        "flags", [["--seed", "16"], ["--seed", "5", "--bin-width", "0.01"]]
    )
    def test_flat_profile_scale_out_of_range_is_a_fit_error(self, capsys, flags):
        # A nearly flat g makes s tiny, so r0 = exp(intercept / s) overflows
        # (seed 16) or underflows to 0 (seed 5).
        doc = run_json(capsys, ["pcf", "--kind", "poisson", *flags])
        assert "outside the float range" in doc["fits"]["paper_form"]["error"]


class TestExperimentCommand:
    ARGS = [
        "experiment",
        "--kind",
        "poisson_sweep",
        "--levels",
        "25,50,100",
        "--reps",
        "2",
        "--q",
        "4",
        "--seed",
        "7",
    ]

    def test_structure(self, capsys):
        doc = run_json(capsys, self.ARGS)
        assert doc["kind"] == "poisson_sweep"
        assert doc["levels"] == [25.0, 50.0, 100.0]
        assert [p["label"] for p in doc["pairs"]] == ["25", "50", "100"]
        assert doc["report"]["scheme"] is None
        assert doc["report"]["fit"]["n_used"] >= 3

    def test_byte_determinism(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_default_levels_spare_the_flag(self, capsys):
        doc = run_json(
            capsys,
            ["experiment", "--kind", "hardcore_sweep", "--reps", "1", "--q", "4"],
        )
        assert doc["levels"] == [100.0, 200.0, 400.0, 800.0]

    def test_empty_levels_are_not_the_default_sweep(self, capsys):
        # Only levels=None takes the default sweep; an empty tuple, which
        # argparse cannot give, is a usage error.
        config = RunConfig(command="experiment", kind="poisson_sweep", levels=())
        assert run(config) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: levels must be non-empty\n"

    def test_decreasing_levels_rejected(self, capsys):
        rc = main(
            [
                "experiment",
                "--kind",
                "poisson_sweep",
                "--levels",
                "100,50",
                "--reps",
                "1",
                "--q",
                "4",
            ]
        )
        assert rc == 1
        assert "strictly increasing" in capsys.readouterr().err


def run_hostile(capsys, argv):
    """Run ``main`` with every warning an error; returns (status, out, err)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestHostileInput:
    def test_overflowing_variance_names_the_pair(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("subject_id,sp1,sp2\nx,0,1e200\ny,1,2\nz,3,4\n")
        rc, out, err = run_hostile(
            capsys,
            ["fit-taylor", "--input", str(path), "--scheme", "subjects_across_species"],
        )
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: pair 'x': ")

    def test_normalized_row_means_give_a_degenerate_design(self, capsys, tmp_path):
        # Every normalized row has mean 1/4 up to rounding, so ln a = -5.6e14.
        path = tmp_path / "rows.csv"
        path.write_text(
            "subject_id,s0,s1,s2,s3\nr0,3,12,40,12\nr1,7,3,12,7\nr2,2,7,0,12\n"
            "r3,12,40,12,2\n"
        )
        argv = ["pacd", "--scheme", "subjects_across_species", "--normalize"]
        rc, out, err = run_hostile(capsys, [*argv, "--input", str(path)])
        assert (rc, out) == (2, "")
        assert err == (
            "error: degenerate design: coefficient a = exp(-5.58553e+14) "
            "is outside the float range\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-taylor", "--scheme", "subjects_across_species"],
            ["fit-dispersion"],
        ],
    )
    def test_non_utf8_input_gives_the_byte_offset(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.csv"
        path.write_bytes("subject_id,caf\u00e9\nx,1\n".encode("latin-1"))
        rc, out, err = run_hostile(capsys, [*argv, "--input", str(path)])
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text: byte 0xe9 at offset 14\n"

    def test_a_byte_order_mark_counts_in_the_byte_offset(self, capsys, tmp_path):
        # The mark is dropped after the decode, so the offset is the file's.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfsubject_id,sp\xff\nx,1\n")
        argv = ["fit-taylor", "--scheme", "subjects_across_species", "--input", str(path)]
        rc, out, err = run_hostile(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text: byte 0xff at offset 16\n"

    # One cell past the csv module's default field size limit, in a data row
    # of each layout and in a header.
    @pytest.mark.parametrize(
        "lines, line_no",
        [
            (["subject_id,sp1,sp2", "a,1,{big}"], 2),
            (["subject_id,time,sp1", "a,0,{big}"], 2),
            (["species,s1,s2,s3,s4", "sp,{big},1,2,3"], 2),
            (["subject_id,sp{big}", "a,1"], 1),
            (["# note", "subject_id,time,sp{big}", "a,0,1"], 2),
        ],
    )
    def test_oversized_field_is_a_parse_error(self, capsys, tmp_path, lines, line_no):
        limit = csv.field_size_limit()
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines).format(big="9" * (limit + 1)) + "\n")
        if lines[0].startswith("species"):
            argv = ["fit-dispersion"]
        else:
            argv = ["fit-taylor", "--scheme", "subjects_across_species"]
        rc, out, err = run_hostile(capsys, [*argv, "--input", str(path)])
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: line {line_no}: malformed CSV: ")
        assert csv.field_size_limit() == limit

    # Each size is rejected before anything is drawn or allocated.
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--kind", "poisson", "--intensity", "inf"],
            ["simulate", "--kind", "poisson", "--intensity", "1e20"],
            ["simulate", "--kind", "thomas", "--mean-offspring", "inf"],
            ["simulate", "--kind", "hardcore", "--proposal-intensity", "1e19"],
            ["experiment", "--kind", "poisson_sweep", "--levels", "1e20"],
            ["experiment", "--kind", "poisson_sweep", "--reps", "100000", "--q", "100"],
            ["pcf", "--kind", "poisson", "--bin-width", "1e-9"],
        ],
    )
    def test_oversized_request_is_a_usage_error(self, capsys, argv):
        rc, out, err = run_hostile(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "exceed the limit of 1e+07" in err

    @pytest.mark.parametrize("sigma", ["inf", "1e308"])
    def test_unbounded_sigma_is_a_domain_error(self, capsys, sigma):
        # sigma = 1e308 used to overflow some normal displacements to inf.
        rc, out, err = run_hostile(
            capsys, ["simulate", "--kind", "thomas", "--sigma", sigma, "--seed", "1"]
        )
        assert (rc, out) == (2, "")
        assert err == "error: cluster parameters must be positive, sigma at most 1e300\n"

    # A bad interval is a usage error whatever the table holds: here also
    # one with too few distances for any fit, and one whose only species
    # has a zero count.
    @pytest.mark.parametrize(
        "table,args",
        [
            pytest.param(
                LOCATION_CSV,
                ["--c-high", "inf"],
                id="inf-1-c interval must have finite ends and positive width",
            ),
            pytest.param(THREE_DISTANCE_CSV, ["--c-low", "3", "--c-high", "1"], id="three-empty"),
            pytest.param(THREE_DISTANCE_CSV, ["--c-high", "nan"], id="three-nan"),
            pytest.param(ZERO_COUNT_CSV, ["--c-low", "3", "--c-high", "1"], id="zero-empty"),
            pytest.param(ZERO_COUNT_CSV, ["--c-high", "nan"], id="zero-nan"),
        ],
    )
    def test_unbounded_c_interval(self, capsys, tmp_path, table, args):
        path = tmp_path / "loc.csv"
        path.write_text(table)
        rc, out, err = run_hostile(capsys, ["fit-dispersion", "--input", str(path), *args])
        message = "c interval must have finite ends and positive width"
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("c_high", ["342", "1e308"])
    def test_c_high_past_overflow_ends_the_search(self, capsys, tmp_path, c_high):
        # 8**c overflows above c = 341.33, far above decayer's minimum.
        path = tmp_path / "loc.csv"
        path.write_text(LOCATION_CSV)
        fits = {}
        for high in ("341", c_high):
            rc, out, err = run_hostile(
                capsys, ["fit-dispersion", "--input", str(path), "--c-high", high]
            )
            assert (rc, err) == (0, "")
            fits[high] = json.loads(out)["fits"]
        assert fits[c_high]["decayer"]["c"] == pytest.approx(
            fits["341"]["decayer"]["c"], abs=1e-6
        )
        assert "error" in fits[c_high]["vanisher"]

    def test_c_high_past_underflow_ends_the_search(self, capsys, tmp_path):
        # Every distance is below 1, so x**c underflows to a zero column
        # where 0.9**c leaves the normal range, at c = 6723.5.
        path = tmp_path / "loc.csv"
        path.write_text(SUB_UNIT_LOCATION_CSV)
        c = {}
        for high in ("5", "1e308"):
            rc, out, err = run_hostile(
                capsys, ["fit-dispersion", "--input", str(path), "--c-high", high]
            )
            assert (rc, err) == (0, "")
            c[high] = json.loads(out)["fits"]["decayer"]["c"]
        assert c["1e308"] == pytest.approx(c["5"], abs=1e-6)


# One value of each hostile class for the numeric flags: negative, zero,
# not a number, infinite, above the size limit, small valid ones kept
# small enough that any mix of them runs fast, and one just above 1 (a
# pacd exponent that sends the crossover density out of the float range).
_NUMBERS = ["-1", "-0.5", "0", "nan", "inf", "-inf", "2e7", "1e20", "1e308"]
_NUMBERS += ["0.01", "0.3", "5", "60", "1.0000001"]
_INTEGERS = ["-1", "0", "nan", "inf", "20000000", "1", "3", "12"]
_GENERATOR_FLAGS = (
    "--intensity",
    "--parent-intensity",
    "--mean-offspring",
    "--sigma",
    "--proposal-intensity",
    "--hardcore-radius",
)
_FLOAT_FLAGS = {
    "simulate": _GENERATOR_FLAGS,
    "pcf": _GENERATOR_FLAGS + ("--bin-width", "--r-max"),
    "experiment": ("--parent-intensity", "--sigma", "--hardcore-radius", "--alpha"),
    "fit-dispersion": ("--c-low", "--c-high"),
    "pacd": ("--a", "--b"),
}
_INT_FLAGS = {
    "simulate": ("--seed",),
    "pcf": ("--seed",),
    "experiment": ("--reps", "--q", "--seed"),
}
_KINDS = {
    "simulate": ("poisson", "thomas", "hardcore"),
    "pcf": ("poisson", "thomas", "hardcore"),
    "experiment": ("poisson_sweep", "thomas_cluster_sweep", "hardcore_sweep"),
}


@st.composite
def _hostile_argv(draw, command):
    argv = [command]
    if command in _KINDS:
        argv += ["--kind", draw(st.sampled_from(_KINDS[command]))]
    flags = [(f, _NUMBERS) for f in _FLOAT_FLAGS[command]]
    flags += [(f, _INTEGERS) for f in _INT_FLAGS.get(command, ())]
    for flag, pool in flags:
        value = draw(st.one_of(st.none(), st.sampled_from(pool)))
        if value is not None:
            argv += [f"{flag}={value}"]
    if command == "experiment" and draw(st.booleans()):
        levels = draw(st.lists(st.sampled_from(_NUMBERS), min_size=1, max_size=3))
        argv += [f"--levels={','.join(levels)}"]
    return argv


def assert_clean_exit(argv):
    """Run ``main`` in process with every warning an error: exit 0, 1 or 2,
    no traceback, and a failure prints one ``error:`` line and no report.
    Returns the exit status and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("error")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    text = err.getvalue()
    assert rc in (0, 1, 2), (argv, text)
    assert "Traceback" not in text, argv
    if rc == 0:
        assert text == "", argv
    else:
        error_lines = [line for line in text.splitlines() if "error:" in line]
        assert len(error_lines) == 1, (argv, text)
        assert out.getvalue() == "", argv
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def location_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "loc.csv"
    path.write_text(LOCATION_CSV)
    return str(path)


class TestHostileFlagFuzz:
    """Any mix of hostile numeric flags exits 0, 1 or 2 without a traceback,
    and a failure prints exactly one ``error:`` line."""

    @pytest.mark.parametrize(
        "command", ["simulate", "pcf", "experiment", "fit-dispersion", "pacd"]
    )
    def test_numeric_flags(self, command, location_csv):
        @settings(max_examples=60, deadline=None)
        @given(argv=_hostile_argv(command))
        def run(argv):
            if command == "fit-dispersion":
                argv = [*argv, "--input", location_csv]
            rc, out = assert_clean_exit(argv)
            if command == "pacd" and rc == 0:
                crossover = json.loads(out)["pacd"]
                m0 = crossover["m0"]
                positive = m0 is not None and 0 < m0 < math.inf
                assert crossover["defined"] is positive, (argv, out)

        run()


# Generated tables start from well-formed counts, so that most reach the
# fits, and then take a few hostile edits each.
_LEADS = {
    "cross-sectional": ["subject_id"],
    "longitudinal": ["subject_id", "time"],
    "location": ["species"],
}
_COUNTS = ["0", "1", "2", "3", "7", "12", "40"]
_BAD_CELLS = ["1e200", "-1", "NA", "nan", "inf", "", "x"]
_SUBJECTS = ["a", "b"]
_TIMES = ["0", "1", "2", "3"]
_BAD_TIMES = ["-1", "2021-01-01", "x", ""]
_DISTANCES = ["0.5", "1", "2", "4", "8", "16"]
_BAD_DISTANCES = ["0", "-1", "inf", "x", "1"]
_BAD_NAMES = ["id", "time", "s0", "distance", ""]


def _one_in(n):
    return st.sampled_from(range(n)).map(lambda k: k == 0)


@st.composite
def _hostile_table(draw):
    layout = draw(st.sampled_from(list(_LEADS)))
    n_cols = draw(st.sampled_from(range(1, 7)))
    rows = [_LEADS[layout] + [f"s{j}" for j in range(n_cols)]]
    if layout == "location" and draw(st.booleans()):
        rows.append(["distance", *_DISTANCES[:n_cols]])
    for i in range(draw(st.sampled_from(range(8)))):
        if layout == "longitudinal":
            row = [draw(st.sampled_from(_SUBJECTS)), _TIMES[i % len(_TIMES)]]
        else:
            row = [f"r{i}"]
        rows.append(row + [draw(st.sampled_from(_COUNTS)) for _ in range(n_cols)])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        edit = draw(st.sampled_from(["cell", "time", "distance", "id", "ragged", "header"]))
        r = {"header": 0, "distance": min(1, len(rows) - 1)}.get(edit)
        if r is None:
            r = draw(st.sampled_from(range(len(rows))))
        c = draw(st.sampled_from(range(len(rows[r]))))
        if edit in ("cell", "header", "distance"):
            if edit == "distance" and rows[r][0] != "distance":
                continue
            pool = {"cell": _BAD_CELLS, "header": _BAD_NAMES, "distance": _BAD_DISTANCES}
            rows[r][c] = draw(st.sampled_from(pool[edit]))
        elif edit == "time" and layout == "longitudinal" and r > 0:
            rows[r][1] = draw(st.sampled_from(_BAD_TIMES))
        elif edit == "id":
            rows[r][0] = rows[-1][0]
        elif edit == "ragged":
            short = len(rows[r]) > 1 and draw(st.booleans())
            rows[r] = rows[r][:-1] if short else [*rows[r], "1"]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = "".join(",".join(row) + newline for row in rows).encode()
    if draw(_one_in(10)):
        at = draw(st.sampled_from(range(len(data) + 1)))
        data = data[:at] + b"\xff" + data[at:]
    return layout, data


@st.composite
def _table_argv(draw, layout):
    # Mostly the command that reads this layout, sometimes another.
    dispersion = (layout == "location") != draw(_one_in(10))
    if dispersion:
        return ["fit-dispersion", *draw(st.sampled_from([[], ["--format", "csv"]]))]
    argv = [draw(st.sampled_from(["fit-taylor", "classify", "pacd"]))]
    scheme = draw(st.sampled_from(SCHEME_TAGS))
    argv += ["--scheme", scheme]
    if scheme in ("per_subject_time", "per_subject_species"):
        argv += ["--subject", draw(st.sampled_from([*_SUBJECTS, "all"]))]
    argv += draw(st.sampled_from([[], ["--method", "nls"]]))
    argv += draw(st.sampled_from([[], ["--normalize"]]))
    argv += draw(st.sampled_from([[], ["--format", "csv"]]))
    return argv


class TestHostileTableFuzz:
    """Generated table bytes in every layout, through every table command,
    exit 0, 1 or 2 without a traceback, with one ``error:`` line on failure."""

    def test_table_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "table.csv"

        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def run(data):
            layout, table = data.draw(_hostile_table())
            path.write_bytes(table)
            argv = data.draw(_table_argv(layout))
            assert_clean_exit([*argv, "--input", str(path)])

        run()


@pytest.mark.parametrize(
    "rows,status,converged",
    [
        # Residuals of about 1e300 overflow when squared, at every b.
        (["1e-300,2e-300,1e-300", "1,3,2", "1e150,3e150,1e150"], 2, None),
        (["3,3,3", "7,7,7", "12,12,12"], 2, None),  # all variances 0: a = 0
        (["1,2,3", "3,2,1", "2,4,0"], 0, False),  # equal means: a flat profile
        (["1e-310,0,0", "1,3,2", "4,10,7"], 0, True),  # a subnormal mean
    ],
    ids=["overflow", "zero-variances", "equal-means", "subnormal-mean"],
)
def test_nls_edge_tables(tmp_path, rows, status, converged):
    path = tmp_path / "edge.csv"
    lines = [f"{name},{row}\n" for name, row in zip("abc", rows)]
    path.write_text("subject_id,s1,s2,s3\n" + "".join(lines))
    argv = ["fit-taylor", "--input", str(path), "--method", "nls"]
    rc, out = assert_clean_exit([*argv, "--scheme", "subjects_across_species"])
    assert rc == status
    if rc == 0:
        report = json.loads(out)["report"]
        assert report["fit"]["converged"] is converged
        if not converged:
            assert report["pacd"]["defined"] is False


class TestArgumentParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_choice_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "brownian"])
        assert exc.value.code == 1

    def test_malformed_levels_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--kind", "poisson_sweep", "--levels", "a,b"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["pacd", "--a", "2"], "--b", "-2e-1"),
            (["pacd", "--a", "2"], "--b", "-1E+3"),
            (["pacd", "--a", "2"], "--b", "-inf"),
            (["pacd", "--a", "2"], "--b", "-nan"),
            (["experiment", "--kind", "poisson_sweep"], "--levels", "-1e3,2"),
        ],
    )
    def test_negative_value_reads_as_in_the_equals_form(
        self, capsys, argv, flag, value
    ):
        def outcome(args):
            try:
                rc = main(args)
            except SystemExit as exc:
                rc = exc.code
            return (rc, *capsys.readouterr())

        spaced = outcome([*argv, flag, value])
        assert spaced == outcome([*argv, f"{flag}={value}"])
        assert "expected one argument" not in spaced[2]


class TestRenderReport:
    def test_json_is_parseable_and_ordered(self):
        doc = {"z_first": 1, "a_second": {"x": 1.25, "y": None}, "flag": True}
        text = render_report(doc, "json")
        assert json.loads(text) == {
            "z_first": 1,
            "a_second": {"x": 1.25, "y": None},
            "flag": True,
        }
        # insertion order, not alphabetical
        assert text.index("z_first") < text.index("a_second") < text.index("flag")

    def test_non_finite_floats_become_null(self):
        text = render_report({"bad": float("nan"), "worse": math.inf}, "json")
        assert json.loads(text) == {"bad": None, "worse": None}

    def test_twelve_digit_floats(self):
        text = render_report({"x": 1 / 3}, "json")
        assert '"x": 0.333333333333' in text

    def test_csv_flattening_paths(self):
        doc = {"top": {"inner": [1.5, 2.5]}, "empty": []}
        text = render_report(doc, "csv")
        lines = text.splitlines()
        assert lines[0] == "field,value"
        assert "top.inner[0],1.5" in lines
        assert "top.inner[1],2.5" in lines
        assert "empty," in lines


def _cyclic_garbage(argv):
    """Exit status of ``main(argv)`` run with the collector off, and the
    number of objects in the reference cycles the run left."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv), gc.collect()
    finally:
        if enabled:
            gc.enable()


def _subjects_nls(root, n):
    path = root / f"subjects{n}.csv"
    path.write_text(synthetic_longitudinal(n, 8, 6))
    scheme = ["--scheme", "per_subject_species", "--subject", "all"]
    return ["fit-taylor", "--input", str(path), *scheme, "--method", "nls"]


def _failing_subjects(root, n):
    """Every other subject has only zero counts, so its fit fails."""
    rows = ["subject_id,time,sp1,sp2,sp3,sp4"]
    for s in range(n):
        rows += [f"a{s},1,3,9,27,81", f"a{s},2,5,11,30,70", f"a{s},3,2,8,25,90"]
        rows += [f"z{s},1,0,0,0,0", f"z{s},2,0,0,0,0"]
    path = root / f"failing{n}.csv"
    path.write_text("\n".join(rows) + "\n")
    scheme = ["--scheme", "per_subject_species", "--subject", "all"]
    return ["fit-taylor", "--input", str(path), *scheme]


def _failing_species(root, n):
    """One of every three species has a zero count, so its fit fails, and
    one has a flat profile."""
    rows = ["species,s1,s2,s3,s4,s5", "distance,0.5,1,2,4,8"]
    for s in range(n):
        rows += [f"d{s},120,60,25,9,2", f"v{s},4,2,0,1,0", f"f{s},5,5,5,5,5"]
    path = root / f"species{n}.csv"
    path.write_text("\n".join(rows) + "\n")
    return ["fit-dispersion", "--input", str(path)]


def _hardcore_sweep(root, reps):
    return ["experiment", "--kind", "hardcore_sweep", "--reps", str(reps)]


class TestCyclicCollector:
    """``cli.main`` leaves the cyclic garbage collector as it found it; the
    process entry (``taylorlaw.__main__``) runs it with the collector off,
    which is safe because the cycles a command leaves do not grow with its
    input."""

    @pytest.mark.parametrize(
        "argv,status",
        [
            (["pacd", "--a", "2", "--b", "1.5"], 0),
            (["simulate", "--kind", "brownian"], 1),
            (["pacd", "--a", "nan", "--b", "2"], 2),
        ],
        ids=["success", "usage-error", "data-error"],
    )
    def test_main_leaves_the_collector_as_it_was(self, capsys, argv, status):
        before = gc.isenabled(), gc.get_freeze_count()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == status
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize(
        "command,small,large",
        [
            (_subjects_nls, 40, 400),
            (_failing_subjects, 5, 50),
            (_failing_species, 5, 50),
            (_hardcore_sweep, 2, 8),
        ],
        ids=["subjects-nls", "failing-subjects", "failing-species", "hardcore-sweep"],
    )
    def test_cyclic_garbage_does_not_grow_with_the_input(
        self, tmp_path, command, small, large
    ):
        small_argv, large_argv = command(tmp_path, small), command(tmp_path, large)
        # A first run also leaves the cycles of the modules it imports.
        _cyclic_garbage(small_argv)
        (small_rc, small_cycles), (large_rc, large_cycles) = map(
            _cyclic_garbage, (small_argv, large_argv)
        )
        assert (small_rc, large_rc) == (0, 0)
        assert small_cycles == large_cycles
