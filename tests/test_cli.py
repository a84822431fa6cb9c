"""Command-line behavior: validation, report schemas, exit codes, determinism."""

import json
import math
import warnings

import pytest

from conftest import EXACT_TABLE_CSV, synthetic_longitudinal
from taylorlaw import (
    MVPair,
    MVSeries,
    UsageError,
    classify_from_params,
    pacd_from_params,
)
from taylorlaw.cli import RunConfig, build_fit_report, main, render_report

LOCATION_CSV = (
    "species,near,mid,far,edge,outer\n"
    "distance,0.5,1,2,4,8\n"
    "decayer,120,60,25,9,2\n"
    "vanisher,10,0,1,1,1\n"
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


class TestPacdCommand:
    def test_direct_parameters(self, capsys):
        doc = run_json(capsys, ["pacd", "--a", "2", "--b", "1.5"])
        assert doc == {
            "command": "pacd",
            "a": 2.0,
            "b": 1.5,
            "pacd": {"m0": 0.25, "defined": True, "reason": ""},
        }

    def test_undefined_at_unit_slope(self, capsys):
        doc = run_json(capsys, ["pacd", "--a", "2", "--b", "1"])
        assert doc["pacd"]["defined"] is False
        assert doc["pacd"]["m0"] is None

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
        report = build_fit_report(series, None)
        assert report.fit.se_b == 0.0
        assert report.classification is None
        assert "zero slope" in report.classification_error

    def test_identity_data_classifies_random(self):
        series = MVSeries(
            None,
            (MVPair("p1", 1.0, 1.0), MVPair("p2", 2.0, 2.0), MVPair("p3", 4.0, 4.0)),
        )
        report = build_fit_report(series, None)
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
        ols = build_fit_report(series, None, method="log_ols")
        assert ols.dropped_pair_labels == ("zero_mean", "zero_var")
        nls = build_fit_report(series, None, method="nls")
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
