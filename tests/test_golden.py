"""Golden report bytes: the exact stdout of every command, JSON and CSV.

Each case runs ``main()`` in-process on a small committed input under
``tests/golden/inputs`` and compares stdout, byte for byte, with the file
``tests/golden/<case>.<format>``. Plot cases also compare the SVG file with
``tests/golden/<case>.svg``. A change that alters any byte shows up here.

To rewrite the expected files after a deliberate report change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""

import contextlib
import csv
import io
import sys
from pathlib import Path

import pytest

from taylorlaw.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
FORMATS = ("json", "csv")

# case name -> argv; "@name" stands for tests/golden/inputs/name.csv.
CASES = {
    "fit_taylor_rows": [
        "fit-taylor", "--input", "@cross", "--scheme", "subjects_across_species",
    ],
    "fit_taylor_nls": [
        "fit-taylor", "--input", "@cross", "--scheme", "subjects_across_species",
        "--method", "nls",
    ],
    "fit_taylor_subject_all": [
        "fit-taylor", "--input", "@longi", "--scheme", "per_subject_time",
        "--subject", "all",
    ],
    "fit_taylor_normalize_plot": [
        "fit-taylor", "--input", "@longi", "--scheme", "species_across_subjects",
        "--normalize", "--plot", "@plot",
    ],
    "classify_species": [
        "classify", "--input", "@cross", "--scheme", "species_across_subjects",
    ],
    "classify_subject_species": [
        "classify", "--input", "@longi", "--scheme", "per_subject_species",
        "--subject", "A", "--alpha", "0.01", "--min-pairs", "4",
    ],
    "pacd_params": ["pacd", "--a", "2", "--b", "1.5"],
    "pacd_undefined": ["pacd", "--a", "3", "--b", "1"],
    "pacd_table": [
        "pacd", "--input", "@longi", "--scheme", "subjects_across_species",
        "--method", "nls",
    ],
    "fit_dispersion": [
        "fit-dispersion", "--input", "@location", "--c-low", "0.1", "--c-high", "4",
    ],
    "simulate_poisson": [
        "simulate", "--kind", "poisson", "--intensity", "12", "--seed", "3",
    ],
    "simulate_thomas": [
        "simulate", "--kind", "thomas", "--parent-intensity", "3",
        "--mean-offspring", "4", "--sigma", "0.05", "--seed", "11",
    ],
    "simulate_hardcore": [
        "simulate", "--kind", "hardcore", "--proposal-intensity", "30",
        "--hardcore-radius", "0.1", "--seed", "2",
    ],
    "pcf_thomas": [
        "pcf", "--kind", "thomas", "--parent-intensity", "10", "--mean-offspring", "10",
        "--seed", "1", "--bin-width", "0.025", "--r-max", "0.2",
    ],
    "experiment_poisson": [
        "experiment", "--kind", "poisson_sweep", "--levels", "10,20,40,80",
        "--reps", "2", "--q", "4", "--seed", "5",
    ],
    "experiment_thomas_plot": [
        "experiment", "--kind", "thomas_cluster_sweep", "--levels", "2,4,8",
        "--reps", "2", "--q", "4", "--seed", "6", "--parent-intensity", "10",
        "--sigma", "0.03", "--plot", "@plot",
    ],
    "experiment_hardcore_nls": [
        "experiment", "--kind", "hardcore_sweep", "--levels", "50,100,200",
        "--reps", "2", "--q", "4", "--hardcore-radius", "0.05", "--method", "nls",
        "--alpha", "0.1",
    ],
}
PLOT_CASES = [name for name, argv in CASES.items() if "@plot" in argv]


def _argv(name: str, fmt: str, plot: Path) -> list[str]:
    argv = []
    for arg in CASES[name]:
        if arg == "@plot":
            argv.append(str(plot))
        elif arg.startswith("@"):
            argv.append(str(INPUTS / f"{arg[1:]}.csv"))
        else:
            argv.append(arg)
    return argv + ["--format", fmt]


def _run(name: str, fmt: str, plot: Path) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(_argv(name, fmt, plot))
    assert status == 0, err.getvalue()
    return out.getvalue().encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, fmt, tmp_path):
    got = _run(name, fmt, tmp_path / "plot.svg")
    assert got == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", PLOT_CASES)
def test_plot_bytes(name, tmp_path):
    plot = tmp_path / "plot.svg"
    _run(name, "json", plot)
    assert plot.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()


# A species id holding a comma and one holding a double quote: every
# report row still reads back as one field path and one value.
QUOTED_LOCATION = (
    "species,s1,s2,s3,s4,s5\n"
    "distance,0.5,1,2,4,8\n"
    '"de,cayer",120,60,25,9,2\n'
    '"x""y",100,50,30,10,5\n'
)


def _csv_rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["field", "value"]
    assert all(len(row) == 2 for row in rows), [r for r in rows if len(r) != 2]
    return rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_report_rows_have_two_fields(name):
    _csv_rows((GOLDEN / f"{name}.csv").read_text(encoding="utf-8"))


def test_quoted_species_ids_keep_two_fields(tmp_path):
    path = tmp_path / "location.csv"
    path.write_text(QUOTED_LOCATION)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fit-dispersion", "--input", str(path), "--format", "csv"]) == 0
    fields = [row[0] for row in _csv_rows(out.getvalue())]
    assert "fits.de,cayer.a" in fields
    assert 'fits.x"y.a' in fields


def _regenerate() -> None:
    for name in CASES:
        for fmt in FORMATS:
            plot = GOLDEN / f"{name}.svg"
            (GOLDEN / f"{name}.{fmt}").write_bytes(_run(name, fmt, plot))
    n_reports = len(CASES) * len(FORMATS)
    print(f"wrote {n_reports} reports and {len(PLOT_CASES)} plots to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(_regenerate())
