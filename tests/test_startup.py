"""Start-up cost: scipy is loaded only by the close-pair search.

Each case runs in a fresh interpreter, because this process has scipy
loaded already. The slope test's p-value is computed with ``math`` alone,
so no command that classifies loads scipy. ``pcf`` and the hardcore
generator search close pairs with ``scipy.spatial``; they load what
``scipy.spatial`` loads on its own, which includes ``scipy.special`` in
recent scipy releases, and nothing more.
"""

import json
import subprocess
import sys

import pytest

from conftest import LOCATION_CSV, child_env, synthetic_longitudinal
from taylorlaw.cli import COMMANDS

# Runs ``main(argv)`` when argv is given, then prints the exit status and
# the scipy modules loaded.
_CHILD = """
import contextlib, io, json, sys
import taylorlaw
from taylorlaw.cli import main

argv = json.loads(sys.argv[1])
status = None
if argv is not None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"status": status, "scipy": loaded}))
"""


def run_child(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)],
        capture_output=True,
        check=True,
        env=child_env(),
        text=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    (root / "noisy.csv").write_text(synthetic_longitudinal(4, 8, 6))
    (root / "loc.csv").write_text(LOCATION_CSV)
    return root


_NOISY = ["--input", "{root}/noisy.csv"]
_SPECIES = [*_NOISY, "--scheme", "species_across_subjects"]

# (id, argv or None for a bare import, exit status). With _CLOSE_PAIRS
# below, every command of the CLI is named at least once.
_NO_SCIPY = [
    ("import", None, None),
    ("pacd-direct", ["pacd", "--a", "2", "--b", "1.5"], 0),
    ("pacd-input", ["pacd", *_SPECIES], 0),
    ("classify", ["classify", *_SPECIES], 0),
    (
        "fit-taylor-all-nls",
        ["fit-taylor", *_NOISY, "--scheme", "per_subject_species"]
        + ["--subject", "all", "--method", "nls"],
        0,
    ),
    (
        "experiment-poisson",
        ["experiment", "--kind", "poisson_sweep", "--reps", "2"]
        + ["--levels", "50,100,200"],
        0,
    ),
    ("simulate-poisson", ["simulate", "--kind", "poisson"], 0),
    ("fit-dispersion", ["fit-dispersion", "--input", "{root}/loc.csv"], 0),
    ("usage-error", ["simulate", "--kind", "brownian"], 1),
]
_CLOSE_PAIRS = [
    ("simulate-hardcore", ["simulate", "--kind", "hardcore"], 0),
    ("pcf", ["pcf", "--kind", "poisson"], 0),
]


def _cases(table):
    return pytest.mark.parametrize(
        "argv,status", [case[1:] for case in table], ids=[case[0] for case in table]
    )


def _formatted(argv, root):
    return None if argv is None else [arg.format(root=root) for arg in argv]


def test_table_names_every_command():
    named = {argv[0] for _, argv, _ in _NO_SCIPY + _CLOSE_PAIRS if argv}
    assert named == set(COMMANDS)


@_cases(_NO_SCIPY)
def test_command_loads_no_scipy(inputs, argv, status):
    assert run_child(_formatted(argv, inputs)) == {"status": status, "scipy": []}


@pytest.fixture(scope="module")
def spatial_alone():
    """The scipy modules ``from scipy.spatial import cKDTree`` loads by itself."""
    code = (
        "import json, sys; from scipy.spatial import cKDTree; print(json.dumps("
        "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env=child_env(),
        text=True,
    )
    return json.loads(proc.stdout)


@_cases(_CLOSE_PAIRS)
def test_close_pair_search_loads_only_scipy_spatial(
    inputs, spatial_alone, argv, status
):
    result = run_child(_formatted(argv, inputs))
    assert result["status"] == status
    assert "scipy.spatial" in result["scipy"]
    assert result["scipy"] == spatial_alone
