"""Start-up cost: no command loads scipy, and none needs it installed.

Each case runs in a fresh interpreter, because this process has scipy
loaded already (the tests use it as an oracle). The slope test's p-value
is computed with ``math`` alone and the close-pair search with numpy
alone, so the runtime needs numpy and nothing else.
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

# (id, argv or None for a bare import, exit status); every command of the
# CLI is named at least once.
_COMMANDS = [
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
    ("simulate-hardcore", ["simulate", "--kind", "hardcore"], 0),
    ("pcf", ["pcf", "--kind", "poisson"], 0),
    ("fit-dispersion", ["fit-dispersion", "--input", "{root}/loc.csv"], 0),
    ("usage-error", ["simulate", "--kind", "brownian"], 1),
]


def _formatted(argv, root):
    return None if argv is None else [arg.format(root=root) for arg in argv]


def test_table_names_every_command():
    named = {argv[0] for _, argv, _ in _COMMANDS if argv}
    assert named == set(COMMANDS)


@pytest.mark.parametrize(
    "argv,status", [case[1:] for case in _COMMANDS], ids=[case[0] for case in _COMMANDS]
)
def test_command_loads_no_scipy(inputs, argv, status):
    assert run_child(_formatted(argv, inputs)) == {"status": status, "scipy": []}


# Runs the CLI with every scipy import failing, as where only numpy is
# installed.
_WITHOUT_SCIPY = """
import importlib.abc, runpy, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"no module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy())
runpy.run_module("taylorlaw", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["pcf", "--kind", "thomas"],
        ["simulate", "--kind", "hardcore"],
        ["experiment", "--kind", "hardcore_sweep", "--reps", "2"],
    ],
    ids=["pcf-thomas", "simulate-hardcore", "experiment-hardcore"],
)
def test_point_process_commands_run_without_scipy(argv):
    def run(*prefix):
        return subprocess.run(
            [sys.executable, *prefix, *argv],
            capture_output=True,
            env=child_env(),
            text=True,
        )

    blocked, plain = run("-c", _WITHOUT_SCIPY), run("-m", "taylorlaw")
    assert (blocked.returncode, blocked.stderr) == (0, "")
    assert plain.returncode == 0
    assert blocked.stdout == plain.stdout
