"""Start-up cost: scipy is loaded only by the code that needs it.

Each case runs in a fresh interpreter, because this process has scipy
loaded already. The slope test's p-value loads ``scipy.special`` and the
close-pair search loads ``scipy.spatial``; nothing else loads scipy.
"""

import json
import subprocess
import sys

import pytest

from conftest import LOCATION_CSV, child_env, synthetic_longitudinal

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


@pytest.mark.parametrize(
    "argv,status",
    [
        (None, None),
        (["pacd", "--a", "2", "--b", "1.5"], 0),
        (["simulate", "--kind", "poisson"], 0),
        (["fit-dispersion", "--input", "{root}/loc.csv"], 0),
        (["simulate", "--kind", "brownian"], 1),
    ],
    ids=["import", "pacd-direct", "simulate-poisson", "fit-dispersion", "usage-error"],
)
def test_command_loads_no_scipy(inputs, argv, status):
    if argv is not None:
        argv = [arg.format(root=inputs) for arg in argv]
    assert run_child(argv) == {"status": status, "scipy": []}


def test_slope_test_loads_scipy_special(inputs):
    argv = ["classify", "--input", f"{inputs}/noisy.csv"]
    result = run_child([*argv, "--scheme", "species_across_subjects"])
    assert result["status"] == 0
    assert "scipy.special" in result["scipy"]
