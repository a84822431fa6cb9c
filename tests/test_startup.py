"""Start-up cost: what ``import taylorlaw`` and each command load.

Each case runs ``python -m taylorlaw`` in a fresh interpreter, because
this process has scipy and every layer loaded already (the tests use scipy
as an oracle). The slope test's p-value is computed with ``math`` alone
and the close-pair search with numpy alone, so the runtime needs numpy and
nothing else. The bare import loads no submodule and no numpy; each
command loads exactly the layers it calls, and numpy only with a layer
that needs it: ``pacd --a/--b`` loads ``crossover`` alone and no numpy,
the point-pattern commands load no ``tables``, and ``fit-dispersion`` no
``crossover``. None loads ``dataclasses`` or ``numpy.ma`` (which
``np.unique`` imports, some 10 ms of start-up). Every
way a command leaves the process (a report, ``--help`` and a usage error)
leaves the cyclic garbage collector off and the heap frozen, so the
interpreter's shutdown collections skip every object; the bare import
leaves both as they were. The CI job that installs numpy alone runs
exactly the test modules that import no scipy, hypothesis or mpmath.
"""

import ast
import functools
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import taylorlaw
from conftest import LOCATION_CSV, child_env, synthetic_longitudinal
from taylorlaw.cli import COMMANDS

# Runs ``python -m taylorlaw *argv`` when argv is given, else a bare
# ``import taylorlaw``; then prints the exit status, the loaded modules of
# the package, numpy, scipy and dataclasses, whether the cyclic garbage
# collector is on and whether any object is frozen.
_CHILD = """
import contextlib, gc, io, json, runpy, sys

argv = json.loads(sys.argv[1])
status = None
if argv is None:
    import taylorlaw
else:
    sys.argv = ["taylorlaw", *argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            runpy.run_module("taylorlaw", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            status = exc.code
watched = ("taylorlaw", "numpy", "scipy", "dataclasses")
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in watched)
gc_state = {"gc_enabled": gc.isenabled(), "gc_frozen": gc.get_freeze_count() > 0}
print(json.dumps({"status": status, "modules": loaded, **gc_state}))
"""


@functools.cache
def _run_child(argv_json):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, argv_json],
        capture_output=True,
        check=True,
        env=child_env(),
        text=True,
    )
    return json.loads(proc.stdout)


def run_child(argv):
    return _run_child(json.dumps(argv))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    (root / "noisy.csv").write_text(synthetic_longitudinal(4, 8, 6))
    (root / "loc.csv").write_text(LOCATION_CSV)
    return root


_NOISY = ["--input", "{root}/noisy.csv"]
_SPECIES = [*_NOISY, "--scheme", "species_across_subjects"]

_LAYERS = {
    "tables",
    "extraction",
    "fitting",
    "crossover",
    "pointprocess",
    "dispersion",
    "svgplot",
}
_TABLE_FIT = {"tables", "extraction", "fitting", "crossover"}
_EXPERIMENT = {"extraction", "fitting", "pointprocess", "crossover"}

# (id, argv or None for a bare import, exit status, the layers it loads);
# every command of the CLI is named at least once, and both kinds of plot
# load svgplot.
_COMMANDS = [
    ("import", None, None, set()),
    ("pacd-direct", ["pacd", "--a", "2", "--b", "1.5"], 0, {"crossover"}),
    ("pacd-input", ["pacd", *_SPECIES], 0, _TABLE_FIT),
    ("classify", ["classify", *_SPECIES], 0, _TABLE_FIT),
    (
        "classify-plot",
        ["classify", *_SPECIES, "--plot", "{root}/classify.svg"],
        0,
        _TABLE_FIT | {"svgplot"},
    ),
    (
        "fit-taylor-all-nls",
        ["fit-taylor", *_NOISY, "--scheme", "per_subject_species"]
        + ["--subject", "all", "--method", "nls"],
        0,
        _TABLE_FIT,
    ),
    (
        "experiment-poisson",
        ["experiment", "--kind", "poisson_sweep", "--reps", "2"]
        + ["--levels", "50,100,200"],
        0,
        _EXPERIMENT,
    ),
    (
        "experiment-plot",
        ["experiment", "--kind", "poisson_sweep", "--reps", "2"]
        + ["--levels", "50,100,200", "--plot", "{root}/experiment.svg"],
        0,
        _EXPERIMENT | {"svgplot"},
    ),
    ("simulate-poisson", ["simulate", "--kind", "poisson"], 0, {"pointprocess"}),
    ("simulate-hardcore", ["simulate", "--kind", "hardcore"], 0, {"pointprocess"}),
    ("pcf", ["pcf", "--kind", "poisson"], 0, {"pointprocess", "fitting"}),
    (
        "fit-dispersion",
        ["fit-dispersion", "--input", "{root}/loc.csv"],
        0,
        {"tables", "fitting", "dispersion"},
    ),
    ("usage-error", ["simulate", "--kind", "brownian"], 1, set()),
    ("help", ["--help"], 0, set()),
]
_IDS = [case[0] for case in _COMMANDS]


def _formatted(argv, root):
    return None if argv is None else [arg.format(root=root) for arg in argv]


def test_table_names_every_command():
    named = {argv[0] for _, argv, _, _ in _COMMANDS if argv}
    assert named == {*COMMANDS, "--help"}


@pytest.mark.parametrize("argv,status", [case[1:3] for case in _COMMANDS], ids=_IDS)
def test_command_loads_no_scipy(inputs, argv, status):
    child = run_child(_formatted(argv, inputs))
    assert child["status"] == status
    assert [m for m in child["modules"] if m.partition(".")[0] == "scipy"] == []


@pytest.mark.parametrize("argv,status,loaded", [case[1:] for case in _COMMANDS], ids=_IDS)
def test_command_loads_only_its_layers(inputs, argv, status, loaded):
    child = run_child(_formatted(argv, inputs))
    assert child["status"] == status
    assert "dataclasses" not in child["modules"]
    assert "numpy.ma" not in child["modules"]
    layers = {m.split(".")[1] for m in child["modules"] if m.startswith("taylorlaw.")}
    assert layers & _LAYERS == loaded
    assert ("svgplot" in layers) == ("--plot" in (argv or ()))
    if argv is None:
        assert layers == set()
    # Every layer but crossover needs numpy: it is loaded exactly with one.
    assert ("numpy" in child["modules"]) == bool(layers & (_LAYERS - {"crossover"}))


@pytest.mark.parametrize("argv,status", [case[1:3] for case in _COMMANDS], ids=_IDS)
def test_a_command_exits_without_the_cyclic_collector(inputs, argv, status):
    child = run_child(_formatted(argv, inputs))
    assert child["status"] == status
    ran = argv is not None
    assert (child["gc_enabled"], child["gc_frozen"]) == (not ran, ran)


@pytest.mark.parametrize("name", taylorlaw.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"taylorlaw.{taylorlaw._HOME[name]}")
    value = getattr(taylorlaw, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from taylorlaw import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(taylorlaw.__all__)
    assert set(taylorlaw.__all__) <= set(dir(taylorlaw))


def test_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_everything'"):
        taylorlaw.fit_everything


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


TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"
_EXTRAS = {"scipy", "hypothesis", "mpmath"}


def _imports_an_extra(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] in _EXTRAS for name in names):
            return True
    return False


def test_the_runtime_only_job_runs_every_module_without_an_extra():
    job = re.search(r"^  runtime-only:\n(.*?)(?=^  \S|\Z)", WORKFLOW.read_text(), re.M | re.S)
    listed = re.findall(r"\btests/(test_\w+\.py)\b", job[1])
    bare = [path.name for path in TESTS.glob("test_*.py") if not _imports_an_extra(path)]
    assert sorted(listed) == sorted(bare)
    assert not _imports_an_extra(TESTS / "conftest.py")
