"""Help and usage bytes of the command line, pinned.

Each case runs ``main()`` in-process with ``COLUMNS=80`` and compares its
stdout, stderr and exit status with ``tests/cli_help.json``: the top-level
and every command's ``--help``, the usage errors argparse reports, an
abbreviated flag and a negative number in exponent form. argparse's wording
moves between Python versions, so the cases run on the version the file was
recorded under and are skipped on any other. The installed ``taylorlaw``
console script, where there is one, must print what ``python -m taylorlaw``
prints.

To record the file again after a deliberate change, run
``PYTHONPATH=src python tests/test_cli_help.py`` from the repository root
and review the diff.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

from conftest import EXACT_TABLE_CSV, child_env
from taylorlaw.cli import COMMANDS, main

PINS = Path(__file__).resolve().parent / "cli_help.json"

CASES = {
    "help": ["--help"],
    **{f"{name}_help": [name, "--help"] for name in COMMANDS},
    "no_arguments": [],
    "fit_taylor_without_flags": ["fit-taylor"],
    "invalid_kind": ["simulate", "--kind", "brownian"],
    "unknown_flag": ["pacd", "--bogus", "1"],
    "abbreviated_flags": [
        "fit-taylor", "--inp", "x", "--sch", "subjects_across_species",
    ],
    "negative_exponent_form": ["pacd", "--a", "2", "--b", "-2e-1"],
    "pacd_without_b": ["pacd", "--a", "2"],
}


def run_case(argv) -> dict:
    """Exit status, stdout and stderr of ``main(argv)``; the caller sets
    COLUMNS and a working directory without a file named ``x``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(CASES))
def test_bytes_match_the_recorded_run(case, monkeypatch, tmp_path):
    pins = _recorded()
    if pins["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"recorded under Python {pins['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[case]) == pins["cases"][case]


def test_every_case_is_recorded():
    assert list(_recorded()["cases"]) == list(CASES)


def test_console_script_prints_what_python_m_prints(tmp_path):
    script = shutil.which("taylorlaw", path=sysconfig.get_path("scripts"))
    if script is None:
        pytest.skip("the taylorlaw console script is not installed in this environment")
    (tmp_path / "exact.csv").write_text(EXACT_TABLE_CSV)

    def run(*command):
        return subprocess.run(
            command, capture_output=True, cwd=tmp_path, env=child_env(), text=True
        )

    runs = [
        ["pacd", "--a", "2", "--b", "1.5"],
        ["classify", "--input", "exact.csv", "--scheme", "subjects_across_species"],
        *([name, "--help"] for name in COMMANDS),
    ]
    for argv in runs:
        by_script, by_module = run(script, *argv), run(sys.executable, "-m", "taylorlaw", *argv)
        assert by_module.returncode == 0, by_module.stderr
        assert (by_script.returncode, by_script.stdout) == (0, by_module.stdout), argv
    assert run(script, "nope").returncode == 1


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        cases = {case: run_case(argv) for case, argv in CASES.items()}
    pins = {"python": "%d.%d" % sys.version_info[:2], "cases": cases}
    PINS.write_text(json.dumps(pins, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
