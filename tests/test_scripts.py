"""Smoke runs of the example scripts in ``scripts/``."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

from taylorlaw import EXPERIMENT_KINDS
from taylorlaw.fitting import PATTERNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def test_pattern_experiments_print_one_verdict_per_sweep():
    lines = run_script("run_pattern_experiments.py", "--reps", "2")
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert list(rows) == list(EXPERIMENT_KINDS)
    for kind, cells in rows.items():
        assert len(cells) == 7, kind
        assert cells[5] in PATTERNS, kind


def test_pcf_calibration_prints_both_fit_forms():
    lines = run_script("pcf_calibration.py", "--reps", "2", "--intensity", "300")
    for form in ("paper_form", "xi_form"):
        found = [line.strip() for line in lines if line.strip().startswith(form)]
        # The synthetic profile first, recovered exactly, then the cluster pattern.
        assert len(found) == 2, form
        assert found[0] == f"{form:<10}: r0=0.100000  s=1.800000  r2=1.000000"
