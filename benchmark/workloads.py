"""Seeded inputs, command lists and known-answer checks of the two workloads.

Every input file is generated from the benchmark seed, so the same seed gives
byte-identical files. The program under test receives only these files and
``--seed`` flags. Each command carries a check that reads its stdout and
decides whether the answer is the one known by construction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Input sizes. Each size sets the share of time its layer takes; README.md
# lists the shares measured at these sizes.
WIDE_SUBJECTS, WIDE_SPECIES = 200, 2500
LONG_SUBJECTS, LONG_TIMES, LONG_SPECIES = 400, 6, 20
LOC_SPECIES, LOC_SITES = 150, 10
# One Thomas pattern of about 1000 points for pcf: parents, mean offspring.
THOMAS_PARENTS, THOMAS_OFFSPRING, THOMAS_SIGMA = 50, 20, 0.02
PCF_BIN = 0.01

# Known-answer tolerances. README.md gives the seeds they were validated on.
DISPERSION_C_TOL = 1e-6
NLS_SPECIES_B = (1.5, 3.0)
SWEEP_B = {
    "poisson_sweep": (0.95, 1.05),
    "thomas_cluster_sweep": (1.55, 1.95),
    "hardcore_sweep": (0.6, 0.85),
}


class CheckError(Exception):
    """A command's output is not the known answer."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv after ``taylorlaw`` and its output check."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], None]


@dataclass
class Workload:
    name: str
    why: str
    commands: list[Command]


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def _cli_seed(seed: int, stream: str) -> str:
    return str(int(_rng(seed, stream).integers(0, 2**32)))


def _neg_binomial(rng, means: np.ndarray, k: float) -> np.ndarray:
    # Mean m and variance m + m^2/k, so a table mixing densities gives a
    # fitted exponent b between 1 and 2.
    return rng.negative_binomial(k, k / (k + means))


def _write_rows(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _csv_fields(out: bytes) -> dict[str, str]:
    rows = list(csv.reader(io.StringIO(out.decode())))
    if rows[0] != ["field", "value"]:
        raise CheckError("CSV report lacks its field,value header")
    return {f: v for f, v in rows[1:]}


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_fit(report: dict, offered: int, b_range=None, pattern=None) -> None:
    fit = report["fit"]
    _expect(
        fit["n_used"] + fit["n_dropped"] == offered,
        f"n_used + n_dropped = {fit['n_used'] + fit['n_dropped']}, expected {offered}",
    )
    if b_range is not None:
        lo, hi = b_range
        _expect(lo < fit["b"] < hi, f"b = {fit['b']} outside ({lo}, {hi})")
    if pattern is not None:
        got = report["classification"].get("pattern")
        _expect(got == pattern, f"pattern {got!r}, expected {pattern!r}")


# --------------------------------------------------------------- wide_table


def _wide_table(root: Path, seed: int) -> Path:
    rng = _rng(seed, "wide_table")
    density = rng.lognormal(0.0, 0.5, size=WIDE_SUBJECTS)
    base = rng.lognormal(1.0, 1.2, size=WIDE_SPECIES)
    counts = _neg_binomial(rng, density[:, None] * base[None, :], 2.0)
    path = root / "wide.csv"
    header = ["subject_id"] + [f"sp{j:04d}" for j in range(WIDE_SPECIES)]
    _write_rows(
        path,
        header,
        ([f"s{i:03d}", *map(str, row.tolist())] for i, row in enumerate(counts)),
    )
    return path


def wide_table(root: Path, seed: int) -> Workload:
    path = str(_wide_table(root, seed))

    def rows_fit(out: bytes) -> None:
        _check_fit(json.loads(out)["report"], WIDE_SUBJECTS, pattern="aggregated")

    def species_classify(out: bytes) -> None:
        f = _csv_fields(out)
        used, dropped = int(f["report.fit.n_used"]), int(f["report.fit.n_dropped"])
        _expect(used + dropped == WIDE_SPECIES, "species pairs do not add up")
        _expect(1.0 < float(f["report.fit.b"]) < 2.0, "species b outside (1, 2)")
        _expect(
            f["report.classification.pattern"] == "aggregated",
            "species classification is not aggregated",
        )

    def species_nls(out: bytes) -> None:
        # Raw-space least squares follows the largest species, whose
        # variance grows as m^2, so b scatters around 2.
        report = json.loads(out)["report"]
        _check_fit(report, WIDE_SPECIES, b_range=NLS_SPECIES_B)
        _expect(report["fit"]["method"] == "nls", "method is not nls")
        _expect(report["fit"]["converged"], "nls did not converge")

    def pacd_normalized(out: bytes) -> None:
        value = json.loads(out)
        _expect(value["command"] == "pacd" and value["normalize"], "not a pacd run")
        _check_fit(value["report"], WIDE_SPECIES, b_range=(1.0, 2.0))

    return Workload(
        "wide_table",
        "one 200 x 2500 cross-sectional table: CSV parsing dominates, no point process",
        [
            Command(
                "fit_rows",
                ("fit-taylor", "--input", path, "--scheme", "subjects_across_species"),
                rows_fit,
            ),
            Command(
                "classify_species_csv",
                ("classify", "--input", path, "--scheme", "species_across_subjects",
                 "--format", "csv"),
                species_classify,
            ),
            Command(
                "fit_species_nls",
                ("fit-taylor", "--input", path, "--scheme", "species_across_subjects",
                 "--method", "nls"),
                species_nls,
            ),
            Command(
                "pacd_normalized",
                ("pacd", "--input", path, "--scheme", "species_across_subjects",
                 "--normalize"),
                pacd_normalized,
            ),
        ],
    )


# --------------------------------------------------------------- many_small


def _longitudinal(root: Path, seed: int) -> Path:
    rng = _rng(seed, "longitudinal")
    # Every subject draws its own species profile, so the subjects are
    # independent jobs and the cost of their fits averages out over a table.
    density = rng.lognormal(0.0, 0.4, size=LONG_SUBJECTS)
    base = rng.lognormal(2.5, 0.8, size=(LONG_SUBJECTS, LONG_SPECIES))
    drift = rng.lognormal(0.0, 0.3, size=(LONG_SUBJECTS, LONG_TIMES))
    means = density[:, None, None] * drift[:, :, None] * base[:, None, :]
    counts = _neg_binomial(rng, means, 3.0)
    path = root / "longitudinal.csv"
    header = ["subject_id", "time"] + [f"sp{j:02d}" for j in range(LONG_SPECIES)]

    def rows():
        for i in range(LONG_SUBJECTS):
            for t in range(LONG_TIMES):
                yield [f"u{i:04d}", str(t), *map(str, counts[i, t].tolist())]

    _write_rows(path, header, rows())
    return path


def _location(root: Path, seed: int) -> tuple[Path, dict[str, float]]:
    """Species abundances following ln N = a + b*x^c + d*ln x with no noise."""
    rng = _rng(seed, "location")
    x = np.cumsum(rng.uniform(0.5, 1.5, size=LOC_SITES))
    truth: dict[str, float] = {}
    rows = [["distance", *(repr(float(v)) for v in x)]]
    for j in range(LOC_SPECIES):
        a = rng.uniform(2.0, 6.0)
        c = rng.uniform(0.3, 2.5)
        # The decay term reaches between -1 and -6 at the farthest site.
        b = -rng.uniform(1.0, 6.0) / x[-1] ** c
        d = rng.uniform(-1.0, 1.0)
        n = np.exp(a + b * x**c + d * np.log(x))
        name = f"sp{j:03d}"
        truth[name] = float(c)
        rows.append([name, *(repr(float(v)) for v in n)])
    path = root / "location.csv"
    _write_rows(path, ["species"] + [f"site{k:02d}" for k in range(LOC_SITES)], rows)
    return path, truth


def many_small(root: Path, seed: int) -> Workload:
    longi = str(_longitudinal(root, seed))
    loc_path, c_truth = _location(root, seed)
    svg = root / "mean_converted.svg"
    subjects = {f"u{i:04d}" for i in range(LONG_SUBJECTS)}

    def per_subject_time(out: bytes) -> None:
        reports = json.loads(out)["reports"]
        _expect(len(reports) == LONG_SUBJECTS, f"{len(reports)} reports")
        _expect({r["scheme"]["subject"] for r in reports} == subjects, "subjects differ")
        for r in reports:
            _expect("fit" in r, f"subject {r['scheme']['subject']} was not fitted")
            _check_fit(r, LONG_TIMES)

    def per_subject_species(out: bytes) -> None:
        f = _csv_fields(out)
        got = {v for k, v in f.items() if k.endswith(".scheme.subject")}
        _expect(got == subjects, f"{len(got)} subjects reported")
        _expect(not any(k.endswith(".error") for k in f), "a subject failed to fit")
        for i in range(LONG_SUBJECTS):
            used = int(f[f"reports[{i}].fit.n_used"])
            dropped = int(f[f"reports[{i}].fit.n_dropped"])
            _expect(used + dropped == LONG_SPECIES, "species pairs do not add up")

    def mean_converted(out: bytes) -> None:
        report = json.loads(out)["report"]
        _check_fit(report, LONG_SUBJECTS, pattern="aggregated")
        text = svg.read_text(encoding="utf-8")
        _expect(
            text.count("<circle") == report["fit"]["n_used"],
            "plot does not draw one circle per used pair",
        )
        _expect(text.count("<line") == 1, "plot does not draw exactly one line")

    def dispersion(out: bytes) -> None:
        fits = json.loads(out)["fits"]
        _expect(set(fits) == set(c_truth), "species differ")
        worst = max(abs(fits[s]["c"] - c) for s, c in c_truth.items())
        _expect(worst <= DISPERSION_C_TOL, f"worst c error {worst:.3g}")

    def sweep(kind: str):
        lo, hi = SWEEP_B[kind]

        def check(out: bytes) -> None:
            value = json.loads(out)
            _expect(value["kind"] == kind, "wrong sweep kind")
            _check_fit(value["report"], len(value["levels"]), b_range=(lo, hi))

        return check

    def thomas_pcf(out: bytes) -> None:
        # g(0) = 1 + 1/(4 pi sigma^2 parents); the first ring must show at
        # least half of that excess.
        floor = 1.0 + 0.5 / (4.0 * math.pi * THOMAS_SIGMA**2 * THOMAS_PARENTS)
        g = json.loads(out)["estimate"]["g"]
        _expect(len(g) == 25, f"{len(g)} rings, expected 25")
        _expect(g[0] >= floor, f"first ring g = {g[0]}, expected >= {floor:.3g}")

    def pacd_direct(out: bytes) -> None:
        m0 = json.loads(out)["pacd"]["m0"]
        _expect(abs(m0 - 0.25) <= 1e-12, f"m0 = {m0}, expected 0.25")

    commands = [
        Command(
            "per_subject_time_all",
            ("fit-taylor", "--input", longi, "--scheme", "per_subject_time",
             "--subject", "all"),
            per_subject_time,
        ),
        Command(
            "per_subject_species_all_nls_csv",
            ("fit-taylor", "--input", longi, "--scheme", "per_subject_species",
             "--subject", "all", "--method", "nls", "--format", "csv"),
            per_subject_species,
        ),
        Command(
            "mean_converted_plot",
            ("fit-taylor", "--input", longi, "--scheme", "mean_converted_subjects",
             "--plot", str(svg)),
            mean_converted,
        ),
        Command("fit_dispersion", ("fit-dispersion", "--input", str(loc_path)), dispersion),
    ]
    for kind in SWEEP_B:
        commands.append(
            Command(
                kind,
                ("experiment", "--kind", kind, "--seed", _cli_seed(seed, kind)),
                sweep(kind),
            )
        )
    commands.append(
        Command(
            "pcf_thomas",
            ("pcf", "--kind", "thomas", "--parent-intensity", str(THOMAS_PARENTS),
             "--mean-offspring", str(THOMAS_OFFSPRING), "--sigma", str(THOMAS_SIGMA),
             "--bin-width", str(PCF_BIN), "--seed", _cli_seed(seed, "pcf_thomas")),
            thomas_pcf,
        )
    )
    commands.append(Command("pacd_direct", ("pacd", "--a", "2", "--b", "1.5"), pacd_direct))
    return Workload(
        "many_small",
        "thousands of small fits, sweeps, dispersion profiles and a 1000-point pcf; half the "
        "commands are mostly start-up",
        commands,
    )


WORKLOADS = {
    "wide_table": wide_table,
    "many_small": many_small,
}
